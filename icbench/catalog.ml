(* The workloads and the full metric catalog (the [end_to_end] and
   [per_layer] lists of BENCHMARK.json, in order). *)

let workloads =
  [ Info_exact.workload; Board_wire.workload; Registry_async.workload ]

let find name =
  List.find_opt (fun (Op.W w) -> w.name = name) workloads

let names = List.map (fun (Op.W w) -> w.name) workloads

(* (name, unit) *)
let end_to_end =
  [ ("ops_per_s", "1/s"); ("op_p50_ms", "ms"); ("op_p90_ms", "ms");
    ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let per_layer =
  List.concat_map
    (fun (Op.W w) ->
      List.concat_map
        (fun s -> [ (s ^ ".self_ms", "ms"); (s ^ ".alloc_kw", "kwords") ])
        w.spans
      @ List.map
          (fun (c : Op.count) ->
            (c.metric, match c.den with Some _ -> "ratio" | None -> "count"))
          w.counts)
    workloads
  @ [ ("bench.trace_overhead", "ratio"); ("fail_ratio", "ratio") ]

(* A run's metrics laid out on the catalog: every catalog entry, in
   catalog order, 0 where the workload leaves a layer idle. *)
let complete catalog (measured : (string * string * float) list) =
  List.map
    (fun (name, unit) ->
      let v =
        List.find_map
          (fun (n, _, v) -> if n = name then Some v else None)
          measured
      in
      (name, unit, Option.value ~default:0. v))
    catalog
