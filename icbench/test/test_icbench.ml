open Icbench

let smoke_args ?(trace = false) w =
  {
    Harness.workload = w;
    seed = 7;
    seconds = 0.;
    trace;
    smoke = true;
    min_ops = 1;
    out_dir = None;
  }

let name (Op.W w) = w.name

let each_workload f =
  List.map
    (fun w -> Alcotest.test_case (name w) `Quick (fun () -> f w))
    Catalog.workloads

(* A smoke-size run passes every oracle, traced and untraced, and
   reports every catalog metric. *)
let end_to_end ~trace w =
  let o, _ = Harness.run (smoke_args ~trace w) in
  List.iter print_endline o.Harness.failures;
  Alcotest.(check int) "failed" 0 o.failed;
  Alcotest.(check bool) "correct" true o.correct;
  Alcotest.(check bool) "attempted" true (o.attempted > 0);
  let catalog = if trace then Catalog.per_layer else Catalog.end_to_end in
  let (Op.W ww) = w in
  let expected =
    if trace then
      List.concat_map (fun s -> [ s ^ ".self_ms"; s ^ ".alloc_kw" ]) ww.spans
      @ List.map (fun (c : Op.count) -> c.metric) ww.counts
      @ [ "bench.trace_overhead"; "fail_ratio" ]
    else List.map fst catalog
  in
  Alcotest.(check (list string))
    "metrics" expected
    (List.map (fun (n, _, _) -> n) o.metrics);
  List.iter
    (fun (n, u, _) ->
      Alcotest.(check (option string)) n (Some u) (List.assoc_opt n catalog))
    o.metrics

(* Feeding the oracles wrong expected values drives fail_ratio above
   0 on every workload. *)
let oracle_bites w =
  Oracle.corrupt := true;
  let o, _ =
    Fun.protect
      ~finally:(fun () -> Oracle.corrupt := false)
      (fun () -> Harness.run (smoke_args w))
  in
  Alcotest.(check bool) "some operation failed" true (o.Harness.failed > 0);
  Alcotest.(check bool) "correct is false" false o.correct

(* Child spans never outlast their parent, on a synthetic nest and on
   a traced workload run. *)
let busy ms =
  let t0 = Span.now_ns () in
  while Span.now_ns () - t0 < ms * 1_000_000 do
    ignore (Sys.opaque_identity (Array.make 8 0))
  done

let nesting_synthetic () =
  let a = Span.id "test.parent" and b = Span.id "test.child" in
  Span.start ();
  Span.wrap a (fun () ->
      busy 2;
      Span.wrap b (fun () -> busy 3);
      Span.wrap b (fun () -> busy 1));
  Span.stop ();
  let spans = Span.spans () in
  Alcotest.(check int) "spans" 3 (Array.length spans);
  Alcotest.(check (list string)) "no violations" [] (Span.check_nesting spans);
  let parent = spans.(0) in
  let children = [ spans.(1); spans.(2) ] in
  List.iter
    (fun (c : Span.span) ->
      Alcotest.(check int) "parent index" 0 c.s_parent;
      Alcotest.(check bool) "child self <= parent" true
        (c.self_ns <= parent.s_ns))
    children;
  Alcotest.(check int) "parent self = parent - children"
    (parent.s_ns - List.fold_left (fun a (c : Span.span) -> a + c.s_ns) 0 children)
    parent.self_ns;
  Alcotest.(check bool) "parent self >= 2 ms" true (parent.self_ns >= 2_000_000)

let nesting_workload w =
  let o, _ = Harness.run (smoke_args ~trace:true w) in
  Alcotest.(check (list string))
    "no violations" []
    (List.filter (String.starts_with ~prefix:"span ") o.Harness.failures);
  Alcotest.(check bool)
    "spans recorded" true
    (List.exists
       (fun (n, _, v) -> Filename.check_suffix n ".self_ms" && v > 0.)
       o.metrics)

(* The result line has the four contract keys, and a value that could
   not be measured prints as null rather than as a number. *)
let result_line () =
  let line =
    Obs.Jsonw.to_string
      (Harness.result_json ~correct:true ~attempted:3 ~failed:0
         [ ("op_p50_ms", "ms", 1.25); ("peak_rss_mb", "MB", nan) ])
  in
  let doc =
    match Obs.Jsonw.of_string line with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s: %s" line e
  in
  let get path =
    List.fold_left
      (fun j k -> Option.bind j (Obs.Jsonw.member k))
      (Some doc) path
  in
  Alcotest.(check (list string))
    "keys" [ "correct"; "attempted"; "failed"; "metrics" ]
    (match doc with Obs.Jsonw.Obj fs -> List.map fst fs | _ -> []);
  Alcotest.(check bool) "value" true
    (get [ "metrics"; "op_p50_ms"; "value" ] = Some (Obs.Jsonw.Float 1.25));
  Alcotest.(check bool) "unit" true
    (get [ "metrics"; "op_p50_ms"; "unit" ] = Some (Obs.Jsonw.String "ms"));
  Alcotest.(check bool) "unmeasured is null" true
    (get [ "metrics"; "peak_rss_mb"; "value" ] = Some Obs.Jsonw.Null)

(* Two rounds timed while the machine ran at half speed (every
   latency and every calibration loop twice as long) report the same
   scaled figures as at full speed, and twice the raw latencies. *)
let scaling () =
  let result ~round (ns, calib_ns) =
    {
      Harness.round;
      cls = "c";
      ns;
      calib_ns;
      ms = 0.;
      failure = None;
      reported = [];
      metrics = Obs.Metrics.empty_snapshot;
      writers = 0;
      bits = 0;
    }
  in
  let run slow =
    List.concat_map
      (fun round ->
        Harness.scale
          (List.map
             (fun (ns, c) -> result ~round (slow * ns, slow * c))
             [ (3_000_000, 240_000); (5_000_000, 250_000); (40_000_000, 260_000) ]))
      [ 0; 1 ]
  in
  let close what a b =
    Alcotest.(check bool) (Printf.sprintf "%s: %g = %g" what a b) true
      (Float.abs (a -. b) <= 1e-9 *. Float.abs b)
  in
  let o1, p50_1, p90_1 = Harness.figures Harness.scaled (run 1)
  and o2, p50_2, p90_2 = Harness.figures Harness.scaled (run 2) in
  close "ops_per_s" o2 o1;
  close "p50" p50_2 p50_1;
  close "p90" p90_2 p90_1;
  (* The rounds' median loop time equals the reference, so the scaled
     figures at full speed are the raw ones. *)
  close "p50 at the reference speed" p50_1 5.;
  let _, raw_p50, _ = Harness.figures Harness.raw (run 2) in
  close "raw p50 at half speed" raw_p50 10.

(* BENCHMARK.json names exactly the workloads and metrics of the
   catalog, with the same units. *)
let benchmark_json () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let doc =
    match Obs.Jsonw.of_string text with
    | Ok d -> d
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let field name j =
    match Obs.Jsonw.member name j with
    | Some v -> v
    | None -> Alcotest.failf "BENCHMARK.json: no %s" name
  in
  let str = function Obs.Jsonw.String s -> s | _ -> Alcotest.fail "not a string" in
  let items name =
    match field name doc with
    | Obs.Jsonw.List l -> l
    | _ -> Alcotest.failf "%s is not a list" name
  in
  Alcotest.(check (list string))
    "workloads" Catalog.names
    (List.map (fun j -> str (field "name" j)) (items "workloads"));
  let named l = List.map (fun j -> (str (field "name" j), str (field "unit" j))) l in
  Alcotest.(check (list (pair string string)))
    "end_to_end" Catalog.end_to_end (named (items "end_to_end"));
  Alcotest.(check (list (pair string string)))
    "per_layer" Catalog.per_layer (named (items "per_layer"))

let () =
  Alcotest.run "icbench"
    [
      ("end-to-end", each_workload (end_to_end ~trace:false));
      ("traced", each_workload (end_to_end ~trace:true));
      ("oracles", each_workload oracle_bites);
      ( "spans",
        Alcotest.test_case "synthetic nest" `Quick nesting_synthetic
        :: each_workload nesting_workload );
      ("catalog", [ Alcotest.test_case "BENCHMARK.json" `Quick benchmark_json ]);
      ("report", [ Alcotest.test_case "result line" `Quick result_line ]);
      ("calibration", [ Alcotest.test_case "scaling" `Quick scaling ]);
    ]
