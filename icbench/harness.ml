(* Closed-loop harness: one client issues a workload's operations one
   after another, timing each with the monotonic clock and running its
   oracle after the timer stops.

   A run is a sequence of rounds. Each round's operations are drawn
   from a rng seeded by (seed, round index), so a round replays
   identically.

   Untraced run: time the set-up [setup_reps] times, all but the last
   in child processes (the median is [setup_s]), then run whole rounds
   until [seconds] of operation time and at least [min_ops] operations
   have accumulated.

   Every timing is scaled to the reference machine speed of {!Calib}:
   an operation's latency by the median time of the calibration loop
   over its round (one sample just before each operation), a set-up's
   time by the median of five samples just before it. The report
   prints the raw figures too.

   Traced run: the untraced pass runs in a child process; a second
   child sets up afresh and replays the same first rounds, enough to
   hold [min_ops] operations, with the span recorder and an
   [Obs.Metrics] registry installed. Both children fork from the same
   pristine process state; the ratio of their operation times over
   those rounds is [bench.trace_overhead]. *)

type args = {
  workload : Op.workload;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (* small sizes, for the tests *)
  min_ops : int;
  out_dir : string option;  (* where the span dump goes *)
}

type result = {
  round : int;
  cls : string;
  ns : int;  (* raw latency *)
  calib_ns : int;  (* calibration loop time just before the operation *)
  ms : float;  (* latency in ms, scaled to the reference speed *)
  failure : string option;
  reported : (string * float) list;
  metrics : Obs.Metrics.snapshot;
  writers : int;
  bits : int;
}

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks on sorted data. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let x = p *. float (n - 1) in
    let i = int_of_float (Float.floor x) in
    let f = x -. float i in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. (f *. (sorted.(i + 1) -. sorted.(i)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = quantile (sorted_of_list xs) 0.5

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> float kb /. 1024.)
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

(* ------------------------------------------------------------------ *)
(* Running operations                                                  *)
(* ------------------------------------------------------------------ *)

let round_rng ~seed r = Prob.Rng.of_int_seed ((seed * 1_000_003) + r)

let describe_exn = function
  | Oracle.Mismatch m -> "oracle mismatch: " ^ m
  | e -> "exception: " ^ Printexc.to_string e

let run_op ~traced ~round ~index (op : Op.t) =
  if traced then begin
    Span.set_op index;
    Option.iter Obs.Metrics.clear (Obs.Metrics.installed ())
  end;
  let exec = match op.prepare () with e -> Ok e | exception e -> Error e in
  let calib_ns = Calib.sample_ns () in
  let b0 = Coding.Bitbuf.Writer.stats () in
  let t0 = Span.now_ns () in
  let check =
    match exec with
    | Error e -> Error e
    | Ok exec -> ( match exec () with c -> Ok c | exception e -> Error e)
  in
  let ns = Span.now_ns () - t0 in
  let b1 = Coding.Bitbuf.Writer.stats () in
  let metrics =
    match Obs.Metrics.installed () with
    | Some m when traced -> Obs.Metrics.snapshot m
    | _ -> Obs.Metrics.empty_snapshot
  in
  if traced then Span.set_op (-1);
  let failure, reported =
    match check with
    | Error e -> (Some (describe_exn e), [])
    | Ok check -> (
        match check () with
        | counts -> (None, counts)
        | exception e -> (Some (describe_exn e), []))
  in
  {
    round;
    cls = op.cls;
    ns;
    calib_ns;
    ms = float ns /. 1e6;  (* scaled by [scale] once its round is done *)
    failure;
    reported;
    metrics;
    writers = b1.writers - b0.writers;
    bits = b1.bits - b0.bits;
  }

(* Scale one round's latencies by the median calibration loop time
   over the round. *)
let scale round_results =
  let f =
    Calib.factor (median (List.map (fun r -> float r.calib_ns) round_results))
  in
  List.map (fun r -> { r with ms = float r.ns /. 1e6 *. f }) round_results

(* Run rounds [0, 1, ...] while [continue] holds; results in order.
   [continue] sees the raw operation time. *)
let run_rounds ~traced ~round ~seed ~continue =
  let results = ref [] and n = ref 0 and ns = ref 0 and r = ref 0 in
  while continue ~rounds:!r ~ops:!n ~ns:!ns do
    let ops = round (round_rng ~seed !r) !r in
    let mine = ref [] in
    List.iter
      (fun op ->
        let res = run_op ~traced ~round:!r ~index:!n op in
        mine := res :: !mine;
        incr n;
        ns := !ns + res.ns)
      ops;
    (* Both lists are newest first. *)
    results := scale !mine @ !results;
    incr r
  done;
  (!r, List.rev !results, !ns)

(* The set-up's state, its scaled time and its raw time, in s. *)
let time_setup setup ~smoke ~tag =
  let loop_ns = median (List.init 5 (fun _ -> float (Calib.sample_ns ()))) in
  let t0 = Span.now_ns () in
  let st = setup ~smoke ~tag in
  let s = float (Span.now_ns () - t0) /. 1e9 in
  (st, s *. Calib.factor loop_ns, s)

let untraced_pass (args : args) round =
  let budget_ns = int_of_float (args.seconds *. 1e9) in
  let wall0 = Span.now_ns () in
  (* Hard stop on wall time, so that even on a slow machine a traced
     run (this pass plus a slower replay) ends within three minutes. *)
  let wall_cap = int_of_float ((1.5 *. args.seconds +. 20.) *. 1e9) in
  run_rounds ~traced:false ~round ~seed:args.seed
    ~continue:(fun ~rounds ~ops ~ns ->
      rounds = 0
      || ((ns < budget_ns || ops < args.min_ops)
         && Span.now_ns () - wall0 < wall_cap))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let source_value (r : result) = function
  | Op.Metric name -> float (Obs.Metrics.counter_value r.metrics name)
  | Op.Bitbuf_writers -> float r.writers
  | Op.Bitbuf_bits -> float r.bits
  | Op.Reported name ->
      Option.value ~default:0. (List.assoc_opt name r.reported)

let count_value results (c : Op.count) =
  let mine = List.filter (fun r -> List.mem r.cls c.classes) results in
  let sum src = List.fold_left (fun a r -> a +. source_value r src) 0. mine in
  let den =
    match c.den with Some d -> sum d | None -> float (List.length mine)
  in
  if den = 0. then 0. else sum c.num /. den

(* Per span name: self ms and self kilo-words per operation that
   recorded the span (set-up counts as one operation). *)
let span_rollup spans =
  let totals = Hashtbl.create 32 and ops = Hashtbl.create 1024 in
  Array.iter
    (fun (s : Span.span) ->
      let ns, w =
        Option.value ~default:(0, 0) (Hashtbl.find_opt totals s.s_name)
      in
      Hashtbl.replace totals s.s_name (ns + s.self_ns, w + s.self_words);
      Hashtbl.replace ops (s.s_name, s.s_op) ())
    spans;
  fun name ->
    match Hashtbl.find_opt totals name with
    | None -> (0., 0.)
    | Some (ns, w) ->
        let n =
          float
            (Hashtbl.fold (fun (n, _) () a -> if n = name then a + 1 else a) ops 0)
        in
        (float ns /. 1e6 /. n, float w /. 1e3 /. n)

(* The latency of an operation in ms: scaled, or raw for the report. *)
let scaled r = r.ms
let raw r = float r.ns /. 1e6

(* Per round: (operations, seconds of operation time). *)
let round_times lat results =
  let rounds = List.sort_uniq compare (List.map (fun r -> r.round) results) in
  List.map
    (fun k ->
      let mine = List.filter (fun r -> r.round = k) results in
      ( List.length mine,
        List.fold_left (fun a r -> a +. lat r) 0. mine /. 1e3 ))
    rounds

(* Operations per second: a round's operation count over the median
   round time, so a burst of machine noise in one round does not move
   it. *)
let ops_per_s lat results =
  let per_round = round_times lat results in
  let ops = fst (List.hd per_round) in
  float ops /. median (List.map snd per_round)

(* ops_per_s, op_p50_ms and op_p90_ms under latency [lat]. *)
let figures lat results =
  let sorted = sorted_of_list (List.map lat results) in
  (ops_per_s lat results, quantile sorted 0.5, quantile sorted 0.9)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let env_fields ~(args : args) ~name : (string * Obs.Jsonw.t) list =
  [
    ("workload", String name);
    ("seed", Int args.seed);
    ("seconds", Float args.seconds);
    ("trace", Bool args.trace);
    ("nproc", Int (Domain.recommended_domain_count ()));
    ("par_domains", Int (Par.default_domains ()));
    ("ocaml", String Sys.ocaml_version);
    ("core_version", String Core.version);
  ]

(* The result object. A value that could not be measured (NaN) prints
   as null. *)
let result_json ~correct ~attempted ~failed metrics : Obs.Jsonw.t =
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Int attempted);
      ("failed", Int failed);
      ( "metrics",
        Obj
          (List.map
             (fun (name, unit, v) ->
               ( name,
                 Obs.Jsonw.Obj [ ("value", Float v); ("unit", String unit) ] ))
             metrics) );
    ]

let failures results =
  List.filter_map
    (fun r -> Option.map (fun m -> r.cls ^ ": " ^ m) r.failure)
    results

let class_summary results =
  let classes = List.sort_uniq compare (List.map (fun r -> r.cls) results) in
  List.map
    (fun c ->
      let ms =
        List.filter_map
          (fun r -> if r.cls = c then Some r.ms else None)
          results
      in
      Printf.sprintf "  class %-18s ops=%-5d median=%.3f ms total=%.1f ms" c
        (List.length ms) (median ms)
        (List.fold_left ( +. ) 0. ms))
    classes

(* The operations ranked around quantile [p], with their classes:
   shows which class sets a percentile. *)
let around results p =
  let a =
    Array.of_list (List.map (fun r -> (r.ms, r.cls)) results)
  in
  Array.sort compare a;
  let n = Array.length a in
  let c = int_of_float (p *. float (n - 1)) in
  let lo = max 0 (c - 2) and hi = min (n - 1) (c + 2) in
  Printf.sprintf "  around p%.0f: %s" (100. *. p)
    (String.concat " "
       (List.init (hi - lo + 1) (fun i ->
            let ms, cls = a.(lo + i) in
            Printf.sprintf "%.2f(%s)" ms cls)))

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (* name, unit, value *)
  notes : string list;  (* human-readable report lines *)
  failures : string list;
}

let untraced (args : args) (Op.W w) =
  (* Every set-up but the last runs in a child forked from this pristine
     process, so each is the cold set-up a run pays before its first
     operation; the last one, in this process, serves the run. *)
  let timed i =
    time_setup w.setup ~smoke:args.smoke ~tag:(Printf.sprintf "s%d" i)
  in
  let reps = max 1 w.setup_reps in
  let cold =
    List.init (reps - 1) (fun i ->
        Child.run (fun () ->
            let _, s, raw_s = timed i in
            (s, raw_s)))
  in
  let st, last, last_raw = timed (reps - 1) in
  let setups = cold @ [ (last, last_raw) ] in
  let setup_s = median (List.map fst setups) in
  let rounds, results, ns = untraced_pass args (w.round st) in
  let n = List.length results in
  let fails = failures results in
  let failed = List.length fails in
  let ops_s, p50, p90 = figures scaled results in
  let raw_ops_s, raw_p50, raw_p90 = figures raw results in
  let beyond = List.length (List.filter (fun r -> r.ms > p90) results) in
  let loop_us =
    median (List.map (fun r -> float r.calib_ns) results) /. 1e3
  in
  {
    correct = failed = 0;
    attempted = n;
    failed;
    failures = fails;
    metrics =
      [
        ("ops_per_s", "1/s", ops_s);
        ("op_p50_ms", "ms", p50);
        ("op_p90_ms", "ms", p90);
        ("setup_s", "s", setup_s);
        ("peak_rss_mb", "MB", peak_rss_mb ());
      ];
    notes =
      [
        Printf.sprintf "rounds=%d ops=%d timed=%.3f s (raw)" rounds n
          (float ns /. 1e9);
        Printf.sprintf
          "calibration loop: median %.1f us against the reference %.1f us \
           (timings scaled by about %.3f)"
          loop_us (Calib.reference_ns /. 1e3)
          (Calib.reference_ns /. 1e3 /. loop_us);
        Printf.sprintf
          "raw: ops_per_s=%.4f op_p50_ms=%.4f op_p90_ms=%.4f setup_s=%.6f"
          raw_ops_s raw_p50 raw_p90 (median (List.map snd setups));
        Printf.sprintf "op_p90_ms=%.4f over %d samples (%d beyond it)" p90 n
          beyond;
        Printf.sprintf "fail_ratio=%g (%d of %d)"
          (float failed /. float (max n 1)) failed n;
        Printf.sprintf "round_s: %s"
          (String.concat " "
             (List.map (fun (_, t) -> Printf.sprintf "%.3f" t)
                (round_times scaled results)));
        Printf.sprintf "setup_s samples: %s"
          (String.concat " "
             (List.map (fun (s, _) -> Printf.sprintf "%.6f" s) setups));
      ]
      @ class_summary results
      @ [ around results 0.5; around results 0.9 ];
  }

let traced (args : args) (Op.W w) =
  (* The untraced pass runs in a child for [--seconds]. The traced
     replay covers its first [k] rounds, the fewest that hold
     [min_ops] operations, in a second child forked from the same
     state, so both passes pay the same start-up costs. The first child
     reports the scaled operation time of those rounds, for the
     overhead ratio, and the whole pass's attempted and failed counts. *)
  let total results = List.fold_left (fun a r -> a +. r.ms) 0. results /. 1e3 in
  let k, plain_s, plain_n, plain_failed =
    Child.run (fun () ->
        let st, _, _ = time_setup w.setup ~smoke:args.smoke ~tag:"u" in
        let _, results, _ = untraced_pass args (w.round st) in
        let per_round = round_times scaled results in
        let ops = fst (List.hd per_round) in
        let k = min (List.length per_round) ((args.min_ops + ops - 1) / ops) in
        ( k,
          total (List.filter (fun r -> r.round < k) results),
          List.length results,
          List.length (failures results) ))
  in
  Child.run @@ fun () ->
  Span.start ();
  Obs.Metrics.install (Obs.Metrics.create ());
  let st, _, _ = time_setup w.setup ~smoke:args.smoke ~tag:"t" in
  let _, results, _ =
    run_rounds ~traced:true ~round:(w.round st) ~seed:args.seed
      ~continue:(fun ~rounds:r ~ops:_ ~ns:_ -> r < k)
  in
  let traced_s = total results in
  Obs.Metrics.uninstall ();
  Span.stop ();
  let spans = Span.spans () in
  let nesting = Span.check_nesting spans in
  Option.iter
    (fun dir -> Span.dump (Filename.concat dir ("spans-" ^ w.name ^ ".tsv")))
    args.out_dir;
  let fails = failures results @ nesting in
  let failed = plain_failed + List.length (failures results) in
  let attempted = plain_n + List.length results in
  let roll = span_rollup spans in
  let span_metrics =
    List.concat_map
      (fun name ->
        let ms, kw = roll name in
        [ (name ^ ".self_ms", "ms", ms); (name ^ ".alloc_kw", "kwords", kw) ])
      w.spans
  in
  let count_metrics =
    List.map
      (fun (c : Op.count) ->
        ( c.metric,
          (match c.den with Some _ -> "ratio" | None -> "count"),
          count_value results c ))
      w.counts
  in
  {
    correct = failed = 0 && nesting = [];
    attempted;
    failed;
    failures = fails;
    metrics =
      span_metrics @ count_metrics
      @ [
          ("bench.trace_overhead", "ratio", traced_s /. plain_s);
          ("fail_ratio", "ratio", float failed /. float (max attempted 1));
        ];
    notes =
      [
        Printf.sprintf
          "traced rounds=%d ops=%d untraced=%.3f s traced=%.3f s spans=%d \
           nesting_violations=%d"
          k (List.length results) plain_s traced_s (Array.length spans)
          (List.length nesting);
      ]
      @ class_summary results;
  }

let run (args : args) =
  let (Op.W w) = args.workload in
  let o = if args.trace then traced args args.workload else untraced args args.workload in
  (o, env_fields ~args ~name:w.name)
