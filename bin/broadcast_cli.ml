(** Command-line interface to the broadcast-model toolkit.

    Subcommands:
    - [disj]: run a set-disjointness protocol on a generated instance
      and report the answer, bit count, and per-cycle trace.
    - [info]: compute exact information quantities of an AND_k protocol.
    - [compress]: run the Theorem-3 amortized compression and report the
      per-copy cost against the exact information cost.
    - [sample]: exercise the Lemma-7 point sampler and report measured
      cost against the divergence.
    - [trace]: run a protocol with a line-JSON trace sink installed and
      write the event stream to a file.
    - [lint]: run the proto-lint static analyzer over every protocol in
      the registry and print a diagnostics table (or JSON with
      [--json]); [--only]/[--ignore] filter by rule id.
    - [verify]: run the proto-verify abstract interpreter and certifier
      over the registry (differential sweep against executed and
      declared costs, zero-error certification against declared specs),
      with line-JSON diagnostics and a [--baseline] suppression file.

    The [disj], [compress], [sample], and [verify] subcommands accept
    [--metrics] to install an {!Obs.Metrics} registry for the run and
    print the snapshot as JSON afterwards. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared                                                              *)
(* ------------------------------------------------------------------ *)

let metrics_flag =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Collect Obs metrics during the run and print the snapshot \
                 as JSON afterwards.")

(* Runs [f] with a metrics registry installed (when [enabled]) and prints
   the snapshot once [f] returns. The registry is uninstalled even if [f]
   raises, so a failing run never leaks instrumentation into a later one. *)
let with_metrics enabled f =
  if not enabled then f ()
  else begin
    let m = Obs.Metrics.create () in
    Obs.Metrics.install m;
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.uninstall ())
      (fun () ->
        let r = f () in
        print_endline
          (Obs.Jsonw.to_string ~pretty:true
             (Obs.Metrics.to_json (Obs.Metrics.snapshot m)));
        r)
  end

(* A bad option value is a usage error: one line on stderr and exit 2,
   not an uncaught exception, an assertion or a meaningless answer. *)
let usage cmd fmt =
  Printf.ksprintf (fun msg -> Printf.eprintf "%s: %s\n" cmd msg; exit 2) fmt

(* The registry entries named on a [cmd] command line, all of them when
   none is named; an unknown name is a usage error (exit 2). *)
let resolve_entries cmd names =
  let module Reg = Protocols.Registry in
  match names with
  | [] -> Reg.all ()
  | names ->
      List.map
        (fun n ->
          match Reg.find n with
          | Some e -> e
          | None ->
              usage cmd "unknown protocol %S; known: %s" n
                (String.concat ", " (Reg.names ())))
        names

(* The analyzers' node budget (lint, analyze, verify): a non-positive
   one would put every entry over budget. *)
let check_budget cmd = function
  | Some b when b < 1 -> usage cmd "--budget must be positive, got %d" b
  | Some _ | None -> ()

let check_at_least cmd name lo v =
  if v < lo then usage cmd "%s must be at least %d, got %d" name lo v

(* [info] and [compress] build the Section-4.1 law over all 2^k inputs,
   which needs at least two players and at most proto-lint's state
   budget of inputs; a noise rate outside [0, 1/2) makes no noisy AND. *)
let max_players =
  let budget = Analysis.Rules.default_state_budget in
  let rec go k = if 1 lsl (k + 1) > budget then k else go (k + 1) in
  go 1

let check_players cmd k =
  check_at_least cmd "-k" 2 k;
  if k > max_players then
    usage cmd
      "-k must be at most %d (2^k inputs within the state budget of %d), got %d"
      max_players Analysis.Rules.default_state_budget k

let players_doc =
  Printf.sprintf
    "Number of players, 2 to %d (the exact semantics enumerates all 2^k \
     inputs)."
    max_players

let check_noise cmd noise =
  if not (Float.is_finite noise && noise >= 0. && noise < 0.5) then
    usage cmd "--noise must be in [0, 1/2), got %g" noise

(* The Lemma-7 failure budget (compress, sample). *)
let check_eps cmd eps =
  if not (Float.is_finite eps && eps > 0. && eps < 1.) then
    usage cmd "--eps must be in (0, 1), got %g" eps

(* A command's last step: exit with its status unless that is 0. *)
let finish code = if code <> 0 then exit code

type instance_kind = Disjoint | Intersecting | Dense | Full | Empty

let instance_arg =
  let kinds =
    [ ("disjoint", Disjoint); ("intersecting", Intersecting);
      ("dense", Dense); ("full", Full); ("empty", Empty) ]
  in
  Arg.(value & opt (enum kinds) Disjoint
       & info [ "i"; "instance" ]
           ~doc:(Printf.sprintf "Instance kind, %s."
                   (Arg.doc_alts_enum kinds)))

let make_instance kind rng ~n ~k =
  match kind with
  | Disjoint -> Protocols.Disj_common.random_disjoint_single_zero rng ~n ~k
  | Intersecting ->
      Protocols.Disj_common.random_intersecting rng ~n ~k ~witnesses:1
  | Dense -> Protocols.Disj_common.random_dense rng ~n ~k ~density:0.7
  | Full -> Protocols.Disj_common.all_full ~n ~k
  | Empty -> Protocols.Disj_common.all_empty ~n ~k

type disj_protocol = Batched | Naive | Trivial

let disj_protocols =
  [ ("batched", Batched); ("naive", Naive); ("trivial", Trivial) ]

(* ------------------------------------------------------------------ *)
(* disj                                                                *)
(* ------------------------------------------------------------------ *)

let disj_cmd =
  let run n k protocol instance seed threshold naive_encoding verbose metrics =
    let mismatch =
      with_metrics metrics (fun () ->
          let rng = Prob.Rng.of_int_seed seed in
          let inst = make_instance instance rng ~n ~k in
          let truth = Protocols.Disj_common.disjoint inst in
          let result =
            match protocol with
            | Batched ->
                let encoding =
                  if naive_encoding then Protocols.Disj_batched.NaiveFixed
                  else Protocols.Disj_batched.Combinatorial
                in
                let r = Protocols.Disj_batched.solve ~encoding ?threshold inst in
                if verbose then
                  List.iter
                    (fun t ->
                      Printf.printf
                        "cycle %d [%s]: z=%d contributors=%d bits=%d\n"
                        t.Protocols.Disj_batched.cycle
                        (if t.Protocols.Disj_batched.phase_high then "batch"
                         else "final")
                        t.Protocols.Disj_batched.z_start
                        t.Protocols.Disj_batched.contributions
                        t.Protocols.Disj_batched.bits_in_cycle)
                    r.Protocols.Disj_batched.trace;
                r.Protocols.Disj_batched.result
            | Naive -> Protocols.Disj_naive.solve inst
            | Trivial -> Protocols.Disj_trivial.solve inst
          in
          let protocol_name =
            List.find (fun (_, p) -> p = protocol) disj_protocols |> fst
          in
          Printf.printf
            "protocol=%s n=%d k=%d: answer=%s (truth=%s) bits=%d messages=%d cycles=%d\n"
            protocol_name n k
            (if result.Protocols.Disj_common.answer then "disjoint"
             else "non-disjoint")
            (if truth then "disjoint" else "non-disjoint")
            result.Protocols.Disj_common.bits
            result.Protocols.Disj_common.messages
            result.Protocols.Disj_common.cycles;
          Printf.printf
            "cost shapes: n*lg(k)+k = %.0f   n*lg(n)+k = %.0f   n*k = %d\n"
            (Protocols.Disj_batched.cost_model ~n ~k)
            (Protocols.Disj_naive.cost_model ~n ~k)
            (n * k);
          result.Protocols.Disj_common.answer <> truth)
    in
    if mismatch then exit 2
  in
  let n = Arg.(value & opt int 4096 & info [ "n" ] ~doc:"Universe size.") in
  let k = Arg.(value & opt int 16 & info [ "k" ] ~doc:"Number of players.") in
  let protocol =
    Arg.(value & opt (enum disj_protocols) Batched
         & info [ "p"; "protocol" ]
             ~doc:(Printf.sprintf "Protocol, %s."
                     (Arg.doc_alts_enum disj_protocols)))
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let threshold =
    Arg.(value & opt (some int) None
         & info [ "threshold" ] ~doc:"Phase-switch threshold (default k^2).")
  in
  let naive_encoding =
    Arg.(value & flag
         & info [ "naive-encoding" ]
             ~doc:"Use fixed-width coordinates instead of the subset code.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the cycle trace.")
  in
  Cmd.v
    (Cmd.info "disj" ~doc:"Run a multi-party set-disjointness protocol.")
    Term.(
      const run $ n $ k $ protocol $ instance_arg $ seed $ threshold
      $ naive_encoding $ verbose $ metrics_flag)

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

type and_protocol = Sequential | Broadcast | Noisy

let info_cmd =
  let protocols =
    [ ("sequential", Sequential); ("broadcast", Broadcast); ("noisy", Noisy) ]
  in
  let run k protocol noise =
    check_players "info" k;
    check_noise "info" noise;
    let protocol_name =
      List.find (fun (_, p) -> p = protocol) protocols |> fst
    in
    let tree =
      match protocol with
      | Sequential -> Protocols.And_protocols.sequential k
      | Broadcast -> Protocols.And_protocols.broadcast_all k
      | Noisy ->
          Protocols.And_protocols.noisy_sequential ~k
            ~noise:(Exact.Rational.of_float_dyadic noise)
    in
    let mu = Protocols.Hard_dist.mu_and ~k in
    let mu_aux = Protocols.Hard_dist.mu_and_with_aux ~k in
    let err =
      Proto.Semantics.worst_case_error tree ~f:Protocols.Hard_dist.and_fn
        (Proto.Semantics.all_bit_inputs k)
    in
    Printf.printf "protocol %s, k = %d (hard distribution of Section 4.1)\n"
      protocol_name k;
    Printf.printf "  CC (worst case)        = %d bits\n"
      (Proto.Tree.communication_cost tree);
    Printf.printf "  worst-case error       = %s\n" (Exact.Rational.to_string err);
    (* One memo: the four measures read the same transcript laws. *)
    let memo = Proto.Semantics.memo () in
    Printf.printf "  IC_mu   = I(T;X)       = %.4f bits\n"
      (Proto.Information.external_ic ~memo tree mu);
    Printf.printf "  CIC_mu  = I(T;X|Z)     = %.4f bits\n"
      (Proto.Information.conditional_ic ~memo tree mu_aux);
    Printf.printf "  H(T)                   = %.4f bits\n"
      (Proto.Information.transcript_entropy ~memo tree mu);
    Printf.printf "  log2 k                 = %.4f bits\n"
      (Float.log2 (float_of_int k));
    let rounds = Proto.Information.per_round_information ~memo tree mu in
    Printf.printf "  per-round information  = [%s]\n"
      (String.concat "; "
         (Array.to_list (Array.map (Printf.sprintf "%.4f") rounds)))
  in
  let k = Arg.(value & opt int 6 & info [ "k" ] ~doc:players_doc) in
  let protocol =
    Arg.(value & opt (enum protocols) Sequential
         & info [ "p"; "protocol" ]
             ~doc:(Printf.sprintf "Protocol, %s."
                     (Arg.doc_alts_enum protocols)))
  in
  let noise =
    Arg.(value & opt float 0.05
         & info [ "noise" ] ~doc:"Flip probability for the noisy protocol.")
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Exact information quantities of an AND_k protocol.")
    Term.(const run $ k $ protocol $ noise)

(* ------------------------------------------------------------------ *)
(* compress                                                            *)
(* ------------------------------------------------------------------ *)

let compress_cmd =
  let run k copies seed eps metrics =
    check_players "compress" k;
    (* AND's messages are binary, so a literal round's universe is
       2^copies. *)
    if copies < 1 || copies > Compress.Amortized.max_log_u then
      usage "compress" "--copies must be in 1..%d, got %d"
        Compress.Amortized.max_log_u copies;
    check_eps "compress" eps;
    with_metrics metrics (fun () ->
        let tree = Protocols.And_protocols.sequential k in
        let mu = Protocols.Hard_dist.mu_and ~k in
        let ic = Proto.Information.external_ic tree mu in
        let result, _ =
          Compress.Amortized.compress_random ~eps ~seed ~tree ~mu ~copies ()
        in
        Printf.printf
          "compressed %d copies of sequential AND_%d: %d bits total, %.3f/copy\n"
          copies k result.Compress.Amortized.total_bits
          result.Compress.Amortized.per_copy_bits;
        Printf.printf "exact IC = %.3f bits; overhead = %.3f bits/copy\n" ic
          (result.Compress.Amortized.per_copy_bits -. ic);
        Printf.printf "rounds=%d transmissions=%d aborts=%d decoders agreed=%b\n"
          result.Compress.Amortized.rounds
          result.Compress.Amortized.transmissions
          result.Compress.Amortized.aborted result.Compress.Amortized.agreed)
  in
  let k = Arg.(value & opt int 4 & info [ "k" ] ~doc:players_doc) in
  let copies =
    Arg.(value & opt int 8
         & info [ "copies" ] ~doc:"Parallel copies (product universe <= 2^20).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let eps = Arg.(value & opt float 0.01 & info [ "eps" ] ~doc:"Sampler failure budget.") in
  Cmd.v
    (Cmd.info "compress" ~doc:"Theorem-3 amortized compression demo.")
    Term.(const run $ k $ copies $ seed $ eps $ metrics_flag)

(* ------------------------------------------------------------------ *)
(* sample                                                              *)
(* ------------------------------------------------------------------ *)

let sample_cmd =
  let run u p0 eps trials metrics =
    check_at_least "sample" "-u" 2 u;
    if not (p0 >= 0. && p0 <= 1.) then
      usage "sample" "--p0 must be in [0, 1], got %g" p0;
    check_eps "sample" eps;
    check_at_least "sample" "--trials" 1 trials;
    with_metrics metrics (fun () ->
        let rest = (1. -. p0) /. float_of_int (u - 1) in
        let eta = Array.init u (fun i -> if i = 0 then p0 else rest) in
        let nu = Array.make u (1. /. float_of_int u) in
        let d =
          Array.to_list eta
          |> List.mapi (fun i p ->
                 if p > 0. then p *. Float.log2 (p /. nu.(i)) else 0.)
          |> List.fold_left ( +. ) 0.
        in
        let bits = ref 0 and aborts = ref 0 in
        for seed = 0 to trials - 1 do
          let rng = Prob.Rng.of_int_seed seed in
          let round = Prob.Rng.split rng in
          let w = Coding.Bitbuf.Writer.create () in
          let res = Compress.Point_sampler.transmit ~rng:round ~eta ~nu ~eps w in
          bits := !bits + res.Compress.Point_sampler.bits;
          if res.Compress.Point_sampler.aborted then incr aborts
        done;
        Printf.printf
          "u=%d D(eta||nu)=%.3f: mean cost %.3f bits over %d trials (aborts %d)\n"
          u d
          (float_of_int !bits /. float_of_int trials)
          trials !aborts;
        Printf.printf "model: D + O(log D + log 1/eps) = %.3f\n"
          (Compress.Point_sampler.cost_model ~divergence:d ~eps))
  in
  let u = Arg.(value & opt int 256 & info [ "u" ] ~doc:"Universe size.") in
  let p0 =
    Arg.(value & opt float 0.9
         & info [ "p0" ] ~doc:"Mass eta places on symbol 0 (controls D).")
  in
  let eps = Arg.(value & opt float 0.01 & info [ "eps" ] ~doc:"Failure budget.") in
  let trials = Arg.(value & opt int 500 & info [ "trials" ] ~doc:"Trials.") in
  Cmd.v
    (Cmd.info "sample" ~doc:"Lemma-7 point-sampling cost measurement.")
    Term.(const run $ u $ p0 $ eps $ trials $ metrics_flag)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let run name n k instance seed out print_metrics =
    let target =
      match name with
      | "disj" | "batched" -> `Solver Batched
      | "naive" -> `Solver Naive
      | "trivial" -> `Solver Trivial
      | other -> (
          match Protocols.Registry.find other with
          | Some e -> `Registry e
          | None ->
              Printf.eprintf
                "trace: unknown protocol %S\n\
                 operational: disj (= batched), naive, trivial\n\
                 registry: %s\n"
                other
                (String.concat ", " (Protocols.Registry.names ()));
              exit 2)
    in
    let oc, close_oc =
      match out with "-" -> (stdout, false) | path -> (open_out path, true)
    in
    let metrics = Obs.Metrics.create () in
    Obs.Metrics.install metrics;
    Obs.Trace.reset ();
    (* Tee the event stream: count events and sum the Broadcast bits on
       the way to the line-JSON sink, so the summary can cross-check the
       trace against the board's own accounting. *)
    let events = ref 0 and event_bits = ref 0 in
    let jsonl = Obs.Sink.jsonl oc in
    let tee =
      Obs.Sink.custom (fun ev ->
          incr events;
          event_bits := !event_bits + Obs.Event.board_bits ev.Obs.Event.payload;
          Obs.Sink.send jsonl ev)
    in
    let label, stats =
      Fun.protect
        ~finally:(fun () ->
          Obs.Metrics.uninstall ();
          Obs.Sink.flush jsonl;
          if close_oc then close_out oc)
        (fun () ->
          Obs.Trace.with_sink tee (fun () ->
              match target with
              | `Solver p ->
                  let rng = Prob.Rng.of_int_seed seed in
                  let inst = make_instance instance rng ~n ~k in
                  let r =
                    match p with
                    | Batched ->
                        (Protocols.Disj_batched.solve inst)
                          .Protocols.Disj_batched.result
                    | Naive -> Protocols.Disj_naive.solve inst
                    | Trivial -> Protocols.Disj_trivial.solve inst
                  in
                  let stats =
                    {
                      Blackboard.Runtime.bits = r.Protocols.Disj_common.bits;
                      messages = r.Protocols.Disj_common.messages;
                      rounds = r.Protocols.Disj_common.cycles;
                    }
                  in
                  Blackboard.Runtime.record_stats stats;
                  let label =
                    List.find (fun (_, q) -> q = p) disj_protocols |> fst
                  in
                  (Printf.sprintf "%s n=%d k=%d" label n k, stats)
              | `Registry e ->
                  let r = Protocols.Registry.run_on_board e ~seed in
                  let stats =
                    Blackboard.Runtime.stats_of_board
                      ~rounds:r.Protocols.Registry.msg_rounds
                      r.Protocols.Registry.board
                  in
                  Blackboard.Runtime.record_stats stats;
                  ( Printf.sprintf "%s (registry, output=%d)"
                      (Protocols.Registry.name e)
                      r.Protocols.Registry.output,
                    stats )))
    in
    let snap = Obs.Metrics.snapshot metrics in
    let counted_bits = Obs.Metrics.counter_value snap "board.bits" in
    let counted_msgs = Obs.Metrics.counter_value snap "board.messages" in
    let consistent =
      counted_bits = stats.Blackboard.Runtime.bits
      && !event_bits = stats.Blackboard.Runtime.bits
      && counted_msgs = stats.Blackboard.Runtime.messages
    in
    Printf.printf
      "traced %s: %d events -> %s\n\
       bits: board=%d metrics=%d trace-events=%d messages=%d rounds=%d\n\
       consistent=%b\n"
      label !events
      (if close_oc then out else "<stdout>")
      stats.Blackboard.Runtime.bits counted_bits !event_bits
      stats.Blackboard.Runtime.messages stats.Blackboard.Runtime.rounds
      consistent;
    if print_metrics then
      print_endline
        (Obs.Jsonw.to_string ~pretty:true (Obs.Metrics.to_json snap));
    if not consistent then exit 3
  in
  let proto_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PROTOCOL"
             ~doc:"Protocol to trace: disj (= batched), naive, trivial, or \
                   any registry name (see $(b,broadcast_cli lint)).")
  in
  let n = Arg.(value & opt int 64 & info [ "n" ] ~doc:"Universe size (operational protocols).") in
  let k = Arg.(value & opt int 8 & info [ "k" ] ~doc:"Players (operational protocols).") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let out =
    Arg.(value & opt string "trace.jsonl"
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Line-JSON output path ('-' for stdout).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a protocol with a line-JSON trace sink and write the \
             event stream.")
    Term.(
      const run $ proto_arg $ n $ k $ instance_arg $ seed $ out $ metrics_flag)

(* ------------------------------------------------------------------ *)
(* or                                                                  *)
(* ------------------------------------------------------------------ *)

let or_cmd =
  let run n k owners seed =
    let rng = Prob.Rng.of_int_seed seed in
    let sets = Array.init k (fun _ -> Array.make n false) in
    let ones = ref 0 in
    for j = 0 to n - 1 do
      if owners > 0 then begin
        incr ones;
        for _ = 1 to owners do
          sets.(Prob.Rng.int rng k).(j) <- true
        done
      end
    done;
    let inst = Protocols.Disj_common.make ~n sets in
    let r = Protocols.Pointwise_or.solve inst in
    let trivial = Protocols.Pointwise_or.solve_trivial inst in
    if r.Protocols.Pointwise_or.output <> Protocols.Pointwise_or.reference inst
    then begin
      prerr_endline "pointwise-OR protocol returned a wrong vector";
      exit 2
    end;
    Printf.printf
      "pointwise-OR n=%d k=%d (%d one-coordinates): %d bits in %d cycles\n" n k
      !ones r.Protocols.Pointwise_or.bits r.Protocols.Pointwise_or.cycles;
    Printf.printf "trivial broadcast: %d bits; model t*lg(k)+k = %.0f\n"
      trivial.Protocols.Pointwise_or.bits
      (Protocols.Pointwise_or.cost_model ~ones:!ones ~k)
  in
  let n = Arg.(value & opt int 4096 & info [ "n" ] ~doc:"Universe size.") in
  let k = Arg.(value & opt int 16 & info [ "k" ] ~doc:"Players.") in
  let owners =
    Arg.(value & opt int 1
         & info [ "owners" ] ~doc:"Random 1-owners per coordinate (0 = all-zero).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "or" ~doc:"Run the batched pointwise-OR protocol.")
    Term.(const run $ n $ k $ owners $ seed)

(* ------------------------------------------------------------------ *)
(* oneshot                                                             *)
(* ------------------------------------------------------------------ *)

let oneshot_cmd =
  let run k =
    let tree = Protocols.And_protocols.sequential k in
    let mu =
      Prob.Dist_exact.iid k
        (Prob.Dist_exact.of_weighted
           [ (0, Exact.Rational.of_ints 1 k);
             (1, Exact.Rational.of_ints (k - 1) k) ])
    in
    let h = Proto.Information.transcript_entropy tree mu in
    let inter =
      Compress.Oneshot.expected_bits_exact ~single_stream:false ~tree ~mu
    in
    let omni =
      Compress.Oneshot.expected_bits_exact ~single_stream:true ~tree ~mu
    in
    Printf.printf "sequential AND_%d under product mu (Pr[0] = 1/k):\n" k;
    Printf.printf "  CC = %d bits; H(T) = IC = %.4f bits\n"
      (Proto.Tree.communication_cost tree) h;
    Printf.printf "  omniscient single-stream coding:   %.3f bits (~ H(T) + O(1))\n" omni;
    Printf.printf "  interactive per-message coding:    %.3f bits (flush tax)\n" inter;
    Printf.printf
      "The interactive coder is a legal protocol but pays O(1)/message;\n";
    Printf.printf
      "the omniscient one reaches the entropy but is not a legal protocol —\n";
    Printf.printf "the Section-6 one-shot gap, operationally.\n"
  in
  let k = Arg.(value & opt int 8 & info [ "k" ] ~doc:"Players (<= ~12).") in
  Cmd.v
    (Cmd.info "oneshot"
       ~doc:"Measure the one-shot entropy-coding gap (E12).")
    Term.(const run $ k)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

(* Exit conventions, as elsewhere in this CLI: 0 = completed (a stall
   under injected faults is a legitimate completed observation),
   1 = a finding (output disagrees with the declared spec, or --check
   caught a sync/async board divergence), 2 = usage, 3 = the run could
   not be driven (schedule bugs: runaway, bad speaker, size mismatch —
   the conditions Engine.run reports as Invalid_argument, surfaced here
   as clean diagnostics for both runtimes). *)
let run_protocol_cmd =
  let module Reg = Protocols.Registry in
  let module Emu = Netsim.Board_emu in
  let run name runtime engine seed net_seed f faults max_writes check
      pipeline metrics =
    let entry = List.hd (resolve_entries "run" [ name ]) in
    let faults =
      match Netsim.Fault.parse faults with
      | Ok p -> p
      | Error e -> usage "run" "%s" e
    in
    (match Netsim.Fault.check faults ~k:(Reg.players entry) with
    | Ok () -> ()
    | Error e -> usage "run" "--faults %s for %s" e name);
    if check && faults <> Netsim.Fault.none then
      usage "run" "--check compares the fault-free emulation; drop --faults";
    if pipeline && runtime <> `Async then
      usage "run" "--pipeline requires --runtime async";
    if faults <> Netsim.Fault.none && runtime <> `Async then
      usage "run" "--faults requires --runtime async";
    if engine = `Compiled && runtime = `Async then
      usage "run" "--engine compiled requires --runtime sync";
    (* The pipelining certificate, when the slot-dependency analysis can
       grant one; without it the emulation runs one slot per wave (a
       warning, not an error — the analysis declining is a legitimate
       result). *)
    let cert =
      if not pipeline then None
      else
        match entry with
        | Reg.Entry e -> (
            let dg =
              Analysis.Depgraph.analyze ~players:e.players ~domain:e.domain
                (Lazy.force e.tree)
            in
            match Protocols.Verify_registry.sched_cert dg with
            | Some c ->
                Printf.printf
                  "pipeline: certificate grants %d slots in %d waves\n"
                  c.Netsim.Hbcheck.slots
                  (Array.length c.Netsim.Hbcheck.waves);
                Some c
            | None ->
                Printf.eprintf
                  "run: no pipelining certificate for %s (analysis %s); \
                   running one slot per wave\n"
                  name
                  (if dg.Analysis.Depgraph.widened then "widened"
                   else "saw misbehaving emit laws");
                None)
    in
    let net_seed = Option.value net_seed ~default:seed in
    let h = Reg.hosted entry ~seed in
    let spec_check board =
      (* 1 = spec violated, 0 = certified or nothing to check against *)
      match h.Reg.output_of board with
      | None ->
          Printf.printf "output: incomplete transcript\n";
          0
      | Some out -> (
          Printf.printf "output: %d\n" out;
          match Reg.spec_output entry ~input_indices:h.Reg.input_indices with
          | None -> 0
          | Some expected when expected = out ->
              Printf.printf "spec: ok (expected %d)\n" expected;
              0
          | Some expected ->
              Printf.printf "spec: MISMATCH (expected %d)\n" expected;
              1)
    in
    (* A hosted value's players hold private-randomness state, so one
       hosted drives one run: --check rebuilds a fresh one (same seed,
       same inputs) for the reference sync run. *)
    let run_sync () =
      let h = Reg.hosted entry ~seed in
      match
        Blackboard.Engine.run_result ~k:h.Reg.k ~schedule:h.Reg.schedule
          ~players:h.Reg.players ~max_writes ()
      with
      | Error e ->
          Printf.eprintf "run: %s\n" (Blackboard.Engine.error_message e);
          exit 3
      | Ok o -> o
    in
    let run_async () =
      let config = { Emu.f; seed = net_seed; faults } in
      match
        Emu.run ~k:h.Reg.k ~schedule:h.Reg.schedule ~players:h.Reg.players
          ~max_writes ?cert ~config ()
      with
      | Error (Emu.Insufficient_honest _ as e) ->
          usage "run" "%s" (Emu.error_message e)
      | Error (Emu.Engine_error _ as e) ->
          Printf.eprintf "run: %s\n" (Emu.error_message e);
          exit 3
      | Ok o -> o
    in
    let print_net_stats (s : Emu.stats) ~board_bits =
      Printf.printf
        "network: %d messages (%d send / %d echo / %d ready), %d wire \
         bits, %d dropped, %d crashed, %d barrier(s)\n"
        s.Emu.net_messages s.Emu.sends s.Emu.echoes s.Emu.readies
        s.Emu.net_bits s.Emu.drops s.Emu.crashed s.Emu.waves;
      if board_bits > 0 then
        Printf.printf "emulation overhead: %.1fx (%d wire / %d board bits)\n"
          (float_of_int s.Emu.net_bits /. float_of_int board_bits)
          s.Emu.net_bits board_bits
    in
    let code =
      with_metrics metrics (fun () ->
          match runtime with
          | `Sync when engine = `Compiled ->
              (* Flat-VM engine: the trace-run path off the compiled
                 bytecode. --check verifies byte-identity against the
                 tree walker on the same seed. *)
              let r = Reg.run_on_board_compiled entry ~seed in
              Printf.printf "%s [compiled] k=%d: %d writes, %d board bits\n"
                name h.Reg.k
                (Blackboard.Board.write_count r.Reg.board)
                (Blackboard.Board.total_bits r.Reg.board);
              Printf.printf "output: %d\n" r.Reg.output;
              let code =
                match
                  Reg.spec_output entry ~input_indices:r.Reg.input_indices
                with
                | None -> 0
                | Some expected when expected = r.Reg.output ->
                    Printf.printf "spec: ok (expected %d)\n" expected;
                    0
                | Some expected ->
                    Printf.printf "spec: MISMATCH (expected %d)\n" expected;
                    1
              in
              if check then begin
                let t = Reg.run_on_board entry ~seed in
                let same =
                  Blackboard.Board.equal r.Reg.board t.Reg.board
                  && r.Reg.output = t.Reg.output
                in
                Printf.printf "byte-identical to tree walker: %b\n" same;
                if same then code else 1
              end
              else code
          | `Sync ->
              let o = run_sync () in
              Printf.printf "%s [sync] k=%d: %d writes, %d board bits\n" name
                h.Reg.k o.Blackboard.Engine.writes
                (Blackboard.Board.total_bits o.Blackboard.Engine.board);
              spec_check o.Blackboard.Engine.board
          | `Async -> (
              match run_async () with
              | Emu.Delivered { board; writes; stats } ->
                  Printf.printf
                    "%s [async] k=%d f=%d faults=%s: %d writes, %d board \
                     bits\n"
                    name h.Reg.k f
                    (match Netsim.Fault.to_string faults with
                    | "" -> "none"
                    | s -> s)
                    writes
                    (Blackboard.Board.total_bits board);
                  print_net_stats stats
                    ~board_bits:(Blackboard.Board.total_bits board);
                  let code = spec_check board in
                  if check then begin
                    let o = run_sync () in
                    let same =
                      Blackboard.Board.equal board o.Blackboard.Engine.board
                    in
                    Printf.printf "byte-identical to sync engine: %b\n" same;
                    if same then code else 1
                  end
                  else code
              | Emu.Stalled { board; delivered_slots; speaker; reason; stats }
                ->
                  Printf.printf
                    "%s [async] k=%d f=%d faults=%s: STALLED at slot %d \
                     (speaker %d, %s); %d slots delivered, %d board bits\n"
                    name h.Reg.k f
                    (Netsim.Fault.to_string faults)
                    delivered_slots speaker
                    (match reason with
                    | Emu.Speaker_crashed -> "speaker crashed"
                    | Emu.No_quorum -> "no quorum")
                    delivered_slots
                    (Blackboard.Board.total_bits board);
                  print_net_stats stats
                    ~board_bits:(Blackboard.Board.total_bits board);
                  0))
    in
    finish code
  in
  let proto_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PROTOCOL"
             ~doc:"Registry protocol to run (see $(b,broadcast_cli lint)).")
  in
  let runtime =
    Arg.(value & opt (enum [ ("sync", `Sync); ("async", `Async) ]) `Sync
         & info [ "runtime" ]
             ~doc:"Substrate: $(b,sync) drives the shared-blackboard \
                   engine; $(b,async) emulates the blackboard over a \
                   faulty asynchronous network with Bracha reliable \
                   broadcast.")
  in
  let engine =
    Arg.(value & opt (enum [ ("tree", `Tree); ("compiled", `Compiled) ]) `Tree
         & info [ "engine" ]
             ~doc:"Evaluator: $(b,tree) walks the protocol tree; \
                   $(b,compiled) executes the flat bit-sliced bytecode \
                   from Proto.Compile (requires $(b,--runtime sync)). \
                   With $(b,--check), the compiled board is verified \
                   byte-identical to the tree walker's.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~doc:"Protocol randomness seed (inputs, coins).")
  in
  let net_seed =
    Arg.(value & opt (some int) None
         & info [ "net-seed" ]
             ~doc:"Network randomness seed (delivery order, drops); \
                   defaults to $(b,--seed). Vary it to replay the same \
                   protocol run under different delivery orders.")
  in
  let f =
    Arg.(value & opt int 1
         & info [ "f" ]
             ~doc:"Fault tolerance the Bracha thresholds assume (needs \
                   k > 3f).")
  in
  let faults =
    Arg.(value & opt string ""
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Fault plan: comma-separated $(b,crash:P), \
                   $(b,crash:P@S), $(b,drop:F), $(b,delay:J) with \
                   J at most 2^30, $(b,equiv:P). Requires \
                   $(b,--runtime async).")
  in
  let max_writes =
    Arg.(value & opt int 1_000_000
         & info [ "max-writes" ]
             ~doc:"Runaway protection: abort (exit 3) past this many \
                   scheduled writes.")
  in
  let chk =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"After an async run, also drive the sync engine and \
                   verify the delivered board is byte-identical (exit 1 \
                   if not; fault-free only). With $(b,--engine compiled), \
                   compare the compiled board against the tree walker \
                   instead.")
  in
  let pipeline =
    Arg.(value & flag
         & info [ "pipeline" ]
             ~doc:"Run the async emulation in pipelined mode: all RBC \
                   instances of a certificate wave go in flight \
                   concurrently, with network barriers only between waves. \
                   The certificate comes from the slot-dependency analysis \
                   (see $(b,broadcast_cli analyze)); without this flag, or \
                   with a warning when the analysis withholds the \
                   certificate, the run goes one slot per wave. Requires \
                   $(b,--runtime async).")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a registry protocol on the sync engine or the \
             asynchronous faulty-broadcast emulation.")
    Term.(
      const run $ proto_arg $ runtime $ engine $ seed $ net_seed $ f $ faults
      $ max_writes $ chk $ pipeline $ metrics_flag)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let module Reg = Protocols.Registry in
  let module An = Analysis.Analyzer in
  let module Rep = Analysis.Report in
  let lint_entry ~budget ~only_rules ~ignore_rules
      (Reg.Entry { players; declared_cost; domain; tree; _ }) =
    let tree = Lazy.force tree in
    let report =
      An.analyze ~players ?declared_cost ?state_budget:budget ~domain tree
    in
    let keep d =
      (only_rules = [] || List.mem d.Rep.rule only_rules)
      && not (List.mem d.Rep.rule ignore_rules)
    in
    let report = Rep.of_list (List.filter keep (Rep.to_list report)) in
    (Proto.Tree.communication_cost tree, report)
  in
  let status_of report =
    if Rep.count_severity Rep.Error report > 0 then "FAIL"
    else if Rep.count_severity Rep.Warning report > 0 then "warn"
    else "ok"
  in
  let json_of_results ~strict results =
    let open Obs.Jsonw in
    obj
      [
        ("schema", String "broadcast-ic/lint/v1");
        ("version", String Core.version);
        ("strict", Bool strict);
        ( "protocols",
          list
            (List.map
               (fun (e, (cc, report)) ->
                 obj
                   [
                     ("name", String (Reg.name e));
                     ("players", Int (Reg.players e));
                     ("cc", Int cc);
                     ("errors", Int (Rep.count_severity Rep.Error report));
                     ("warnings", Int (Rep.count_severity Rep.Warning report));
                     ("status", String (status_of report));
                     (* One diagnostic schema for lint and verify. *)
                     ("diagnostics", Rep.to_json report);
                   ])
               results) );
      ]
  in
  let run strict budget json only_rules ignore_rules jobs protocols =
    check_budget "lint" budget;
    let entries = resolve_entries "lint" protocols in
    let results =
      Par.parallel_map ?domains:jobs
        (fun e -> (e, lint_entry ~budget ~only_rules ~ignore_rules e))
        entries
    in
    if json then
      print_endline
        (Obs.Jsonw.to_string ~pretty:true (json_of_results ~strict results))
    else begin
      Printf.printf "%-28s %7s %4s %6s %5s  %s\n" "protocol" "players" "CC"
        "errors" "warns" "status";
      List.iter
        (fun (e, (cc, report)) ->
          Printf.printf "%-28s %7d %4d %6d %5d  %s\n" (Reg.name e)
            (Reg.players e) cc
            (Rep.count_severity Rep.Error report)
            (Rep.count_severity Rep.Warning report)
            (status_of report))
        results;
      let dirty =
        List.filter (fun (_, (_, r)) -> not (Rep.is_clean r)) results
      in
      List.iter
        (fun (e, (_, report)) ->
          Printf.printf "\n%s:\n" (Reg.name e);
          List.iter
            (fun d -> Format.printf "  %a@." Rep.pp_diagnostic d)
            (Rep.sorted report))
        dirty
    end;
    finish
      (List.fold_left
         (fun acc (_, (_, r)) -> max acc (Rep.exit_code ~strict r))
         0 results)
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Fail on warnings as well as errors.")
  in
  let budget =
    Arg.(value & opt (some int) None
         & info [ "budget" ]
             ~doc:"State-space node budget for the exact-semantics estimate.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the report as structured JSON instead of a table.")
  in
  (* Rule ids are a closed vocabulary: unknown ones are a usage error
     caught by Cmdliner's enum converter, not a silent no-op filter. *)
  let rule_conv =
    Arg.enum (List.map (fun id -> (id, id)) Analysis.Rules.all_ids)
  in
  let only_rules =
    Arg.(value & opt_all rule_conv []
         & info [ "only" ] ~docv:"RULE"
             ~doc:(Printf.sprintf
                     "Keep only diagnostics from $(docv) (repeatable), one \
                      of %s."
                     (Arg.doc_alts Analysis.Rules.all_ids)))
  in
  let ignore_rules =
    Arg.(value & opt_all rule_conv []
         & info [ "ignore" ] ~docv:"RULE"
             ~doc:"Drop diagnostics from $(docv) (repeatable); same \
                   vocabulary as $(b,--only).")
  in
  let protocols =
    Arg.(value & pos_all string []
         & info [] ~docv:"PROTOCOL" ~doc:"Lint only the named protocols.")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Domains for the sweep (default: autodetect; 1 forces \
                   the sequential loop).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze every registered protocol tree.")
    Term.(
      const run $ strict $ budget $ json $ only_rules $ ignore_rules $ jobs
      $ protocols)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let module Reg = Protocols.Registry in
  let module Dg = Analysis.Depgraph in
  let run deps json budget protocols =
    check_budget "analyze" budget;
    let entries = resolve_entries "analyze" protocols in
    let analyzed =
      List.map
        (fun (Reg.Entry e as entry) ->
          ( entry,
            Dg.analyze ?budget ~players:e.players ~domain:e.domain
              (Lazy.force e.tree) ))
        entries
    in
    if json then
      print_endline
        (Obs.Jsonw.to_string ~pretty:true
           (Obs.Jsonw.obj
              [
                ("schema", Obs.Jsonw.String "broadcast-ic/analyze/v1");
                ("version", Obs.Jsonw.String Core.version);
                ( "protocols",
                  Obs.Jsonw.list
                    (List.map
                       (fun (e, dg) ->
                         Obs.Jsonw.obj
                           [
                             ("name", Obs.Jsonw.String (Reg.name e));
                             ("depgraph", Dg.to_json dg);
                           ])
                       analyzed) );
              ]))
    else begin
      Printf.printf "%-28s %7s %5s %5s %9s  %s\n" "protocol" "players" "slots"
        "waves" "certified" "shape";
      List.iter
        (fun (e, dg) ->
          Printf.printf "%-28s %7d %5d %5d %9b  %s\n" (Reg.name e)
            (Reg.players e) dg.Dg.slots (Dg.wave_count dg)
            (Dg.certificate dg <> None)
            (if dg.Dg.widened then "widened"
             else if dg.Dg.law_failures > 0 then "law failures"
             else if dg.Dg.slots = 0 then "leaf"
             else if Dg.wave_count dg = 1 then "fully parallel"
             else if Dg.wave_count dg = dg.Dg.slots then "fully sequential"
             else "pipelined"))
        analyzed;
      if deps then
        List.iter
          (fun (e, dg) ->
            Format.printf "@.%s:@.%a@." (Reg.name e) Dg.pp dg)
          analyzed
    end
  in
  let deps =
    Arg.(value & flag
         & info [ "deps" ]
             ~doc:"Also print the per-slot dependency table: wave index, \
                   possible speakers, read-set, output relevance.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the full analysis (schema broadcast-ic/depgraph/v1 \
                   per protocol) as JSON instead of a table.")
  in
  let budget =
    Arg.(value & opt (some int) None
         & info [ "budget" ]
             ~doc:"Node budget for the exact-reachability walk; past it the \
                   analysis widens and withholds the pipelining certificate.")
  in
  let protocols =
    Arg.(value & pos_all string []
         & info [] ~docv:"PROTOCOL" ~doc:"Analyze only the named protocols.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Slot-dependency analysis: read-sets, happens-before DAG, and \
             pipelining certificates."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Computes, for every registered protocol tree, which earlier \
              broadcast slots each slot depends on (speaker identity, \
              message laws, slot existence, or the output), using the same \
              exact input-rectangle reachability as proto-lint — \
              proven-dead dependencies are pruned. The derived wave \
              partition is the pipelining certificate consumed by \
              $(b,broadcast_cli run --runtime async --pipeline): all slots \
              of a wave go in flight concurrently, with network barriers \
              only between waves.";
           `P
             "Exit status: 0 on success (including widened or uncertified \
              analyses — those are results, not errors); 2 on usage errors.";
         ])
    Term.(const run $ deps $ json $ budget $ protocols)

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let module Reg = Protocols.Registry in
  let module V = Protocols.Verify_registry in
  let module Rep = Analysis.Report in
  let module Ab = Analysis.Absint in
  let run budget seed baseline ic sched json out jobs protocols metrics =
    check_budget "verify" budget;
    let entries = resolve_entries "verify" protocols in
    let baseline =
      match baseline with
      | None -> V.empty_baseline
      | Some path -> (
          match V.load_baseline path with
          | Ok b -> b
          | Error e -> usage "verify" "cannot load baseline: %s" e)
    in
    let results =
      with_metrics metrics (fun () ->
          Par.parallel_map ?domains:jobs
            (fun e ->
              V.verify_entry ?budget ~seed ~baseline ~ic ~sched
                ~ic_engine:(fun ~zero_error_spec flow ->
                  Lowerbound.Discrepancy.engine ~zero_error_spec flow)
                e)
            entries)
    in
    let code = V.exit_code results in
    if json then begin
      (* Line-JSON: a header, one object per entry, a summary — the
         shape CI archives and scripts stream. *)
      let oc, close_oc =
        match out with "-" -> (stdout, false) | path -> (open_out path, true)
      in
      let line j =
        Obs.Jsonw.to_channel oc j;
        output_char oc '\n'
      in
      line
        (Obs.Jsonw.obj
           [
             ("schema", Obs.Jsonw.String "broadcast-ic/verify/v1");
             ("version", Obs.Jsonw.String Core.version);
             ("seed", Obs.Jsonw.Int seed);
           ]);
      List.iter (fun r -> line (V.result_to_json r)) results;
      let count label p =
        (label, Obs.Jsonw.Int (List.length (List.filter p results)))
      in
      let outcome_is l r = V.outcome_label r.V.outcome = l in
      let ic_counts =
        if not ic then []
        else
          [
            count "ic_certified" (fun r ->
                match r.V.ic with
                | Some (Analysis.Certify.Ic_certified _) -> true
                | _ -> false);
            count "ic_inconclusive" (fun r ->
                match r.V.ic with
                | Some (Analysis.Certify.Ic_inconclusive _) -> true
                | _ -> false);
          ]
      in
      let sched_counts =
        if not sched then []
        else
          [
            count "sched_certified" (fun r ->
                match r.V.sched with
                | Some s ->
                    Analysis.Depgraph.certificate s.V.depgraph <> None
                | None -> false);
            count "sched_identical" (fun r ->
                match r.V.sched with
                | Some { V.pipelined_identical = Some true; _ } -> true
                | _ -> false);
          ]
      in
      line
        (Obs.Jsonw.obj
           ([
              ("summary", Obs.Jsonw.Bool true);
              count "certified" (outcome_is "certified");
              count "refuted" (outcome_is "refuted");
              count "inconclusive" (outcome_is "inconclusive");
              count "no_spec" (outcome_is "no-spec");
            ]
           @ ic_counts @ sched_counts
           @ [
               ( "suppressed",
                 Obs.Jsonw.Int
                   (List.fold_left (fun a r -> a + r.V.suppressed) 0 results)
               );
               ("exit", Obs.Jsonw.Int code);
             ]));
      if close_oc then close_out oc
      else flush oc
    end
    else begin
      Printf.printf "%-28s %7s %9s %4s %8s %9s  %s\n" "protocol" "players"
        "certified" "CC" "observed" "profiles" "outcome";
      List.iter
        (fun r ->
          let (Reg.Entry e) = r.V.entry in
          Printf.printf "%-28s %7d %9s %4d %8d %9d  %s\n" e.name e.players
            (Ab.interval_to_string r.V.summary.Ab.cost)
            r.V.static_cc r.V.observed_bits r.V.checked_profiles
            (V.outcome_label r.V.outcome))
        results;
      if ic then begin
        Printf.printf "\n%-28s %22s %22s  %s\n" "protocol" "IC_ext [lo, hi]"
          "IC_int [lo, hi]" "engines";
        List.iter
          (fun r ->
            let (Reg.Entry e) = r.V.entry in
            match r.V.ic with
            | Some (Analysis.Certify.Ic_certified c) ->
                Printf.printf "%-28s %22s %22s  %s\n" e.name
                  (Analysis.Infoflow.bound_to_string
                     c.Analysis.Certify.ic_external)
                  (Analysis.Infoflow.bound_to_string
                     c.Analysis.Certify.ic_internal)
                  (String.concat ", "
                     (List.map fst c.Analysis.Certify.lower_bounds))
            | Some (Analysis.Certify.Ic_inconclusive { reason; _ }) ->
                Printf.printf "%-28s  inconclusive: %s\n" e.name reason
            | None -> ())
          results
      end;
      if sched then begin
        Printf.printf "\n%-28s %5s %5s %9s  %s\n" "protocol" "slots" "waves"
          "certified" "pipelined run";
        List.iter
          (fun r ->
            let (Reg.Entry e) = r.V.entry in
            match r.V.sched with
            | Some s ->
                let dg = s.V.depgraph in
                Printf.printf "%-28s %5d %5d %9b  %s\n" e.name
                  dg.Analysis.Depgraph.slots
                  (Analysis.Depgraph.wave_count dg)
                  (Analysis.Depgraph.certificate dg <> None)
                  (match (s.V.pipelined_identical, s.V.race) with
                  | _, Some m -> "RACE: " ^ m
                  | Some true, None -> "byte-identical"
                  | Some false, None -> "DIVERGED"
                  | None, None -> "not attempted (no certificate)")
            | None -> ())
          results
      end;
      List.iter
        (fun r ->
          let interesting =
            List.filter
              (fun d -> d.Rep.severity <> Rep.Info)
              (Rep.sorted r.V.report)
          in
          if interesting <> [] then begin
            let (Reg.Entry e) = r.V.entry in
            Printf.printf "\n%s:\n" e.name;
            List.iter
              (fun d -> Format.printf "  %a@." Rep.pp_diagnostic d)
              interesting
          end)
        results
    end;
    finish code
  in
  let budget =
    Arg.(value & opt (some int) None
         & info [ "budget" ]
             ~doc:"Abstract-interpretation node and spec-evaluation budget \
                   (past it, subtrees widen and certification is \
                   inconclusive).")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ]
             ~doc:"PRNG seed of the differential blackboard run.")
  in
  let baseline =
    Arg.(value & opt (some file) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Suppression file (schema broadcast-ic/verify-baseline/v1): \
                   findings matching a (protocol, rule) pair are demoted to \
                   info severity and stop gating the exit code.")
  in
  let ic =
    Arg.(value & flag
         & info [ "ic" ]
             ~doc:"Additionally certify a sound rational $(b,[lo, hi]) \
                   bracket of each protocol's external and internal \
                   information cost under the uniform product distribution \
                   (static analysis; no execution, no floats), folding in \
                   the Braverman-Weinstein discrepancy lower-bound engine \
                   for entries whose spec is certified zero-error. Findings \
                   ride the same severity and baseline machinery; the exit \
                   contract is unchanged.")
  in
  let sched =
    Arg.(value & flag
         & info [ "sched" ]
             ~doc:"Additionally run the slot-dependency analysis per entry \
                   and, when it grants a pipelining certificate, a \
                   fault-free pipelined async run differenced byte-for-byte \
                   against the sync engine with the happens-before race \
                   oracle armed. Divergence or a race is an error; a \
                   withheld certificate is a warning. Findings ride the \
                   same severity and baseline machinery.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit line-JSON (header, one object per protocol, summary) \
                   instead of a table.")
  in
  let out =
    Arg.(value & opt string "-"
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Line-JSON output path with $(b,--json) ('-' for stdout).")
  in
  let protocols =
    Arg.(value & pos_all string []
         & info [] ~docv:"PROTOCOL" ~doc:"Verify only the named protocols.")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Domains for the sweep (default: autodetect; 1 forces \
                   the sequential loop). Results are identical either way.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Certify registered protocol trees by abstract interpretation."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the proto-verify engine over the registry: certifies an \
              exact $(b,[min, max]) reachable bit-cost interval per \
              protocol, cross-checks it against the structural \
              communication cost, the declared paper bound, and an \
              executed blackboard run, and — for deterministic protocols \
              with a declared reference spec — produces a zero-error \
              correctness certificate or a concrete counterexample input.";
           `P
             "Exit status: 0 when everything is certified, 1 on any \
              refutation or cross-check failure, 3 when the worst finding \
              is an inconclusive certification (2 remains the usage-error \
              convention).";
         ])
    Term.(
      const run $ budget $ seed $ baseline $ ic $ sched $ json $ out $ jobs
      $ protocols $ metrics_flag)

let () =
  let doc = "Braverman-Oshman broadcast-model information complexity toolkit" in
  let info = Cmd.info "broadcast_cli" ~version:Core.version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ disj_cmd; info_cmd; compress_cmd; sample_cmd; trace_cmd; or_cmd;
            oneshot_cmd; run_protocol_cmd; lint_cmd; analyze_cmd; verify_cmd ]))
