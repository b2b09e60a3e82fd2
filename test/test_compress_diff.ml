(** Differential suite: the flat-column point sampler and the
    shared-state Theorem-3 round loop against the reference versions in
    [Compress_ref]. Every field must be equal (floats by their bits),
    and so must the written bits, the traced events and the metrics. *)

module PS = Compress.Point_sampler
module Am = Compress.Amortized
module Ref = Compress_ref
module T = Proto.Tree
module D = Prob.Dist_exact
module R = Exact.Rational
module M = Obs.Metrics
module AP = Protocols.And_protocols
open Test_util

let seed_gen = QCheck.int_bound 1_000_000
let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* [f] under a fresh memory sink and metrics registry: its outcome, the
   traced payloads and the metrics snapshot as JSON. *)
let observed f =
  let sink = Obs.Sink.memory ~capacity:100_000 in
  let m = M.create () in
  M.install m;
  Fun.protect
    ~finally:(fun () -> M.uninstall ())
    (fun () ->
      let r = Obs.Trace.with_sink sink (fun () -> outcome f) in
      ( r,
        List.map (fun e -> e.Obs.Event.payload) (Obs.Sink.events sink),
        Obs.Jsonw.to_string (M.to_json (M.snapshot m)) ))

(* --- Lemma 7, one transmission --- *)

(* A random law over [u] symbols with [zeros] of them given no mass; a
   [skew] spreads the weights over several orders of magnitude. *)
let random_law rng u ~zeros ~skew =
  let w =
    Array.init u (fun _ ->
        if Prob.Rng.float rng < zeros then 0.
        else if skew then Float.pow 2. (-.Prob.Rng.float rng *. 30.)
        else Prob.Rng.float rng +. 0.01)
  in
  if Array.for_all (fun x -> x = 0.) w then w.(Prob.Rng.int rng u) <- 1.;
  let total = Array.fold_left ( +. ) 0. w in
  Array.map (fun x -> x /. total) w

let sampler_case seed =
  let rng = Prob.Rng.of_int_seed seed in
  let u =
    match Prob.Rng.int rng 4 with
    | 0 -> 1 + Prob.Rng.int rng 4
    | 1 -> 1 + Prob.Rng.int rng 64
    | _ -> 1 + Prob.Rng.int rng 4096
  in
  let eta = random_law rng u ~zeros:0.3 ~skew:(Prob.Rng.bool rng) in
  (* [nu] is positive wherever [eta] is. One that weighs a quarter of
     [eta]'s symbols up eightfold puts about a third of [eta]'s mass on
     the symbols with [s < 0]. *)
  let nu =
    match Prob.Rng.int rng 3 with
    | 0 ->
        let w =
          Array.map (fun e -> if Prob.Rng.int rng 4 = 0 then 8. *. e else e) eta
        in
        let total = Array.fold_left ( +. ) 0. w in
        Array.map (fun x -> x /. total) w
    | 1 ->
        let law = random_law rng u ~zeros:0. ~skew:(Prob.Rng.bool rng) in
        Array.map2 (fun e n -> if e > 0. then n else 0.) eta law
    | _ -> random_law rng u ~zeros:0. ~skew:(Prob.Rng.bool rng)
  in
  let max_blocks =
    if Prob.Rng.bool rng then Some (Prob.Rng.int rng 3) else None
  in
  let eps = [| 0.5; 0.1; 0.01 |].(Prob.Rng.int rng 3) in
  (Prob.Rng.split rng, eta, nu, max_blocks, eps)

let bits_of w =
  Coding.Bitvec.to_string
    (Coding.Bitbuf.Writer.extract w ~pos:0 ~len:(Coding.Bitbuf.Writer.length w))

let prop_transmit_equal =
  qtest "transmit: same bits and fields as the reference" ~count:300
    seed_gen (fun seed ->
      let round, eta, nu, max_blocks, eps = sampler_case seed in
      let run transmit =
        let w = Coding.Bitbuf.Writer.create () in
        let obs =
          observed (fun () -> transmit (Prob.Rng.copy round) eta nu w)
        in
        (obs, bits_of w)
      in
      let (got, got_events, got_metrics), got_bits =
        run (fun rng eta nu w ->
            let r = PS.transmit ~rng ~eta ~nu ~eps ?max_blocks w in
            (r.PS.sent, r.PS.bits, r.PS.aborted, r.PS.block, r.PS.log_ratio))
      in
      let (want, want_events, want_metrics), want_bits =
        run (fun rng eta nu w ->
            let r = Ref.transmit ~rng ~eta ~nu ~eps ?max_blocks w in
            (r.Ref.sent, r.Ref.bits, r.Ref.aborted, r.Ref.block, r.Ref.log_ratio))
      in
      got = want && got_bits = want_bits && got_events = want_events
      && got_metrics = want_metrics)

(* The generated cases reach the abort path and a negative [s]. *)
let t_sampler_cases_cover () =
  let aborts = ref 0 and negative = ref 0 in
  for seed = 0 to 299 do
    let round, eta, nu, max_blocks, eps = sampler_case seed in
    let r =
      PS.transmit ~rng:round ~eta ~nu ~eps ?max_blocks
        (Coding.Bitbuf.Writer.create ())
    in
    if r.PS.aborted then incr aborts;
    if r.PS.log_ratio < 0 then incr negative
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d aborts, %d negative s" !aborts !negative)
    true
    (!aborts > 10 && !negative > 10)

let prop_decode_equal =
  qtest "decode: same symbol as the reference" ~count:300 seed_gen
    (fun seed ->
      let round, eta, nu, max_blocks, eps = sampler_case seed in
      let u = Array.length eta in
      let max_blocks =
        Option.value max_blocks ~default:(PS.default_max_blocks eps)
      in
      let w = Coding.Bitbuf.Writer.create () in
      match
        outcome (fun () ->
            PS.transmit ~rng:(Prob.Rng.copy round) ~eta ~nu ~max_blocks w)
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok sent ->
          let decode f = outcome (fun () -> f (Coding.Bitbuf.Reader.of_writer w)) in
          let got =
            decode (PS.decode ~rng:(Prob.Rng.copy round) ~nu ~u ~max_blocks)
          in
          let want =
            decode (Ref.decode ~rng:(Prob.Rng.copy round) ~nu ~u ~max_blocks)
          in
          got = want && got = Ok sent.PS.sent)

(* A corrupt rank must be refused by both decoders alike. *)
let prop_decode_corrupt_equal =
  qtest "decode: same outcome on corrupt bits" ~count:200 seed_gen
    (fun seed ->
      let rng = Prob.Rng.of_int_seed seed in
      let u = 1 + Prob.Rng.int rng 300 in
      let nu = random_law rng u ~zeros:0. ~skew:(Prob.Rng.bool rng) in
      let w = Coding.Bitbuf.Writer.create () in
      for _ = 1 to 40 do
        Coding.Bitbuf.Writer.add_bit w (Prob.Rng.bool rng)
      done;
      let round = Prob.Rng.split rng in
      let decode f =
        outcome (fun () ->
            f ~rng:(Prob.Rng.copy round) ~nu ~u ~max_blocks:3
              (Coding.Bitbuf.Reader.of_writer w))
      in
      decode PS.decode = decode Ref.decode)

(* A height equal to the scaled prior lies outside P'. The first point
   of the block is accepted at s = 0 (eta and nu both 1 there), and
   every other symbol's prior is set to the height of one of its points,
   so those points sit exactly on the boundary. *)
let t_boundary_heights () =
  let u = 4 in
  for seed = 1 to 50 do
    let round = Prob.Rng.split (Prob.Rng.of_int_seed seed) in
    let stream = Prob.Rng.copy round in
    let points =
      Array.init u (fun _ ->
          let x = Prob.Rng.int stream u in
          (x, Prob.Rng.float stream))
    in
    let x0 = fst points.(0) in
    let eta = Array.init u (fun x -> if x = x0 then 1. else 0.) in
    let nu = Array.make u 0.5 in
    nu.(x0) <- 1.;
    Array.iter (fun (x, p) -> if x <> x0 then nu.(x) <- p) points;
    let run transmit decode =
      let w = Coding.Bitbuf.Writer.create () in
      let sent = transmit ~rng:(Prob.Rng.copy round) ~eta ~nu w in
      let decoded =
        decode ~rng:(Prob.Rng.copy round) ~nu ~u
          ~max_blocks:(PS.default_max_blocks 0.01)
          (Coding.Bitbuf.Reader.of_writer w)
      in
      (sent, decoded, bits_of w)
    in
    let got =
      run
        (fun ~rng ~eta ~nu w -> (PS.transmit ~rng ~eta ~nu w).PS.sent)
        PS.decode
    in
    let want =
      run
        (fun ~rng ~eta ~nu w -> (Ref.transmit ~rng ~eta ~nu w).Ref.sent)
        Ref.decode
    in
    if got <> want then Alcotest.failf "seed %d: differs from the reference" seed
  done

(* --- Theorem 3, whole runs --- *)

let same_run (a : Am.run) (b : Am.run) =
  a.Am.copies = b.Am.copies
  && a.Am.total_bits = b.Am.total_bits
  && Int64.equal
       (Int64.bits_of_float a.Am.per_copy_bits)
       (Int64.bits_of_float b.Am.per_copy_bits)
  && a.Am.rounds = b.Am.rounds
  && a.Am.transmissions = b.Am.transmissions
  && a.Am.aborted = b.Am.aborted
  && a.Am.outputs = b.Am.outputs
  && a.Am.agreed = b.Am.agreed

let same_outcome a b =
  match (a, b) with
  | Ok a, Ok b -> same_run a b
  | Error a, Error b -> String.equal a b
  | _ -> false

(* Both compressors against their references on one instance, under a
   trace sink and a metrics registry. *)
let runs_equal ?(literal = true) ~seed ~tree ~mu ~inputs () =
  let check compress reference =
    let got, got_events, got_metrics = observed compress in
    let want, want_events, want_metrics = observed reference in
    same_outcome got want && got_events = want_events
    && got_metrics = want_metrics
  in
  ((not literal)
  || check
       (fun () -> Am.compress_parallel ~seed ~tree ~mu ~inputs ())
       (fun () -> Ref.compress_parallel ~seed ~tree ~mu ~inputs ()))
  && check
       (fun () -> Am.compress_parallel_factored ~seed ~tree ~mu ~inputs ())
       (fun () -> Ref.compress_parallel_factored ~seed ~tree ~mu ~inputs ())

let uniform_bits k = D.uniform (Proto.Semantics.all_bit_inputs k)

let prop_random_trees =
  qtest "random trees with chance nodes: runs equal the reference" ~count:60
    seed_gen (fun seed ->
      let rng = Prob.Rng.of_int_seed seed in
      let k = 3 in
      let tree =
        Test_random_trees.random_tree ~rng ~k ~depth:(2 + Prob.Rng.int rng 3)
      in
      let mu =
        if Prob.Rng.bool rng then uniform_bits k
        else Protocols.Hard_dist.mu_and ~k
      in
      let literal_copies = 1 + Prob.Rng.int rng 6 in
      let run_seed = Prob.Rng.int rng 1_000_000 in
      runs_equal ~seed:run_seed ~tree ~mu
        ~inputs:(Am.draw_inputs ~seed:run_seed ~mu ~copies:literal_copies)
        ()
      && runs_equal ~literal:false ~seed:run_seed ~tree ~mu
           ~inputs:
             (Am.draw_inputs ~seed:run_seed ~mu
                ~copies:(1 + Prob.Rng.int rng 200))
           ())

let and_families k =
  [| AP.sequential k; AP.broadcast_all k;
     AP.noisy_sequential ~k ~noise:(R.of_ints 1 10) |]

let prop_and_families =
  qtest "AND families at 1-16 copies: runs equal the reference" ~count:40
    seed_gen (fun seed ->
      let rng = Prob.Rng.of_int_seed seed in
      let k = 2 + Prob.Rng.int rng 3 in
      let families = and_families k in
      let tree = families.(Prob.Rng.int rng (Array.length families)) in
      let mu =
        if Prob.Rng.bool rng then uniform_bits k
        else Protocols.Hard_dist.mu_and ~k
      in
      let copies = 1 + Prob.Rng.int rng 16 in
      let run_seed = 1 + Prob.Rng.int rng 1_000_000 in
      runs_equal ~seed:run_seed ~tree ~mu
        ~inputs:(Am.draw_inputs ~seed:run_seed ~mu ~copies)
        ())

(* Two transcripts reach one physical node: player 1's node [shared]
   follows either of player 0's messages. The inputs are correlated, so
   the observer's prior at [shared] differs between the two transcripts
   (3/4 against 1/4 on x1 = x0): a state keyed by the node would give
   one of them the other's posterior. *)
let shared_dag () =
  let shared =
    T.speak_det ~speaker:1 ~f:(fun b -> b) [| T.output 0; T.output 1 |]
  in
  let tree = T.speak_det ~speaker:0 ~f:(fun b -> b) [| shared; shared |] in
  let mu =
    D.of_weighted
      [ ([| 0; 0 |], R.of_ints 3 8); ([| 1; 1 |], R.of_ints 3 8);
        ([| 0; 1 |], R.of_ints 1 8); ([| 1; 0 |], R.of_ints 1 8) ]
  in
  (tree, mu)

let prop_shared_dag =
  qtest "DAG with a shared node: runs equal the reference" ~count:40
    seed_gen (fun seed ->
      let tree, mu = shared_dag () in
      let rng = Prob.Rng.of_int_seed seed in
      let copies = 1 + Prob.Rng.int rng 10 in
      runs_equal ~seed ~tree ~mu
        ~inputs:(Am.draw_inputs ~seed ~mu ~copies)
        ()
      && runs_equal ~literal:false ~seed ~tree ~mu
           ~inputs:(Am.draw_inputs ~seed ~mu ~copies:(copies * 40))
           ())

(* Observer states are keyed by transcript: from one root, player 0's
   two messages lead to [shared] under priors 3/4 and 1/4 on x1 = 0,
   and a message already taken returns the state built for it. *)
let t_shared_dag_priors () =
  let module O = Compress.Observer in
  let tree, mu = shared_dag () in
  let root = O.create tree mu in
  let prior m =
    match O.speak_view (O.advance_msg root m) with
    | Some (1, 2, nu) -> nu.(0)
    | _ -> Alcotest.fail "player 1 speaks at the shared node"
  in
  check_close ~msg:"after message 0" 0.75 (prior 0);
  check_close ~msg:"after message 1" 0.25 (prior 1);
  Alcotest.(check bool) "successor reused" true
    (O.advance_msg root 0 == O.advance_msg root 0)

let t_refusals_equal () =
  (* too many copies for a literal universe, and no copies at all *)
  let tree = AP.sequential 3 and mu = Protocols.Hard_dist.mu_and ~k:3 in
  List.iter
    (fun copies ->
      let inputs = Am.draw_inputs ~seed:1 ~mu ~copies in
      let got = outcome (fun () -> Am.compress_parallel ~seed:1 ~tree ~mu ~inputs ()) in
      let want =
        outcome (fun () -> Ref.compress_parallel ~seed:1 ~tree ~mu ~inputs ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d copies: same outcome" copies)
        true (same_outcome got want))
    [ 0; 21 ]

let suite =
  [
    prop_transmit_equal;
    quick "sampler cases cover abort and negative s" t_sampler_cases_cover;
    prop_decode_equal;
    prop_decode_corrupt_equal;
    quick "heights on the P' boundary" t_boundary_heights;
    prop_random_trees;
    prop_and_families;
    prop_shared_dag;
    quick "shared DAG node: two posteriors" t_shared_dag_priors;
    quick "refusals match the reference" t_refusals_equal;
  ]
