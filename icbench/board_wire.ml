(* board-wire: operations that put real bits on a board.

   [broadcast_cli disj]-style solves run the batched (Section 5),
   naive and trivial protocols on hard single-zero instances and on
   intersecting instances, on both sides of the k^2 phase switch:
   with n >> k^2 the batched protocol spends its time in the subset
   codec, with n <= k^2 it skips the batch phase. [broadcast_cli
   compress]-style runs call the literal Theorem-3 compressor with at most
   16 copies and the factored one with hundreds, on sequential
   AND_4 and noisy AND_3. *)

module R = Exact.Rational
module DC = Protocols.Disj_common
module HD = Protocols.Hard_dist
module AP = Protocols.And_protocols
module Am = Compress.Amortized

let batched = Span.id "protocols.disj_batched.solve"
let naive = Span.id "protocols.disj_naive.solve"
let trivial = Span.id "protocols.disj_trivial.solve"
let literal = Span.id "compress.amortized.compress_parallel"
let factored = Span.id "compress.amortized.compress_parallel_factored"

let spans = List.map Span.name [ batched; naive; trivial; literal; factored ]

type proto = Batched | Naive | Trivial
type family = Seq4 | Noisy3
type side = Wide | Narrow

type slot =
  | Solve of proto * side * [ `Single_zero | `Intersecting ]
  | Literal of family * int  (* copies *)
  | Factored of family * int

let both p side =
  [ Solve (p, side, `Single_zero); Solve (p, side, `Intersecting) ]

(* One round of 28 slots, laid out so that the percentile ranks fall
   inside a group of similar-cost operations: the median inside the six
   naive solves at n >> k^2 (ranks 11-16, below them ten cheaper
   operations), p90 inside the four 16-copy literal compressions (the
   top four). The batched solves at n >> k^2 run at n = 8192, below
   them: their latency swings the most with the machine's speed
   (IQR/median 0.20-0.23 over ten runs at n = 16384, against 0.06-0.12
   for the 16-copy compressions), so they should not set p90. *)
let round_slots =
  List.concat
    [ both Batched Wide; both Batched Wide;
      both Naive Wide; both Naive Wide; both Naive Wide; both Trivial Wide;
      both Batched Narrow; both Naive Narrow; both Trivial Narrow;
      [ Literal (Seq4, 16); Literal (Noisy3, 16);
        Literal (Seq4, 16); Literal (Noisy3, 16);
        Literal (Seq4, 12); Literal (Noisy3, 12);
        Factored (Seq4, 512); Factored (Noisy3, 512);
        Factored (Seq4, 1024); Factored (Noisy3, 1024) ] ]

let smoke_slots =
  List.concat
    [ both Batched Wide; both Naive Wide; both Trivial Narrow;
      both Batched Narrow;
      [ Literal (Seq4, 6); Literal (Noisy3, 6);
        Factored (Seq4, 32); Factored (Noisy3, 32) ] ]

(* (n, k) on each side of the phase switch at n = k^2. At n >> k^2 the
   batched solve runs at half the others' n, so that it stays below the
   16-copy compressions (see [round_slots]). *)
let sizes ~smoke proto = function
  | Wide when smoke -> (1024, 8)
  | Wide -> ((match proto with Batched -> 8192 | Naive | Trivial -> 16384), 16)
  | Narrow -> if smoke then (256, 32) else (4096, 128)

let class_of = function
  | Solve (Batched, Wide, _) -> "batched-wide"
  | Solve (Batched, Narrow, _) -> "batched-narrow"
  | Solve ((Naive | Trivial), _, _) -> "baseline"
  | Literal _ -> "compress-literal"
  | Factored _ -> "compress-factored"

let disj_classes = [ "batched-wide"; "batched-narrow"; "baseline" ]
let compress_classes = [ "compress-literal"; "compress-factored" ]

(* Set-up: the compressed protocols and their input laws. *)
type state = {
  smoke : bool;
  seq4 : int Proto.Tree.t;
  noisy3 : int Proto.Tree.t;
  mu4 : int array Prob.Dist_exact.t;
  mu3 : int array Prob.Dist_exact.t;
}

let setup ~smoke ~tag:_ =
  {
    smoke;
    seq4 = AP.sequential 4;
    noisy3 = AP.noisy_sequential ~k:3 ~noise:(R.of_ints 1 10);
    mu4 = HD.mu_and ~k:4;
    mu3 = HD.mu_and ~k:3;
  }

(* Disjointness straight from the sets: disjoint iff no coordinate is
   in every player's set. *)
let disjoint (inst : DC.instance) =
  let k = Array.length inst.sets in
  let rec coord j =
    j >= inst.n
    || ((not (Array.for_all (fun row -> row.(j)) inst.sets)) && coord (j + 1))
  in
  k = 0 || coord 0

let solve proto inst =
  let want = disjoint inst in
  let n = inst.DC.n and k = Array.length inst.DC.sets in
  match proto with
  | Batched ->
      fun () ->
        let run = Span.wrap batched (fun () -> Protocols.Disj_batched.solve inst) in
        fun () ->
          let r = run.Protocols.Disj_batched.result in
          Oracle.bool_eq "batched answer" ~got:r.DC.answer ~want;
          Oracle.int_eq "batched bits = board bits" ~got:r.DC.bits
            ~want:(Blackboard.Board.total_bits run.Protocols.Disj_batched.board);
          [ ("cycles", float r.DC.cycles) ]
  | Naive ->
      fun () ->
        let r = Span.wrap naive (fun () -> Protocols.Disj_naive.solve inst) in
        fun () ->
          Oracle.bool_eq "naive answer" ~got:r.DC.answer ~want;
          []
  | Trivial ->
      fun () ->
        let r = Span.wrap trivial (fun () -> Protocols.Disj_trivial.solve inst) in
        fun () ->
          Oracle.bool_eq "trivial answer" ~got:r.DC.answer ~want;
          Oracle.int_eq "trivial bits = n k" ~got:r.DC.bits ~want:(n * k);
          []

let compress st ~factored_run fam ~copies ~seed =
  let tree, mu = match fam with Seq4 -> (st.seq4, st.mu4) | Noisy3 -> (st.noisy3, st.mu3) in
  let inputs = Am.draw_inputs ~seed ~mu ~copies in
  fun () ->
    let run =
      if factored_run then
        Span.wrap factored (fun () ->
            Am.compress_parallel_factored ~seed ~tree ~mu ~inputs ())
      else
        Span.wrap literal (fun () ->
            Am.compress_parallel ~seed ~tree ~mu ~inputs ())
    in
    fun () ->
      Oracle.bool_eq "decoders agreed" ~got:run.Am.agreed ~want:true;
      Oracle.int_eq "copies" ~got:(Array.length run.Am.outputs) ~want:copies;
      (match fam with
      | Seq4 ->
          (* Deterministic: each copy's output is its exact output law's
             single atom. *)
          Array.iteri
            (fun i x ->
              match
                Prob.Dist_exact.to_alist (Proto.Semantics.output_dist tree x)
              with
              | [ (v, _) ] ->
                  Oracle.int_eq "copy output" ~got:run.Am.outputs.(i) ~want:v
              | _ -> Oracle.fail "copy %d: output law is not a point" i)
            inputs
      | Noisy3 -> ());
      [ ("rounds", float run.Am.rounds);
        ("transmissions", float run.Am.transmissions);
        ("accepted", float (run.Am.transmissions - run.Am.aborted)) ]

let round st rng _r =
  Op.shuffled rng (if st.smoke then smoke_slots else round_slots) ~cls:class_of ~prepare:(fun slot ->
      match slot with
      | Solve (p, side, kind) ->
          let n, k = sizes ~smoke:st.smoke p side in
          let inst =
            match kind with
            | `Single_zero -> DC.random_disjoint_single_zero rng ~n ~k
            | `Intersecting -> DC.random_intersecting rng ~n ~k ~witnesses:1
          in
          solve p inst
      | Literal (fam, copies) ->
          compress st ~factored_run:false fam ~copies
            ~seed:(Prob.Rng.int rng 1_000_000_000)
      | Factored (fam, copies) ->
          compress st ~factored_run:true fam ~copies
            ~seed:(Prob.Rng.int rng 1_000_000_000))

let workload =
  Op.W
    {
      name = "board-wire";
      setup;
      round;
      setup_reps = 51;
      spans;
      counts =
        [ Op.count "blackboard.board.bits" disj_classes (Metric "board.bits");
          Op.count "blackboard.board.messages" disj_classes
            (Metric "board.messages");
          Op.count "coding.bitbuf.writers" disj_classes Bitbuf_writers;
          Op.count "coding.bitbuf.bits" disj_classes Bitbuf_bits;
          Op.count "protocols.disj_batched.cycles"
            [ "batched-wide"; "batched-narrow" ] (Reported "cycles");
          Op.count "compress.amortized.rounds" compress_classes
            (Reported "rounds");
          Op.count "compress.sampler.transmissions" compress_classes
            (Reported "transmissions");
          Op.count "compress.sampler.accept_ratio" compress_classes
            (Reported "accepted") ~den:(Reported "transmissions") ];
    }
