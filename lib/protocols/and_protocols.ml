(** Protocols for one-bit [AND_k], as exact protocol trees.

    The star of Section 6 is the {e sequential} protocol: players write
    their bit in order and the protocol halts at the first zero. Its
    transcript can be encoded by the index of the first zero (or "none"),
    so its external information cost is [O(log k)] under {e any}
    distribution, while its worst-case communication is [k] bits — the
    [Omega(k / log k)] compression gap. *)

module D = Prob.Dist_exact
module R = Exact.Rational
module T = Proto.Tree

(** Sequential AND: player [i] writes its bit; on 0 halt with output 0;
    after all [k] ones output 1. *)
let sequential k =
  if k < 1 then invalid_arg "And_protocols.sequential";
  let rec node i =
    if i = k then T.output 1
    else T.speak_det ~speaker:i ~f:(fun b -> b) [| T.output 0; node (i + 1) |]
  in
  node 0

(** Broadcast-all AND: every player writes its bit unconditionally; the
    transcript is the whole input, so this protocol reveals everything:
    [IC = H(X)]. The maximally-leaky baseline. *)
let broadcast_all k =
  if k < 1 then invalid_arg "And_protocols.broadcast_all";
  (* acc starts at 1 and becomes 0 permanently once a zero is seen *)
  let rec build i acc =
    if i = k then T.output acc
    else
      T.speak_det ~speaker:i ~f:(fun b -> b)
        [| build (i + 1) 0; build (i + 1) acc |]
  in
  build 0 1

(** Sequential AND truncated after the first [m] players: the remaining
    players never speak and the protocol outputs 1 if the first [m] bits
    were all ones. Used by the Lemma 6 experiment: any deterministic
    protocol in which fewer than [(1 - eps/(1-eps'))k] players speak on
    input [1^k] errs with probability more than [eps] under the Lemma 6
    distribution. *)
let truncated_sequential ~k ~m =
  if m < 0 || m > k then invalid_arg "And_protocols.truncated_sequential";
  let rec node i =
    if i = m then T.output 1
    else T.speak_det ~speaker:i ~f:(fun b -> b) [| T.output 0; node (i + 1) |]
  in
  node 0

(** Noisy sequential AND: each player lies about its bit with
    probability [noise] (private randomness). Still halts at the first
    written zero. A protocol with genuinely randomized messages, used to
    exercise the compressor on non-deterministic next-message laws.
    [noise] must be in [\[0, 1/2)]; errors are bounded but nonzero. *)
let noisy_sequential ~k ~noise =
  if R.sign noise < 0 || R.compare noise R.half >= 0 then
    invalid_arg "And_protocols.noisy_sequential: noise in [0, 1/2)";
  let flip b =
    (* writes 1 - b with probability noise *)
    if R.is_zero noise then D.return b
    else D.of_weighted [ (b, R.sub R.one noise); (1 - b, noise) ]
  in
  let rec node i =
    if i = k then T.output 1
    else T.speak ~speaker:i ~emit:flip [| T.output 0; node (i + 1) |]
  in
  node 0

(** Two independent copies of sequential AND, composed sequentially:
    players hold two bits each ([x.(0)], [x.(1)]); copy 0 runs to
    completion (halting at its first zero), then copy 1. The output
    encodes both answers as [2*a0 + a1]. Used by the Theorem-4
    experiment: with independent inputs across copies, the external
    information cost is exactly twice the single-copy cost. *)
let two_copy_sequential k =
  if k < 1 then invalid_arg "And_protocols.two_copy_sequential";
  let copy1 a0 =
    let rec node i =
      if i = k then T.output ((2 * a0) + 1)
      else
        T.speak_det ~speaker:i
          ~f:(fun x -> x.(1))
          [| T.output (2 * a0); node (i + 1) |]
    in
    node 0
  in
  let after_zero = copy1 0 in
  let after_ones = copy1 1 in
  let rec node i =
    if i = k then after_ones
    else
      T.speak_det ~speaker:i ~f:(fun x -> x.(0)) [| after_zero; node (i + 1) |]
  in
  node 0

(** A protocol that ignores its input and outputs a constant — useful in
    tests as the degenerate zero-information point. *)
let constant ~k:_ v = T.output v

(** Operational (bit-accounted) run of the sequential protocol on a
    blackboard; used for large [k] where trees are beside the point. *)
let run_sequential board inputs =
  let k = Array.length inputs in
  let halted = ref None in
  let i = ref 0 in
  while !halted = None && !i < k do
    let w = Coding.Bitbuf.Writer.create () in
    Coding.Bitbuf.Writer.add_bit w (inputs.(!i) = 1);
    Blackboard.Board.post board ~player:!i ~label:"bit" w;
    if inputs.(!i) = 0 then halted := Some 0;
    incr i
  done;
  match !halted with Some v -> v | None -> 1
