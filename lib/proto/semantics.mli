(** Exact distributional semantics of protocol trees.

    Everything here is computed in exact rational arithmetic by walking
    the tree: the law of the transcript on fixed inputs, the law of the
    output, error probabilities (worst-case and distributional), and the
    joint law of inputs and transcript under an input distribution —
    the object all information quantities are derived from. *)

type memo
(** A transcript-law cache shared {e across} calls, keyed on the
    tree node's {!Tree.id} plus the structural input profile — one law is
    computed once per (node, inputs) pair no matter how many sweeps
    revisit it. Sound because a law is a function of exactly that pair.
    Not thread-safe: share within one domain only. *)

val memo : unit -> memo
val memo_size : memo -> int
(** Number of cached (node, inputs) laws — observability for benches. *)

val transcript_dist :
  ?memo:memo -> 'a Tree.t -> 'a array -> Tree.transcript Prob.Dist_exact.t
(** [transcript_dist tree inputs] is the exact law of the full
    transcript when player [i] holds [inputs.(i)]. Within one call,
    shared subtrees (combinator-built DAGs) are evaluated once; [memo]
    extends that sharing across calls — profitable when several
    information measures walk the same tree over the same input sweep
    (each call otherwise starts cold, rebuilding every law). *)

val output_dist : 'a Tree.t -> 'a array -> int Prob.Dist_exact.t

val error_on : 'a Tree.t -> f:('a array -> int) -> 'a array -> Exact.Rational.t
(** Probability that the protocol's output differs from [f inputs]. *)

val worst_case_error :
  'a Tree.t -> f:('a array -> int) -> 'a array list -> Exact.Rational.t
(** Maximum of {!error_on} over an explicit input list (the whole domain
    for total functions, the promise set for promise problems). *)

val distributional_error :
  'a Tree.t -> f:('a array -> int) -> 'a array Prob.Dist_exact.t ->
  Exact.Rational.t

val joint :
  ?memo:memo -> 'a Tree.t -> 'a array Prob.Dist_exact.t ->
  ('a array * Tree.transcript) Prob.Dist_exact.t
(** Joint law of [(inputs, transcript)] with inputs drawn from [mu]. *)

val joint_with_aux :
  ?memo:memo -> 'a Tree.t -> ('a array * 'd) Prob.Dist_exact.t ->
  ('a array * 'd * Tree.transcript) Prob.Dist_exact.t
(** Same, for a distribution on inputs paired with an auxiliary variable
    (the [D] of conditional information cost). *)

val transcript_law :
  ?memo:memo -> 'a Tree.t -> 'a array Prob.Dist_exact.t ->
  Tree.transcript Prob.Dist_exact.t

val reachable_transcripts :
  ?memo:memo -> 'a Tree.t -> 'a array Prob.Dist_exact.t ->
  Tree.transcript list

val expected_bits :
  ?memo:memo -> 'a Tree.t -> 'a array Prob.Dist_exact.t -> float
(** Expected communication under [mu] (contrast with the worst-case
    {!Tree.communication_cost}). *)

val all_bit_inputs : int -> int array list
(** All [2^k] bit-vectors of length [k] — the input domain of the
    one-bit problems. *)
