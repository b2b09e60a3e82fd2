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
    It also keeps one table derived from those laws over one input law
    ({!kept}). Not thread-safe: share within one domain only. *)

val memo : unit -> memo
val memo_size : memo -> int
(** Number of cached (node, inputs) laws — observability for benches. *)

type kept = ..
(** A table derived from the laws over one input law, kept in a memo
    next to them; {!Information} adds its int-coded joint table. *)

val kept : memo -> 'a Tree.t -> 'a array Prob.Dist_exact.t -> kept option
(** [kept memo tree mu] is the table {!keep} last stored in [memo], if
    it was stored for this tree (its {!Tree.id}) and this very law
    (physical identity). A memo keeps one table and drops it with the
    memo. Sound only while [mu] is not mutated: a law passed with a
    memo must stay as it was built. *)

val keep : memo -> 'a Tree.t -> 'a array Prob.Dist_exact.t -> kept -> unit
(** [keep memo tree mu t] stores [t] for [tree] and [mu], replacing the
    table kept before. *)

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
(** Probability that the protocol's output differs from [f inputs]:
    the exact mass of the paths that reach a wrong leaf over the mass of
    all paths, summed per node of one walk of the tree (the output law
    is not built). Equal, as a rational, to [D.prob (output_dist tree
    inputs) (fun v -> v <> f inputs)].
    @raise Invalid_argument when no path has positive mass. *)

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

val expected_bits :
  ?memo:memo -> 'a Tree.t -> 'a array Prob.Dist_exact.t -> float
(** Expected communication under [mu] (contrast with the worst-case
    {!Tree.communication_cost}). *)

val all_bit_inputs : int -> int array list
(** All [2^k] bit-vectors of length [k] — the input domain of the
    one-bit problems. *)

(** {1 Testing hooks} *)

module For_testing : sig
  val error_on_ref :
    'a Tree.t -> f:('a array -> int) -> 'a array -> Exact.Rational.t
  (** {!error_on} as the mass of the wrong outputs under
      {!output_dist}, the formula it replaces. *)
end
