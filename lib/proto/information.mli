(** Information costs of protocols (Definitions 5 and 6 of the paper),
    computed exactly from the protocol-tree semantics.

    The four direct measures read one int-coded table of the joint law
    of inputs, auxiliary variable and transcript: the rows of
    {!Semantics.joint} (or {!Semantics.joint_with_aux}), in the same
    order, with the same exact weights, with each input, aux value and
    transcript numbered. A row's weight is an integer mass over the
    table's integer total, so every marginal is an integer sum.
    {!external_ic}, {!conditional_ic} and {!transcript_entropy} add the
    same float terms in the same order as {!Infotheory.Measures} over
    those joints, so their results are bit-identical to it.

    With a [memo], {!external_ic}, {!transcript_entropy} and
    {!per_round_information} over one tree and one law share one table,
    which the memo keeps ({!Semantics.kept}); the law must not be
    mutated while the memo lives. {!conditional_ic}'s table is built per
    call and not kept. *)

val external_ic :
  ?memo:Semantics.memo -> 'a Tree.t -> 'a array Prob.Dist_exact.t -> float
(** [external_ic tree mu] is the external information cost
    [IC_mu(Pi) = I(T ; X)] in bits, [X ~ mu] (Definition 5). [memo]
    shares the underlying transcript laws with other measures computed
    over the same tree and input sweep ({!Semantics.memo}). *)

val conditional_ic :
  ?memo:Semantics.memo ->
  'a Tree.t -> ('a array * 'd) Prob.Dist_exact.t -> float
(** [conditional_ic tree mu_xd] is the conditional information cost
    [CIC_mu(Pi) = I(T ; X | D)] in bits, [(X, D) ~ mu_xd]
    (Definition 6). *)

val transcript_entropy :
  ?memo:Semantics.memo -> 'a Tree.t -> 'a array Prob.Dist_exact.t -> float
(** [H(T)] under [mu]; satisfies [IC <= H(T)], and [H(T) <= CC] for
    protocols without public coins (free coins inflate the transcript's
    entropy but not its cost) — the observation right after Definition 5
    that makes information a lower bound on communication. *)

val internal_ic_two_party :
  ?memo:Semantics.memo -> 'a Tree.t -> 'a array Prob.Dist_exact.t -> float
(** Two-party internal information cost
    [I(T ; X_0 | X_1) + I(T ; X_1 | X_0)]. The paper's compression
    targets {e external} information because the internal notion does
    not extend to the broadcast model beyond two players; for [k = 2]
    both exist with [internal <= external] (equality on product
    distributions). @raise Invalid_argument unless inputs are pairs. *)

val per_round_information :
  ?memo:Semantics.memo ->
  'a Tree.t -> 'a array Prob.Dist_exact.t -> float array
(** The chain-rule decomposition of Section 6:
    [IC(Pi) = sum_j I(M_j ; X | M_<j)], returned per round. Each term is
    the expected KL divergence between the speaker's true next-message
    law and the external observer's prediction — exactly the quantity
    the Lemma-7 compressor pays per round. Sums to {!external_ic} up to
    float rounding. Computed from the joint table, so [memo] shares the
    transcript laws with the other measures.

    Summation order: each round's terms are added with plain float
    addition in row order of the joint law — inputs in order of first
    occurrence in [mu], each input's transcripts in the order of its
    transcript law — and a term (one input, one prefix, one message) is
    added at its first appearance. The order is deterministic; each term
    is the exact rational [P(x,p,m) P(p) / (P(x,p) P(p,m))] through
    [Exact.Rational.log2], so a round moves only by the rounding of the
    float sum (within 1e-12 of any other order on the tested trees). *)

(** {2 Orbit engine}

    The same measures over the orbit-collapsed joint law ({!Orbit}):
    exact regrouping of the rational sum by symmetry cells, polynomial
    instead of exponential in the player count for block-exchangeable
    input laws ({!Prob.Symdist}). *)

val external_ic_orbit :
  ?memo:Orbit.memo -> 'a Tree.t -> 'a Prob.Symdist.t -> float
(** [I(T ; X)] via the orbit engine. *)

val conditional_ic_orbit :
  ?memo:Orbit.memo ->
  'a Tree.t ->
  (Exact.Rational.t * 'a Prob.Symdist.t) list ->
  float
(** [I(T ; X | D)] from the conditional input law per value of [D]
    (e.g. {!Protocols.Hard_dist} orbit slices, one per special
    player). *)

val transcript_entropy_orbit :
  ?memo:Orbit.memo -> 'a Tree.t -> 'a Prob.Symdist.t -> float
(** [H(T)] via the orbit engine. *)
