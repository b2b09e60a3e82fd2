(** Orbit-collapsed exact evaluation of protocol trees.

    One tree walk replaces the [2^k] input sweep: per-player
    revealed-weight vectors are tracked along each path, and at every
    leaf the surviving inputs are grouped into {e cells} — one per
    choice of value composition over (symmetry block, revealed-weight
    class) player groups — whose members provably share the same joint
    probability, counted by exact multinomials. This is an exact
    regrouping of the direct rational sum and is valid for {e any}
    protocol tree under a block-exchangeable input law
    ({!Prob.Symdist}); symmetry of the protocol itself only affects
    speed. Subtree results are globally hash-consed on a canonical
    g-state (the orbit-mode extension of {!Semantics.memo}). *)

type cell = {
  count : Exact.Rational.t;  (** input profiles in the cell *)
  w_each : Exact.Rational.t;  (** joint probability [P(x,t)] of each *)
  px_each : Exact.Rational.t;  (** input marginal [mu(x)] of each *)
}

type path = {
  transcript : Tree.transcript;
  cells : cell list;
  p_t : Exact.Rational.t;  (** transcript mass [sum count * w_each] *)
}

type collapsed = path list

type memo
(** Canonical-state table shared across calls and input laws: g-vector
    interning, each Speak node's emit rows per (node id, domain), and
    cached subtree results keyed on the node id, the input law's
    {e content} (its domain in order and its class weights, so
    relabelings of one law — the conditional slices of a CIC — share
    entries), each speaking player's block and g-vector, and the other
    players' g-vectors as per-block multisets. A cached path carries
    its cells' external-IC terms, so a result that many laws reach is
    costed once. Not thread-safe: share within one domain only. *)

val memo : unit -> memo
val memo_size : memo -> int
(** Number of cached (node, law, canonical-state) results. *)

val collapse : ?memo:memo -> 'a Tree.t -> 'a Prob.Symdist.t -> collapsed
(** The collapsed joint law of (inputs, transcript). Paths appear in
    deterministic DFS order; only positive-mass cells and non-empty
    paths are kept, so every [p_t] is positive. *)

val total_mass : ?memo:memo -> 'a Tree.t -> 'a Prob.Symdist.t -> Exact.Rational.t
(** [sum_t p_t] — exactly 1 on any complete tree; engine self-check. *)

val external_ic : ?memo:memo -> 'a Tree.t -> 'a Prob.Symdist.t -> float
(** [I(T; X)], exact rationals up to the final logarithms. *)

val transcript_entropy : ?memo:memo -> 'a Tree.t -> 'a Prob.Symdist.t -> float
(** [H(T)]. *)

val conditional_ic :
  ?memo:memo ->
  'a Tree.t ->
  (Exact.Rational.t * 'a Prob.Symdist.t) list ->
  float
(** [I(T; X | D) = sum_d P(d) * I(T; X | D = d)] from the conditional
    input law of each value of the conditioning variable. *)

(** Reference path for the differential suite: direct [2^k] enumeration
    grouped into the same cell structure, and width-0 exact-rational
    comparison of collapsed laws. *)
module For_testing : sig
  val collapse_direct : 'a Tree.t -> 'a Prob.Symdist.t -> collapsed
  (** Brute-force collapse through {!Semantics.joint} — exponential in
      the player count; small [k] only. *)

  val normalize : collapsed -> collapsed
  (** Canonical form: zero paths dropped, cells merged by equal
      [(w_each, px_each)] and sorted, paths sorted by transcript. *)

  val equal_collapsed : collapsed -> collapsed -> bool
  (** Exact rational equality of collapsed joint laws (width 0 — no
      float tolerance anywhere). *)
end
