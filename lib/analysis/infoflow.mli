(** Static information-cost certification via abstract transcript
    distributions.

    Propagates exact per-player weight vectors (the probabilistic
    refinement of {!Absint}'s Lemma-6 rectangles) through a protocol
    tree under a declared product input distribution, and derives sound
    rational bounds on the external and internal information cost — no
    floats anywhere on the certification path, no joint enumeration of
    input profiles. See the implementation header for the abstract
    domain, the per-(leaf, player) KL decomposition behind the bounds,
    and the widening/soundness argument (also DESIGN.md §12). *)

module R := Exact.Rational

type bound = { lo : R.t; hi : R.t }

val pp_bound : Format.formatter -> bound -> unit
val bound_to_string : bound -> string

type leaf = {
  leaf_path : Path.t;
  output : int;
  bits : int;  (** charged bits along the path to this leaf *)
  mass : R.t;  (** exact transcript probability under [mu] *)
}

type t = {
  players : int;
  domain_size : int;
  prec : int;  (** {!Infotheory.Rlog} fraction bits used for logs *)
  mu : R.t array;  (** the per-player marginal the analysis ran under *)
  leaves : leaf list;  (** reachable leaves in pre-order *)
  total_mass : R.t;  (** exactly 1 whenever [sound] *)
  nodes : int;  (** nodes visited before any widening *)
  struct_max : int;  (** worst-case communication cost in bits *)
  widened : bool;  (** node budget hit; masses incomplete *)
  law_failures : int;
      (** emission laws that raised, overflowed their arity, or were
          not exactly normalized *)
  deterministic : bool;
      (** the transcript is a function of the input profile: no live
          public randomness and every live emission is a point mass *)
  sound : bool;
      (** true iff not widened, no law failures, and the leaf masses
          sum to exactly 1; when false every bound below degrades to
          the trivial [[0, struct_max]] fallback *)
  external_ic : bound;  (** sound bracket of [IC_mu(Pi) = I(T ; X)] *)
  internal_ic : bound;
      (** sound bracket of [sum_i I(T ; X_{-i} | X_i)]; exactly
          [(players - 1)] times [external_ic] under product [mu] *)
  expected_bits : R.t;  (** exact [E[charged bits]]; 0 unless [sound] *)
  entropy_hi : R.t;
      (** sound upper bound on the transcript entropy [H(T)]; 0 unless
          [sound] *)
  max_leaf_mass : R.t;
      (** largest single leaf probability — what the partition /
          discrepancy lower-bound engine consumes; 0 unless [sound] *)
}

val default_prec : int
(** Fraction bits for the certified logarithms (16: interval width a
    few [2^-16] per term — and exactly 0 on power-of-two ratios, e.g.
    deterministic trees over power-of-two domains under uniform mu). *)

val uniform_mu : int -> R.t array
(** [uniform_mu n] is the uniform marginal over an [n]-point domain. *)

val soundness_reason : t -> string option
(** [None] when [sound]; otherwise a human-readable reason suitable for
    an inconclusive certificate. *)

val analyze :
  ?budget:int ->
  ?players:int ->
  ?prec:int ->
  ?mu:R.t array ->
  domain:'a array ->
  'a Proto.Tree.t ->
  t
(** [analyze ~domain tree] runs the transcript-distribution abstract
    interpretation under the product of per-player marginals [mu]
    (default uniform over [domain]). [budget] caps visited nodes
    (default {!Absint.default_budget}; exceeding it widens), [players]
    widens the declared player count ({!Walk.inferred_players} is the
    floor), [prec] the log precision. Runs in an [infoflow/analyze]
    trace span and bumps [infoflow.*] metrics when {!Obs} is live.
    @raise Invalid_argument on an empty domain, non-positive budget or
    prec, or a [mu] that is negative somewhere, has the wrong length,
    or does not sum to 1. *)
