(** The Lemma-3 decomposition and the Lemma-4 posterior formulas, for
    protocols over single-bit inputs.

    For any transcript [l] of a broadcast protocol,
    [Pr[Pi(X) = l] = common(l) * prod_i q_{i, X_i}(l)], where
    [q_{i,b}(l)] multiplies the emission probabilities of player [i]'s
    messages along [l] when its input bit is [b] and [common(l)]
    collects the input-independent public-coin factors. The ratio
    [alpha_i(l) = q_{i,0}(l) / q_{i,1}(l)] measures how strongly [l]
    "points" at player [i] holding 0; under the Section-4.1 hard
    distribution the posterior is [alpha_i / (alpha_i + k - 1)]
    (Lemma 4). *)

type t = {
  k : int;
  q : Exact.Rational.t array array;  (** [q.(i).(b)] *)
  common : Exact.Rational.t;  (** public-coin factor *)
}

val of_transcript : int Tree.t -> k:int -> Tree.transcript -> t
(** @raise Invalid_argument if the transcript does not follow the tree. *)

val transcript_prob : t -> int array -> Exact.Rational.t
(** Reconstructs [Pr[Pi(X) = l]] for a concrete input — the statement of
    Lemma 3, validated against {!Semantics.transcript_dist} in tests. *)

val alpha : t -> int -> Exact.Rational.t option
(** [alpha t i] is [q_{i,0}/q_{i,1}]; [None] encodes the infinite ratio
    when [q_{i,1} = 0] (posterior 1). *)

val alpha_float : t -> int -> float
(** Like {!alpha} with [infinity] for the infinite ratio. *)

val posterior_zero : t -> int -> Exact.Rational.t option
(** Lemma 4: [Pr[X_i = 0 | Pi = l, Z <> i]] under the hard distribution
    — [q_{i,0} / (q_{i,0} + (k-1) q_{i,1})]. [None] if both [q]s are 0
    (unreachable transcript). *)

val alpha_sum : t -> float
(** [sum_i alpha_i] (eq. 6 bounds it below by [sqrt(C)/2 * k] on good
    transcripts); [infinity] if any ratio is infinite. *)

val max_alpha : t -> float
