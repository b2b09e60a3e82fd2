(** Yao's minimax principle, easy direction, as an executable check
    (the fact Lemma 6 relies on); a test fixture.

    Fixing the public coins of a randomized protocol yields a mixture of
    deterministic-coin protocols whose distributional errors average to
    the randomized protocol's — so some restriction does at least as
    well. Both facts are verified exactly. Private randomness inside
    message laws is untouched (it is part of a player's strategy); for
    the fully deterministic statement use point-mass trees, as Lemma 6
    does. *)

val coin_restrictions :
  'a Proto.Tree.t -> ('a Proto.Tree.t * Exact.Rational.t) list
(** All public-coin restrictions with their probabilities; each result
    is chance-free. Exponential in the number of chance nodes. *)

val error_mixture :
  'a Proto.Tree.t ->
  f:('a array -> int) ->
  'a array Prob.Dist_exact.t ->
  Exact.Rational.t * (Exact.Rational.t * Exact.Rational.t) list
(** [(randomized distributional error, (weight, error) per restriction)];
    the mixture equals the randomized error exactly. *)

val easy_direction :
  'a Proto.Tree.t ->
  f:('a array -> int) ->
  'a array Prob.Dist_exact.t ->
  Exact.Rational.t * Exact.Rational.t
(** [(best restriction's error, randomized error)] — the former never
    exceeds the latter. *)
