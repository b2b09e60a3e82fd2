(** Cost-faithful simulation of the Lemma-7 sampler over {e product}
    universes too large to enumerate.

    The literal point process needs about [|U|] public points per round;
    with [n] parallel binary-message copies [|U| = 2^n], so the literal
    simulator stops being runnable around 20 copies. The communicated
    values, however, have closed-form laws that are sampled directly:
    the joint symbol is a product sample [x_c ~ eta_c]; the log-ratio is
    [s = ceil(sum_c log2 (eta_c/nu_c))]; the block index is geometric
    with per-block acceptance [1 - (1-1/u)^u]; and [|P'|] is
    [1 + Poisson(2^min(s, log2 u))] — the Poisson mean is exact for a
    product prior because [sum_{x'} nu(x') = 1]. The agreement of this
    simulator with the literal one at sizes where both run is a unit
    test; the large-copy Theorem-3 experiment (E6c) runs on this one. *)

type result = {
  sent : int array;  (** per-copy message symbols, jointly [prod eta_c] *)
  bits : int;
  aborted : bool;
  log_ratio : int;
}

val sample_from : Prob.Rng.t -> float array -> int
(** Draw from a probability vector by inverse CDF (shared by the
    simulators and the one-shot coder). *)

val transmit :
  rng:Prob.Rng.t ->
  etas:float array array ->
  nus:float array array ->
  ?eps:float ->
  Coding.Bitbuf.Writer.t ->
  result
(** Simulate one joint transmission for copies with per-copy laws
    [etas.(c)] against observer priors [nus.(c)]. The written bits use
    the literal protocol's framing, so the accounting is comparable.
    @raise Invalid_argument on shape mismatch or domination failure. *)
