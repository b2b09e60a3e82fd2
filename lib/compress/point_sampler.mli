(** The Lemma-7 one-round sampling protocol ("point sampling").

    The speaker knows the true next-message law [eta]; everyone knows
    the observer prior [nu] and shares public randomness. The speaker
    rejection-samples a point under [eta] from the public stream and
    transmits (i) the block index of the accepted point, Elias-gamma;
    (ii) the rounded log-ratio [s = ceil(log2 (eta(x)/nu(x)))], signed
    gamma (possibly negative, cf. footnote 4); (iii) the rank of the
    point inside [P'] — the block's points under the scaled prior
    [2^s nu] — fixed-width, since every receiver reconstructs [P']
    itself. Expected cost: [D(eta||nu) + O(log D + log 1/eps)].

    If no acceptance occurs within [max_blocks] blocks (probability
    about [e^-max_blocks] — the [eps]), the speaker writes the sample
    verbatim: agreement is then perfect and [eps] shows up only in the
    cost, the variant convenient for experiments.

    A block lives in two flat columns, symbols and heights. {!decode}
    shares nothing with {!transmit}: it replays every block from its own
    copy of the round's stream and reads only the bits and [nu]. *)

type result = {
  sent : int;  (** the speaker's sample, distributed per [eta] *)
  bits : int;
  aborted : bool;  (** fallback path taken *)
  block : int;  (** block index written (0 on abort) *)
  log_ratio : int;  (** the value [s] written (0 on abort) *)
}

val default_max_blocks : float -> int
(** Block budget for a failure budget [eps]. *)

val transmit :
  rng:Prob.Rng.t ->
  eta:float array ->
  nu:float array ->
  ?eps:float ->
  ?max_blocks:int ->
  Coding.Bitbuf.Writer.t ->
  result
(** One round. [rng] must be a fresh shared stream for this round (use
    {!Prob.Rng.split} on the public generator; give the decoder a
    {!Prob.Rng.copy}). Requires [nu > 0] wherever [eta > 0].
    @raise Invalid_argument on length mismatch or domination failure. *)

val decode :
  rng:Prob.Rng.t ->
  nu:float array ->
  u:int ->
  max_blocks:int ->
  Coding.Bitbuf.Reader.t ->
  int
(** What the non-speaking players run: replay the public stream, read
    the three fields, reconstruct [P'], return the symbol. Must be given
    an equal-state copy of the round's [rng]. *)

val cost_model : divergence:float -> eps:float -> float
(** The Lemma-7 shape [D + log2(D+2) + log2(1/eps)] that measurements
    are tabulated against. *)
