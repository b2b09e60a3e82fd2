(** Braverman-Weinstein discrepancy information lower bounds
    (arXiv:1112.2000), zero-error specialization, over
    {!Analysis.Infoflow} summaries. Every returned rational is a sound
    lower bound on the external information cost; all logarithms go
    through {!Infotheory.Rlog}, so nothing on this path is a float.
    See the implementation header for the derivation chain
    [log2(1/disc) <= log2(1/mono) <= log2(1/max leaf mass) <= H(T) =
    IC] and its side conditions. *)

module R := Exact.Rational

val default_work_cap : int
(** Cap on [(2^d - 1)^k * d^k] — product rectangles times the points
    of the largest — for the exact sweep over [k] players and [d]
    domain points (1.6 x 10^8). The product bounds what a point-by-point
    re-sum of every rectangle would cost; the sweep itself costs about
    one rational addition per rectangle (one subset-sum pass per axis),
    far below it. The formula only decides which inputs are swept. *)

val partition_bound : ?prec:int -> Analysis.Infoflow.t -> R.t option
(** [log2 (1 / max leaf mass)]: sound for sound {e deterministic}
    analyses, where the transcript is a function of the input and
    [IC = H(T) >=] the min-entropy of the leaf partition. [None] when
    the summary is unsound, randomized, or leafless. *)

val mono_mass :
  ?work_cap:int ->
  players:int ->
  domain_size:int ->
  mu:R.t array ->
  f:(int array -> int) ->
  unit ->
  R.t option
(** Exact largest [mu]-mass of an [f]-monochromatic product rectangle
    ([f] over domain {e indices}), over the rectangles of positive
    mass; zero when there is none. [None] when the cap formula
    exceeds [work_cap]. *)

val disc :
  ?work_cap:int ->
  players:int ->
  domain_size:int ->
  mu:R.t array ->
  f:(int array -> int) ->
  unit ->
  R.t option
(** Exact discrepancy [disc_mu(f) = max_R |mu(R inter f^-1(1)) -
    mu(R setminus f^-1(1))|] over product rectangles. *)

val mono_bound :
  ?work_cap:int ->
  ?prec:int ->
  players:int ->
  domain_size:int ->
  mu:R.t array ->
  f:(int array -> int) ->
  unit ->
  R.t option
(** [log2 (1 / mono_mass)]: a {e protocol-independent} lower bound on
    the information cost of every deterministic zero-error protocol
    for [f] under product [mu]. *)

val disc_bound :
  ?work_cap:int ->
  ?prec:int ->
  players:int ->
  domain_size:int ->
  mu:R.t array ->
  f:(int array -> int) ->
  unit ->
  R.t option
(** [log2 (1 / disc)] — the generic Braverman-Weinstein form; always
    dominated by {!mono_bound} in the zero-error setting but reported
    for comparison with the paper's statement. *)

val engine :
  ?work_cap:int ->
  ?prec:int ->
  zero_error_spec:(int array -> int) option ->
  Analysis.Infoflow.t ->
  (string * R.t) list
(** The pluggable engine consumed by {!Analysis.Certify.certify_ic}
    (via the CLI and the verify sweep — {!Analysis} cannot depend on
    this library, so callers inject it): named sound external-IC lower
    bounds, among ["bw-partition"], ["bw-mono-rectangle"] and
    ["bw-discrepancy"]. Pass [zero_error_spec] (over domain indices)
    {e only} for trees already certified zero-error for that spec; the
    rectangle bounds are unsound otherwise and are skipped when the
    summary is randomized or unsound. *)
