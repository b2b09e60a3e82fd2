(** Theorem 3: amortized compression of many parallel copies.

    [n] independent copies of a protocol are run in parallel, round by
    round; the messages of all copies whose current speaker coincides
    are transmitted {e jointly} by one Lemma-7 invocation over the
    product universe. Per-round divergences add up across copies to the
    round's information cost, while the sampler's [O(log ...)] framing
    overhead is paid once per round — which is exactly why the per-copy
    cost converges to [IC_mu(Pi)] as [n] grows.

    One round loop runs over two samplers, which differ only in how a
    group is transmitted: the {e literal} one replays the actual point
    process honestly, including an independent decoder (product
    universe capped at [2^20], so a few dozen binary-message copies);
    the {e factored} one ({!Factored_sampler}) samples the communicated
    values from their closed-form laws and scales to hundreds of
    copies. They agree at sizes where both run (a test). Copies with
    equal transcripts share one observer state ({!Observer}); the
    literal sampler builds each product law in place, and an honest
    decoder still replays the point stream of each transmission. *)

type run = {
  copies : int;
  total_bits : int;
  per_copy_bits : float;
  rounds : int;  (** parallel rounds executed *)
  transmissions : int;  (** sampler invocations *)
  aborted : int;  (** transmissions that hit the fallback path *)
  outputs : int array;  (** per-copy protocol outputs *)
  agreed : bool;  (** every literal decoder matched every speaker *)
}

val max_log_u : int
(** Cap on [log2] of a literal transmission's product universe. *)

val mixed_radix_decode : int array -> int -> int array

val compress_parallel :
  ?eps:float ->
  seed:int ->
  tree:'a Proto.Tree.t ->
  mu:'a array Prob.Dist_exact.t ->
  inputs:'a array array ->
  unit ->
  run
(** Literal compressed run on the given per-copy inputs (each an array
    of per-player inputs).
    @raise Invalid_argument if a transmission's universe exceeds
    [2^max_log_u], or on zero copies. *)

val compress_parallel_factored :
  ?eps:float ->
  seed:int ->
  tree:'a Proto.Tree.t ->
  mu:'a array Prob.Dist_exact.t ->
  inputs:'a array array ->
  unit ->
  run
(** Cost-faithful factored run; no universe-size limit. [agreed] is
    reported true (there is no literal decoder to cross-check). *)

val draw_inputs :
  seed:int -> mu:'a Prob.Dist_exact.t -> copies:int -> 'a array

val compress_random :
  ?eps:float ->
  seed:int ->
  tree:'a Proto.Tree.t ->
  mu:'a array Prob.Dist_exact.t ->
  copies:int ->
  unit ->
  run * 'a array array
(** Draw iid inputs from [mu] and run {!compress_parallel}. *)

val compress_random_factored :
  ?eps:float ->
  seed:int ->
  tree:'a Proto.Tree.t ->
  mu:'a array Prob.Dist_exact.t ->
  copies:int ->
  unit ->
  run * 'a array array
