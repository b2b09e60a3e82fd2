(** Constant-time sampling from a fixed finite distribution (Walker's
    alias method): O(n) preprocessing, O(1) per draw. *)

type 'a t

val create : 'a Dist.t -> 'a t
val draw : 'a t -> Rng.t -> 'a

val empirical : 'a t -> Rng.t -> int -> 'a Dist.t
(** Empirical distribution of [n] draws — for validating the sampler
    against its source. *)
