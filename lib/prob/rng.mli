(** Deterministic pseudo-random number generation.

    The reproduction never uses [Stdlib.Random]: every randomized
    experiment takes an explicit seed so runs are reproducible, and the
    compression scheme of Section 6 needs {e shared public randomness} —
    all parties deriving the same stream from the same seed — plus
    per-player private streams split off deterministically.

    The core generator is SplitMix64 (Steele, Lea & Flood 2014) used both
    directly and to seed Xoshiro256** (Blackman & Vigna 2018).

    A generator is its four Xoshiro words, held unboxed in one 32-byte
    buffer, so {!bits62}, {!int}, {!bool} and {!bernoulli} allocate
    nothing per draw; {!next_int64} and {!float} allocate only the
    boxed value they return. The stream is the one the earlier layout
    (four boxed [int64] fields) produced: same SplitMix64 seeding, same
    Xoshiro256** step, same rejection rule in {!int}. *)

type t

val create : int64 -> t
(** A fresh generator from a 64-bit seed. *)

val of_int_seed : int -> t
val copy : t -> t

val split : t -> t
(** [split t] deterministically derives an independent generator and
    advances [t]. Used to hand each player a private stream from a
    public seed. *)

val next_int64 : t -> int64
(** Uniform over all 2{^64} values. *)

val bits62 : t -> int
(** Uniform 62-bit non-negative integer. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Rejection-sampled, so
    exactly uniform. @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool
val bernoulli : t -> float -> bool

(** [shuffle t a] permutes [a] in place, uniformly (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on
    an empty array. *)
