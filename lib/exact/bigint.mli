(** Arbitrary-precision signed integers.

    Built from scratch on the OCaml stdlib; used wherever the reproduction
    needs exact counting that can overflow native integers: binomial
    coefficients for the combinatorial subset codec of the Section-5
    disjointness protocol, and exact rational probabilities in the
    protocol semantics (see {!Rational}).

    The representation is sign-magnitude with the magnitude stored as an
    array of base-2{^30} limbs, least-significant limb first. All
    operations are purely functional. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t
val minus_one : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] iff [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Invalid_argument if the value does not fit in a native [int]. *)

val of_string : string -> t
(** Parses an optional ['-'] sign followed by decimal digits.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val to_float : t -> float
(** Nearest float; may be [infinity] for huge values. *)

(** {1 Comparisons} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t

val div_mod : t -> t -> t * t
(** [div_mod a b] is [(q, r)] with [a = q*b + r], [0 <= |r| < |b|], and
    [r] carrying the sign of [a] (truncated division, like [Stdlib.( / )]).
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val div_exact : t -> t -> t
(** [div_exact a d] is [a / d] for a [d] known to divide [a] (the sign
    is [sign a * sign d]). The power of two in [d] comes out as a shift
    and the odd part by Jebelean's LSB-first exact division (the
    {!Acc} kernels): one multiply pass per quotient limb, where {!div}
    peels one quotient bit per pass on a multi-limb divisor.
    @raise Invalid_argument if [d] does not divide [a].
    @raise Division_by_zero if [d] is zero. *)

val pow : t -> int -> t
(** [pow x n] for [n >= 0]. @raise Invalid_argument on negative exponent. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val gcd : t -> t -> t
(** Greatest common divisor of the absolute values; [gcd zero zero = zero].
    Binary (Stein) GCD run in place on two {!Acc} buffers: a compare,
    a subtract and a trailing-zero shift per step, none of which
    allocates, so a call allocates only the two buffers and its result
    (about 160 minor words on a pair of ~2,048-bit operands). It takes
    a native-int Euclid exit once both operands fit a word, or at once
    after one remainder pass when either is a single limb;
    differentially tested against the reference Euclid implementation
    in {!For_testing}. *)

val gcd_int : t -> int -> int
(** [gcd_int x m] is [gcd (|x|, m)] for a one-limb [m]: one remainder
    pass over [x], then native-int Euclid.
    @raise Invalid_argument unless [0 < m < 2^30]. *)

(** {1 Number-theoretic helpers} *)

val factorial : int -> t
val binomial : int -> int -> t
(** [binomial n k] is [n choose k]; zero when [k < 0] or [k > n]. *)

val num_bits : t -> int
(** Number of bits in the magnitude; [num_bits zero = 0]. *)

val testbit : t -> int -> bool

val log2_approx : t -> float
(** [log2] of the magnitude from its top two limbs: exact to within one
    float ulp of the true logarithm, never overflows, [neg_infinity]
    for zero. For the float-guided jump estimation in the subset codec
    — never a substitute for exact comparison. *)

(** {1 In-place accumulator}

    A mutable non-negative integer for multiply-small / divide-small
    scan loops (running binomials in the subset codec); {!div_exact} and
    {!gcd} run on it internally. All operations mutate in place over a
    growable limb buffer, so a whole scan costs two allocations (create
    + [to_t]) instead of two per step. Compare, add, subtract, multiply
    and right shift run the same limb loops as the immutable operations
    above: those pass a fresh array, an accumulator passes its own
    buffer. *)

module Acc : sig
  type acc

  val create : unit -> acc
  (** A fresh accumulator holding 0. *)

  val set_int : acc -> int -> unit
  (** Load a non-negative [int]. @raise Invalid_argument if negative. *)

  val set_t : acc -> t -> unit
  (** Load a non-negative {!t}. @raise Invalid_argument if negative. *)

  val of_t : t -> acc
  val to_t : acc -> t
  val is_zero : acc -> bool

  val mul_small : acc -> int -> unit
  (** In-place multiply by [m], [0 <= m < 2^30].
      @raise Invalid_argument outside that range. *)

  val div_exact_small : acc -> int -> unit
  (** In-place exact division by [d], [1 <= d < 2^30].
      @raise Invalid_argument if out of range or the division leaves a
      remainder — callers rely on algebraic identities that guarantee
      exactness, so a remainder is a logic error worth trapping. *)

  val compare_t : acc -> t -> int
  (** Compare the accumulated value against an immutable {!t}. *)

  (** {2 Multi-limb operations}

      Chunked scan support: the subset codec batches runs of small
      factors into one multi-limb multiplier/divisor and pays one pass
      over the accumulator per {e chunk} instead of per factor. *)

  val compare_acc : acc -> acc -> int

  val add_acc : acc -> acc -> unit
  (** [add_acc a b] is [a <- a + b], in place. *)

  val sub_acc : acc -> acc -> unit
  (** [a <- a - b]. @raise Invalid_argument if [a < b]. *)

  val mul_acc : scratch:acc -> acc -> acc -> unit
  (** [mul_acc ~scratch a p] is [a <- a * p]. The product is built in
      [scratch]'s buffer and the two buffers are swapped, so a reused
      scratch makes the whole scan allocation-free. [scratch] must not
      alias either operand (checked). *)

  val div_exact_acc : acc -> acc -> unit
  (** [div_exact_acc a d] is [a <- a / d] for an {e odd} divisor that
      divides [a] exactly (multi-limb Jebelean division, LSB first).
      Strip factors of two with {!shift_right_exact} first.
      @raise Invalid_argument on an even divisor or inexact division.
      @raise Division_by_zero on zero. *)

  val shift_right_exact : acc -> int -> unit
  (** [a <- a / 2^s], any [s >= 0]. @raise Invalid_argument if a
      nonzero bit is shifted out. *)

  val log2_approx : acc -> float
  (** As {!Exact.Bigint.log2_approx}, on the accumulated value. *)
end

(** {1 Testing hooks}

    Reference implementations and representation probes for the
    differential test suite. Not part of the supported API. *)

module For_testing : sig
  val karatsuba_threshold : int
  (** Limb count at which {!mul} switches to Karatsuba. *)

  val mul_schoolbook : t -> t -> t
  (** The O(n{^2}) schoolbook product, regardless of size. *)

  val gcd_euclid : t -> t -> t
  (** Division-based Euclid GCD (the pre-binary reference). *)

  val binomial_iter : int -> int -> t
  (** The immutable-API binomial iteration (the pre-{!Acc} reference). *)

  val of_limb_count : int -> t
  (** Smallest positive value stored in exactly [n] limbs. *)

  val limb_count : t -> int

  val limbs : t -> int array
  (** A copy of the magnitude's base-2{^30} limbs, least significant
      first, with no trailing zero limb ([[||]] for zero). *)

  val of_limbs : int array -> t
  (** The non-negative value of these limbs, least significant first;
      trailing zero limbs are allowed.
      @raise Invalid_argument unless every limb is in [[0, 2^30)]. *)
end
