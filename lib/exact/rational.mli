(** Exact rational numbers over {!Bigint}.

    Always kept in canonical form: the denominator is positive and
    [gcd (num, den) = 1]. Used for exact transcript probabilities and
    exact error-probability computations in the protocol semantics,
    where accumulated floating-point error would make equality checks
    meaningless.

    Values whose numerator and denominator both fit a 30-bit word are
    stored as native ints and all arithmetic between two such values
    runs without touching {!Bigint}; results that outgrow the word
    bounds fall back to the bigint pair transparently. Both
    representations are canonical (positive denominator, reduced,
    small-word whenever it fits), so exactness and equality semantics
    are unchanged — the fast path is an invisible optimization,
    differentially tested against the bigint path. Products and sums
    with a bigint operand cancel common factors before they multiply
    (Henrici), so they never reduce a full product. *)

type t

val zero : t
val one : t
val half : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is [num/den] in canonical form.
    @raise Division_by_zero if [den] is zero. *)

val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints a b] is [a/b]. @raise Division_by_zero if [b = 0]. *)

val of_bigint : Bigint.t -> t
val num : t -> Bigint.t
val den : t -> Bigint.t

val parts :
  t -> word:(int -> int -> 'a) -> big:(Bigint.t -> Bigint.t -> 'a) -> 'a
(** [parts x ~word ~big] is [word n d] when [x = n/d] sits on the
    word representation and [big num den] otherwise: the canonical
    numerator and denominator, without building a {!Bigint} for a
    word-size value. *)

val to_float : t -> float
(** A float within a few ulps of the value. Finite for every value
    inside the float range, whatever the size of its numerator and
    denominator: a side of 1024 bits or more is cut to its top 62 bits
    before the division and the result rescaled by [Float.ldexp]. *)

val of_float_dyadic : float -> t
(** Exact dyadic rational equal to the given (finite) float.
    @raise Invalid_argument on nan/infinite input. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_one : t -> bool
(** O(1) structural test for exactly 1 — the cheap normalization check
    used by {!Prob.Dist_core} before dividing by a total mass. *)

val min : t -> t -> t
val max : t -> t -> t

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val mul_int : t -> int -> t
val div_int : t -> int -> t
val pow : t -> int -> t
(** [pow x n]; negative [n] inverts. @raise Division_by_zero on [pow zero n]
    with [n < 0]. *)

val sum : t list -> t
val log2 : t -> float
(** Floating-point base-2 logarithm of a positive rational, computed as
    [log2 num - log2 den] to stay accurate for tiny values.
    @raise Invalid_argument on non-positive input. *)

(** {1 Testing hooks}

    Representation probes for the fast-path differential suite. Not part
    of the supported API. *)

module For_testing : sig
  val small_max : int
  (** Inclusive magnitude bound of the small-word representation. *)

  val is_small : t -> bool
  (** Whether the value currently sits on the native-int fast path. *)

  val force_big : t -> t
  (** Same value on the bigint representation, violating canonicity:
      [equal] against the small form returns false (use {!compare} for
      value equality); any arithmetic re-canonicalizes the result. *)

  val add_ref : t -> t -> t
  val mul_ref : t -> t -> t
  val div_ref : t -> t -> t
  (** Reference {!add}, {!mul} and {!div}: a bigint operand multiplies
      out the full products and reduces them by one gcd, where the
      library cancels common factors before it multiplies. *)
end
