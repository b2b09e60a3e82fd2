(** Float-weighted finite probability distributions.

    The measurement-scale workhorse: protocols' empirical laws,
    samplers' inputs, experiment statistics. For exact-rational
    probabilities (used throughout the protocol semantics) see
    {!Dist_exact}; both share the functorized core {!Dist_core.Make}, so
    the operations below are documented once here.

    A distribution is a normalized finite list of [(value, weight)]
    pairs with strictly positive weights. Values are deduplicated with
    structural equality; ground data types only (ints, bools, arrays,
    lists, tuples — never functions). *)

type weight = float

type 'a t = 'a Dist_core.Make(Weight.Float).t
(** Equal to the functor instance's type so that code generic over
    {!Dist_core.Make} (e.g. {!Infotheory.Measures}) interoperates. *)

(** {1 Construction} *)

val of_weighted : ('a * float) list -> 'a t
(** Deduplicate, drop non-positive weights, normalize to total mass 1.
    @raise Invalid_argument if no positive mass remains. *)

val return : 'a -> 'a t
(** Point mass. *)

val uniform : 'a list -> 'a t
(** @raise Invalid_argument on an empty list. *)

val bernoulli : float -> bool t
(** [bernoulli p] is [true] with probability [p].
    @raise Invalid_argument unless [0 <= p <= 1]. *)

val binomial : int -> float -> int t
val geometric_truncated : float -> int -> int t
(** [geometric_truncated p n]: unnormalized geometric restricted to
    [\[0, n)] and renormalized. *)


(** {1 Monadic structure} *)

val map : ('a -> 'b) -> 'a t -> 'b t

val map_injective : ('a -> 'b) -> 'a t -> 'b t
(** [map f d] when [f] is injective on the support of [d]: skips
    deduplication and renormalization, preserving item order and
    weights exactly. Unchecked precondition. *)

val bind : 'a t -> ('a -> 'b t) -> 'b t

val bind_disjoint : 'a t -> ('a -> 'b t) -> 'b t
(** [bind d f] when the supports of [f v] are pairwise disjoint across
    the support of [d]: skips deduplication and renormalization.
    Unchecked precondition; on float weights prefer {!bind} unless
    bit-exact item order matters. *)

val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
val product : 'a t -> 'b t -> ('a * 'b) t
val product_array : 'a t array -> 'a array t
val iid : int -> 'a t -> 'a array t
(** [iid n d]: [n] independent copies, as arrays. *)

(** {1 Queries} *)

val to_alist : 'a t -> ('a * float) list
val support : 'a t -> 'a list
val size : 'a t -> int
val is_point : 'a t -> bool
val prob : 'a t -> ('a -> bool) -> float
val prob_of : 'a t -> 'a -> float
val mass : 'a t -> float
(** Total mass; 1 up to float rounding (exactly 1 for {!Dist_exact}). *)

val condition : 'a t -> ('a -> bool) -> 'a t option
(** Conditional distribution; [None] on a null event. *)

val condition_exn : 'a t -> ('a -> bool) -> 'a t

val expectation_with : ('a -> float) -> 'a t -> float
val expectation : float t -> float
val variance : float t -> float
val total_variation : 'a t -> 'a t -> float

val pp :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
