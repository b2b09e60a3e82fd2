(** Exact-rational finite probability distributions.

    Same operations as {!Dist} (see there for documentation), with
    weights in {!Exact.Rational}: total masses are exactly 1, transcript
    probabilities are exact products, and conditioning never loses
    precision. The protocol semantics ({!Proto}) lives entirely on this
    instance. *)

type weight = Exact.Rational.t

type 'a t = 'a Dist_core.Make(Weight.Exact).t

val of_weighted : ('a * weight) list -> 'a t

val of_distinct : ('a * weight) array -> 'a t
(** [of_distinct items] is [of_weighted (Array.to_list items)] for
    pairwise distinct values with positive weights summing to exactly
    one, in the same order, without the dedupe and the sum. Unchecked:
    the caller owns those conditions, and hands the array over. *)

val return : 'a -> 'a t
val uniform : 'a list -> 'a t
val bernoulli : weight -> bool t
val map : ('a -> 'b) -> 'a t -> 'b t
val map_injective : ('a -> 'b) -> 'a t -> 'b t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val bind_disjoint : 'a t -> ('a -> 'b t) -> 'b t
val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
val product : 'a t -> 'b t -> ('a * 'b) t
val product_array : 'a t array -> 'a array t
val iid : int -> 'a t -> 'a array t
val to_alist : 'a t -> ('a * weight) list
val support : 'a t -> 'a list
val size : 'a t -> int
val is_point : 'a t -> bool
val prob : 'a t -> ('a -> bool) -> weight
val prob_of : 'a t -> 'a -> weight
val mass : 'a t -> weight
val condition : 'a t -> ('a -> bool) -> 'a t option
val condition_exn : 'a t -> ('a -> bool) -> 'a t
val expectation_with : ('a -> float) -> 'a t -> float
val total_variation : 'a t -> 'a t -> float

val pp :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit

(** {1 Bridges} *)

val to_float_dist : 'a t -> 'a Dist.t
(** Forget exactness (for sampling and float-side measurements). *)

