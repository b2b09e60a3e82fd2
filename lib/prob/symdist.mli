(** Orbit-weighted symmetric input distributions.

    Collapsed representation of a distribution over player-input
    profiles ['a array] that is exchangeable within declared blocks of
    players: per-block value {e compositions} (how many players of each
    block hold each domain value) with one exact per-member weight per
    composition class. For fully symmetric 0/1 inputs a class is a
    Hamming-weight level, so a [2^k] law becomes [k + 1] terms. This is
    the input format of the orbit evaluation engine ({!Proto.Orbit}). *)

type comp = int array array
(** [comp.(b).(v)] = number of block-[b] players holding domain value
    index [v]. *)

type 'a t

val domain : 'a t -> 'a array
val blocks : 'a t -> int array
(** Player index to block id ([0 .. n_blocks - 1]). *)

val players : 'a t -> int

val classes : 'a t -> (comp * Exact.Rational.t) list
(** Support classes with their per-{e member} weights (multiply by
    {!comp_orbit_size} for the class mass). *)

val binom : int -> int -> Exact.Rational.t
(** Exact binomial coefficient (an integer, as a rational). *)

val multinomial : int -> int array -> Exact.Rational.t
(** [multinomial n counts] = [n! / prod counts.(v)!].
    @raise Invalid_argument if the counts do not sum to [n]. *)

val comp_orbit_size : int array -> comp -> Exact.Rational.t
(** Orbit size of a composition under the block-wise symmetric group:
    the product of per-block multinomials. First argument: block sizes. *)

val comp_of_profile :
  blocks:int array -> n_blocks:int -> n_values:int -> int array -> comp
(** Composition of a profile given as domain {e indices}. *)

val mass_of_comp : 'a t -> comp -> Exact.Rational.t
(** Per-member weight of the class; zero off the support. *)

val mass_of_profile : 'a t -> 'a array -> Exact.Rational.t
(** Per-member weight of an explicit profile. *)

val all_comps : block_sizes:int array -> n_values:int -> comp list
(** Every composition of the given blocks over [n_values] values, in a
    fixed lexicographic order. *)

val of_classes :
  domain:'a array ->
  blocks:int array ->
  (comp * Exact.Rational.t) list ->
  'a t
(** Build from explicit classes (per-member weights). Validates block
    structure and that the total mass [sum_c w_c * |orbit c|] is exactly
    1. Zero-weight classes are dropped.
    @raise Invalid_argument on malformed input. *)

val iid_blocks :
  domain:'a array ->
  blocks:int array ->
  Exact.Rational.t array array ->
  'a t
(** Independent players, identically distributed within each block:
    [weights.(b).(v)] is the probability a block-[b] player holds
    [domain.(v)]. *)

val relabel : 'a t -> blocks:int array -> 'a t
(** [relabel t ~blocks] is [t]'s class weights over another
    player-to-block assignment: the law of [t] with its players
    permuted. It shares [t]'s classes and mass table, so it costs no
    class enumeration.
    @raise Invalid_argument unless [blocks] gives every block of [t]
    its size in [t]. *)

val uniform : domain:'a array -> blocks:int array -> 'a t
(** Uniform iid over the domain. *)

val to_dist : 'a t -> 'a array Dist_exact.t
(** Expand to the explicit law — exponential in the player count;
    differential tests only. *)

val of_dist :
  domain:'a array ->
  blocks:int array ->
  'a array Dist_exact.t ->
  ('a t, 'a array * 'a array) result
(** Collapse an explicit law, {e refusing} laws that are not actually
    block-exchangeable: [Error (x, x')] returns a concrete witness —
    two profiles in the same orbit carrying different masses (or a
    class only partially covered by the support). *)
