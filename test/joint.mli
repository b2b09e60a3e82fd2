(** Operations on joint distributions represented as distributions over
    pairs, generic over the weight semifield (instances for float and
    exact-rational weights); a test fixture. *)

module Make (W : Prob.Weight.S) : sig
  module D : module type of Prob.Dist_core.Make (W)

  val marginal_fst : ('a * 'b) D.t -> 'a D.t
  val marginal_snd : ('a * 'b) D.t -> 'b D.t

  val conditional_snd : ('a * 'b) D.t -> 'a -> 'b D.t option
  (** Law of the second component given the first; [None] on a
      zero-mass value. *)

  val conditional_fst : ('a * 'b) D.t -> 'b -> 'a D.t option

  val of_kernel : 'a D.t -> ('a -> 'b D.t) -> ('a * 'b) D.t
  (** Joint law from a marginal and a conditional kernel. *)

  val swap : ('a * 'b) D.t -> ('b * 'a) D.t

  val independent : ('a * 'b) D.t -> bool
  (** Exact independence check (weight equality, no tolerance). *)
end

module Float : module type of Make (Prob.Weight.Float)
module Exact_w : module type of Make (Prob.Weight.Exact)
