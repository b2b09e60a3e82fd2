(** Entropy, divergence and mutual information over finite
    distributions, generic in the weight semifield.

    Probabilities may be float or exact-rational (see {!Prob.Weight});
    information quantities are always floats (bits). The exact instance
    is what the protocol semantics uses: probabilities stay exact and
    only the final logarithms are floating point. *)

module Make (W : Prob.Weight.S) : sig
  module D : module type of Prob.Dist_core.Make (W)

  val entropy : 'a D.t -> float
  (** Shannon entropy in bits (Definition 1). *)

  val kl : 'a D.t -> 'a D.t -> float
  (** [kl p q] is [D(p || q)] (Definition 4); [infinity] if [p]'s
      support escapes [q]'s. *)

  val conditional_entropy : ('a * 'b) D.t -> float
  (** [H(A | B)] for a joint law of [(a, b)] (Definition 2). *)

  val mutual_information : ('a * 'b) D.t -> float
  (** [I(A ; B)] (Definition 3). *)

  val conditional_mutual_information : ('a * 'b * 'c) D.t -> float
  (** [I(A ; B | C)] for a joint law of [(a, b, c)] (Definition 3). *)

  val mi_as_expected_divergence : ('a * 'b) D.t -> float
  (** Eq. (1) of the paper: [I(A;B) = E_b D(law(A|B=b) || law(A))].
      Equals {!mutual_information}; exposed so tests confirm the
      identity. *)

  val chain_rule_residual : ('a * 'b) D.t -> float
  (** [H(A,B) - H(B) - H(A|B)]; zero up to float noise. *)
end

module Float : module type of Make (Prob.Weight.Float)
module Exact_w : module type of Make (Prob.Weight.Exact)
