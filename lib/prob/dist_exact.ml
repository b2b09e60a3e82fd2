(** Exact-rational finite distributions.

    Used by the protocol semantics ({!Proto}) so that transcript
    probabilities, error probabilities, and the Lemma-3 [q]-decomposition
    are computed without rounding; information quantities then take a
    single float logarithm at the end. *)

include Dist_core.Make (Weight.Exact)

let to_float_dist d =
  Dist.of_weighted
    (List.map (fun (v, w) -> (v, Exact.Rational.to_float w)) (to_alist d))
