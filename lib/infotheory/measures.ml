(** Entropy, divergence and mutual information over finite
    distributions, generic in the weight semifield.

    Probabilities may be float or exact-rational (see {!Prob.Weight});
    the resulting information quantities are always floats (bits). The
    exact instance matters for the protocol semantics: transcript
    probabilities there are exact, and only the final logarithms are
    floating point. *)

module Make (W : Prob.Weight.S) = struct
  module D = Prob.Dist_core.Make (W)

  let entropy d =
    Fn.kahan_sum
      (List.map (fun (_, w) -> -.Fn.xlog2x (W.to_float w)) (D.to_alist d))

  (** [kl p q] is [D(p || q)] in bits; [infinity] if the support of [p]
      is not contained in the support of [q]. *)
  let kl p q =
    Fn.kahan_sum
      (List.map
         (fun (v, wp) ->
           let fp = W.to_float wp in
           let fq = W.to_float (D.prob_of q v) in
           if fp <= 0. then 0.
           else if fq <= 0. then infinity
           else fp *. Fn.log2 (fp /. fq))
         (D.to_alist p))

  (** [conditional_entropy j] is [H(A | B)] for a joint law of [(a, b)]. *)
  let conditional_entropy j =
    let mb = D.map snd j in
    Fn.kahan_sum
      (List.map
         (fun (b, wb) ->
           match D.condition j (fun (_, b') -> b' = b) with
           | None -> 0.
           | Some cond -> W.to_float wb *. entropy (D.map fst cond))
         (D.to_alist mb))

  (** [mutual_information j] is [I(A ; B)] for a joint law of [(a, b)]. *)
  let mutual_information j =
    let ma = D.map fst j and mb = D.map snd j in
    Fn.kahan_sum
      (List.map
         (fun ((a, b), w) ->
           let fw = W.to_float w in
           let pa = W.to_float (D.prob_of ma a) in
           let pb = W.to_float (D.prob_of mb b) in
           if fw <= 0. then 0. else fw *. Fn.log2 (fw /. (pa *. pb)))
         (D.to_alist j))

  (** [conditional_mutual_information j] is [I(A ; B | C)] for a joint
      law of [(a, b, c)]: the [c]-average of the mutual information of
      [(a, b)] given [C = c]. *)
  let conditional_mutual_information j =
    let mc = D.map (fun (_, _, c) -> c) j in
    Fn.kahan_sum
      (List.map
         (fun (c, wc) ->
           match D.condition j (fun (_, _, c') -> c' = c) with
           | None -> 0.
           | Some cond ->
               let ab = D.map (fun (a, b, _) -> (a, b)) cond in
               W.to_float wc *. mutual_information ab)
         (D.to_alist mc))

  (** Mutual information as expected divergence of posterior from prior
      (eq. (1) of the paper): [I(A;B) = E_b D( law(A|B=b) || law(A) )].
      Exposed separately so tests can confirm the identity. *)
  let mi_as_expected_divergence j =
    let ma = D.map fst j and mb = D.map snd j in
    Fn.kahan_sum
      (List.map
         (fun (b, wb) ->
           match D.condition j (fun (_, b') -> b' = b) with
           | None -> 0.
           | Some cond -> W.to_float wb *. kl (D.map fst cond) ma)
         (D.to_alist mb))

  (** Entropy chain rule residual [H(A,B) - H(B) - H(A|B)]; zero up to
      float noise. Used by property tests. *)
  let chain_rule_residual j =
    entropy j -. entropy (D.map snd j) -. conditional_entropy j
end

module Float = Make (Prob.Weight.Float)
module Exact_w = Make (Prob.Weight.Exact)
