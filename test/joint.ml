(** Operations on joint distributions represented as distributions over
    pairs. Generic over the weight semifield via a functor, with
    instances for both float and exact-rational weights. *)

module Make (W : Prob.Weight.S) = struct
  module D = Prob.Dist_core.Make (W)

  let marginal_fst j = D.map fst j
  let marginal_snd j = D.map snd j

  (** [conditional_snd j x] is the law of the second component given that
      the first equals [x]; [None] if [x] has zero mass. *)
  let conditional_snd j x =
    match D.condition j (fun (a, _) -> a = x) with
    | None -> None
    | Some d -> Some (D.map snd d)

  let conditional_fst j y =
    match D.condition j (fun (_, b) -> b = y) with
    | None -> None
    | Some d -> Some (D.map fst d)

  (** Build a joint law from a marginal on the first component and a
      kernel giving the conditional law of the second. *)
  let of_kernel marginal kernel =
    D.bind marginal (fun x -> D.map (fun y -> (x, y)) (kernel x))

  let swap j = D.map (fun (a, b) -> (b, a)) j

  (** Check independence up to exact weight equality. *)
  let independent j =
    let ma = marginal_fst j and mb = marginal_snd j in
    List.for_all
      (fun (x, _) ->
        List.for_all
          (fun (y, _) ->
            W.equal
              (D.prob_of j (x, y))
              (W.mul (D.prob_of ma x) (D.prob_of mb y)))
          (D.to_alist mb))
      (D.to_alist ma)
end

module Float = Make (Prob.Weight.Float)
module Exact_w = Make (Prob.Weight.Exact)
