(** Property tests of the exact semantics on {e randomly generated}
    protocol trees — the invariants must hold for every protocol, not
    just the hand-written ones. *)

module T = Proto.Tree
module Sem = Proto.Semantics
module Info = Proto.Information
module Q = Proto.Qdecomp
module D = Prob.Dist_exact
module R = Exact.Rational
open Test_util

(* Generate a random protocol tree over bit inputs with [k] players:
   bounded depth, arities 2-3, random rational emission laws, occasional
   chance nodes. Driven by our own PRNG from a qcheck-supplied seed so
   shrinking stays meaningful on the seed. *)
let random_tree ~rng ~k ~depth =
  let rational_dist arity =
    (* random positive rational weights with small denominators *)
    let weights =
      List.init arity (fun i -> (i, R.of_ints (1 + Prob.Rng.int rng 5) 6))
    in
    D.of_weighted weights
  in
  let rec go depth =
    if depth = 0 || Prob.Rng.int rng 4 = 0 then T.output (Prob.Rng.int rng 2)
    else begin
      let arity = 2 + Prob.Rng.int rng 2 in
      let children = Array.init arity (fun _ -> go (depth - 1)) in
      if Prob.Rng.int rng 5 = 0 then
        T.chance ~coin:(rational_dist arity) children
      else begin
        let speaker = Prob.Rng.int rng k in
        let law0 = rational_dist arity and law1 = rational_dist arity in
        T.speak ~speaker ~emit:(fun b -> if b = 0 then law0 else law1) children
      end
    end
  in
  go depth

let k = 3

let with_random_tree seed f =
  let rng = Prob.Rng.of_int_seed seed in
  let tree = random_tree ~rng ~k ~depth:(2 + Prob.Rng.int rng 3) in
  f tree

let prop_transcript_mass_one =
  qtest "transcript law has exact mass 1" ~count:100 QCheck.small_nat
    (fun seed ->
      with_random_tree seed (fun tree ->
          List.for_all
            (fun x -> R.equal R.one (D.mass (Sem.transcript_dist tree x)))
            (Sem.all_bit_inputs k)))

let rec chance_free = function
  | T.Output _ -> true
  | T.Chance _ -> false
  | T.Speak { children; _ } -> Array.for_all chance_free children

let prop_ic_le_entropy =
  qtest "IC <= H(T), IC <= CC on random trees" ~count:60 QCheck.small_nat
    (fun seed ->
      with_random_tree seed (fun tree ->
          let mu = Protocols.Hard_dist.mu_and ~k in
          let ic = Info.external_ic tree mu in
          let h = Info.transcript_entropy tree mu in
          let cc = float_of_int (T.communication_cost tree) in
          (* public coins inflate H(T) but are free, so H(T) <= CC only
             holds for chance-free trees; IC <= CC always does *)
          ic <= h +. 1e-9
          && ic <= cc +. 1e-9
          && ((not (chance_free tree)) || h <= cc +. 1e-9)))

let prop_per_round_sums_to_ic =
  qtest "chain rule on random trees" ~count:60 QCheck.small_nat (fun seed ->
      with_random_tree seed (fun tree ->
          let mu = Protocols.Hard_dist.mu_and ~k in
          let ic = Info.external_ic tree mu in
          let total =
            Array.fold_left ( +. ) 0. (Info.per_round_information tree mu)
          in
          Float.abs (ic -. total) < 1e-8))

let prop_qdecomp_reconstructs =
  qtest "Lemma 3 factorization on random trees" ~count:50 QCheck.small_nat
    (fun seed ->
      with_random_tree seed (fun tree ->
          List.for_all
            (fun x ->
              let law = Sem.transcript_dist tree x in
              List.for_all
                (fun (tr, p) ->
                  let q = Q.of_transcript tree ~k tr in
                  R.equal p (Q.transcript_prob q x))
                (D.to_alist law))
            (Sem.all_bit_inputs k)))

let prop_cic_le_entropy =
  qtest "CIC <= H(T) on random trees" ~count:40 QCheck.small_nat (fun seed ->
      with_random_tree seed (fun tree ->
          let mu_aux = Protocols.Hard_dist.mu_and_with_aux ~k in
          let cic = Info.conditional_ic tree mu_aux in
          let h =
            Info.transcript_entropy tree (Protocols.Hard_dist.mu_and ~k)
          in
          -1e-9 <= cic && cic <= h +. 1e-9))

let prop_lemma2_superadditivity =
  qtest "Lemma 2 on random trees" ~count:25 QCheck.small_nat (fun seed ->
      with_random_tree seed (fun tree ->
          let mu_aux = Protocols.Hard_dist.mu_and_with_aux ~k in
          let cic = Info.conditional_ic tree mu_aux in
          let rhs, _ = Lowerbound.Bounds.lemma2_rhs tree mu_aux ~k in
          rhs <= cic +. 1e-8))

let prop_yao_mixture =
  qtest "Yao error mixture exact on random trees" ~count:30 QCheck.small_nat
    (fun seed ->
      with_random_tree seed (fun tree ->
          let mu = Protocols.Hard_dist.mu_and ~k in
          let randomized, parts =
            Yao.error_mixture tree ~f:Protocols.Hard_dist.and_fn mu
          in
          let mixture =
            List.fold_left
              (fun acc (w, e) -> R.add acc (R.mul w e))
              R.zero parts
          in
          R.equal randomized mixture))

let prop_expected_bits_le_cc =
  qtest "E[bits] <= CC on random trees" ~count:60 QCheck.small_nat
    (fun seed ->
      with_random_tree seed (fun tree ->
          let mu = Protocols.Hard_dist.mu_and ~k in
          Sem.expected_bits tree mu
          <= float_of_int (T.communication_cost tree) +. 1e-9))

let prop_map_output_preserves_information =
  qtest "map_output(id-like) preserves IC" ~count:40 QCheck.small_nat
    (fun seed ->
      with_random_tree seed (fun tree ->
          (* injective output relabeling cannot change the transcript law *)
          let relabeled = Proto.Combinators.map_output (fun v -> v + 7) tree in
          let mu = Protocols.Hard_dist.mu_and ~k in
          Float.abs
            (Info.external_ic tree mu -. Info.external_ic relabeled mu)
          < 1e-12))

let suite =
  [
    prop_transcript_mass_one;
    prop_ic_le_entropy;
    prop_per_round_sums_to_ic;
    prop_qdecomp_reconstructs;
    prop_cic_le_entropy;
    prop_lemma2_superadditivity;
    prop_yao_mixture;
    prop_expected_bits_le_cc;
    prop_map_output_preserves_information;
  ]
