(** Tests for finite distributions (float and exact-rational) and the
    alias-method sampler. *)

module D = Prob.Dist
module De = Prob.Dist_exact
module R = Exact.Rational
open Test_util

let t_normalization () =
  let d = D.of_weighted [ (0, 2.); (1, 6.) ] in
  check_float ~msg:"p0" 0.25 (D.prob_of d 0);
  check_float ~msg:"p1" 0.75 (D.prob_of d 1)

let t_dedupe () =
  let d = D.of_weighted [ (0, 1.); (0, 1.); (1, 2.) ] in
  check_float ~msg:"merged mass" 0.5 (D.prob_of d 0);
  Alcotest.(check int) "support size" 2 (D.size d)

let t_zero_weights_dropped () =
  let d = D.of_weighted [ (0, 1.); (1, 0.); (2, -3.) ] in
  Alcotest.(check int) "only positive kept" 1 (D.size d)

let t_empty_rejected () =
  Alcotest.check_raises "no mass"
    (Invalid_argument "Dist.of_weighted: no positive mass") (fun () ->
      ignore (D.of_weighted [ (0, 0.) ]))

let t_return () =
  let d = D.return 42 in
  Alcotest.(check bool) "point" true (D.is_point d);
  check_float ~msg:"mass" 1. (D.prob_of d 42)

let t_map_merges () =
  let d = D.uniform [ 0; 1; 2; 3 ] in
  let e = D.map (fun x -> x mod 2) d in
  check_float ~msg:"even" 0.5 (D.prob_of e 0);
  Alcotest.(check int) "two values" 2 (D.size e)

let t_bind () =
  (* two-stage experiment: flip, then biased flip *)
  let d =
    D.bind (D.bernoulli 0.5) (fun b ->
        if b then D.bernoulli 0.8 else D.bernoulli 0.2)
  in
  check_float ~msg:"total true" 0.5 (D.prob_of d true)

let t_monad_left_identity () =
  let f x = D.uniform [ x; x + 1 ] in
  let lhs = D.bind (D.return 5) f in
  check_float ~msg:"left identity" 0. (D.total_variation lhs (f 5))

let t_monad_assoc () =
  let m = D.uniform [ 0; 1 ] in
  let f x = D.uniform [ x; x + 1 ] in
  let g x = D.uniform [ x * 2; (x * 2) + 1 ] in
  let lhs = D.bind (D.bind m f) g in
  let rhs = D.bind m (fun x -> D.bind (f x) g) in
  check_float ~msg:"associativity" ~eps:1e-12 0. (D.total_variation lhs rhs)

let t_product () =
  let d = D.product (D.bernoulli 0.5) (D.bernoulli 0.25) in
  check_float ~msg:"(t,t)" 0.125 (D.prob_of d (true, true));
  check_float ~msg:"(f,f)" 0.375 (D.prob_of d (false, false))

let t_iid () =
  let d = D.iid 3 (D.bernoulli 0.5) in
  Alcotest.(check int) "support 8" 8 (D.size d);
  check_float ~msg:"each 1/8" 0.125 (D.prob_of d [| true; false; true |])

let t_condition () =
  let d = D.uniform [ 0; 1; 2; 3; 4; 5 ] in
  match D.condition d (fun x -> x mod 2 = 0) with
  | None -> Alcotest.fail "conditioning should succeed"
  | Some e ->
      check_float ~msg:"p0 given even" (1. /. 3.) (D.prob_of e 0);
      Alcotest.(check (option unit)) "null event" None
        (Option.map ignore (D.condition d (fun x -> x > 10)))

let t_expectation_variance () =
  let d = D.uniform [ 1.; 2.; 3. ] in
  check_float ~msg:"mean" 2. (D.expectation d);
  check_float ~msg:"variance" (2. /. 3.) (D.variance d)

let t_binomial_law () =
  let d = D.binomial 4 0.5 in
  check_float ~msg:"P[X=2]" 0.375 (D.prob_of d 2);
  check_float ~msg:"P[X=0]" 0.0625 (D.prob_of d 0)

let t_exact_weights () =
  let d = De.of_weighted [ (0, R.of_ints 1 3); (1, R.of_ints 2 3) ] in
  check_rational ~msg:"exact p0" (R.of_ints 1 3) (De.prob_of d 0);
  check_rational ~msg:"exact mass" R.one (De.mass d)

let t_exact_iid_mass () =
  (* iid of exact distributions keeps exact total mass 1 *)
  let d = De.iid 4 (De.of_weighted [ (0, R.of_ints 1 7); (1, R.of_ints 6 7) ]) in
  check_rational ~msg:"mass 1" R.one (De.mass d);
  check_rational ~msg:"corner" (R.pow (R.of_ints 1 7) 4)
    (De.prob_of d [| 0; 0; 0; 0 |])

let t_joint_ops () =
  let module J = Joint.Float in
  let j =
    D.of_weighted [ ((0, 'a'), 0.25); ((0, 'b'), 0.25); ((1, 'a'), 0.5) ]
  in
  check_float ~msg:"marginal fst" 0.5 (D.prob_of (J.marginal_fst j) 0);
  (match J.conditional_snd j 0 with
  | None -> Alcotest.fail "conditional exists"
  | Some c -> check_float ~msg:"P[b|0]" 0.5 (D.prob_of c 'b'));
  Alcotest.(check bool) "not independent" false (J.independent j);
  let indep = D.product (D.bernoulli 0.3) (D.bernoulli 0.7) in
  Alcotest.(check bool) "product independent" true (J.independent indep)

let t_kernel () =
  let module J = Joint.Float in
  let j =
    J.of_kernel (D.bernoulli 0.5) (fun b ->
        if b then D.return 1 else D.uniform [ 0; 1 ])
  in
  check_float ~msg:"P[(true,1)]" 0.5 (D.prob_of j (true, 1));
  check_float ~msg:"P[(false,0)]" 0.25 (D.prob_of j (false, 0))

let t_sampler_matches_dist () =
  let d = D.of_weighted [ (0, 0.5); (1, 0.3); (2, 0.2) ] in
  let s = Prob.Sampler.create d in
  let rng = Prob.Rng.of_int_seed 77 in
  let emp = Prob.Sampler.empirical s rng 100_000 in
  check_le ~msg:"TV to source" (D.total_variation d emp) 0.01

let t_sampler_point_mass () =
  let s = Prob.Sampler.create (D.return 9) in
  let rng = Prob.Rng.of_int_seed 1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "always 9" 9 (Prob.Sampler.draw s rng)
  done

let prop_mass_one =
  qtest "float dist mass is 1" float_dist_gen (fun d ->
      Float.abs (D.mass d -. 1.) < 1e-9)

let prop_exact_mass_one =
  qtest "exact dist mass is exactly 1" exact_dist_gen (fun d ->
      R.equal R.one (De.mass d))

let prop_map_preserves_mass =
  qtest "map preserves mass" float_dist_gen (fun d ->
      Float.abs (D.mass (D.map (fun x -> x mod 3) d) -. 1.) < 1e-9)

let prop_tv_symmetric =
  qtest "TV symmetric" (QCheck.pair float_dist_gen float_dist_gen)
    (fun (a, b) ->
      Float.abs (D.total_variation a b -. D.total_variation b a) < 1e-12)

let prop_tv_triangle =
  qtest "TV triangle inequality"
    (QCheck.triple float_dist_gen float_dist_gen float_dist_gen)
    (fun (a, b, c) ->
      D.total_variation a c
      <= D.total_variation a b +. D.total_variation b c +. 1e-12)

(* --- unsafe-fast monadic ops: must equal the generic ones ---------- *)
(* [map_injective]/[bind_disjoint] skip dedupe and renormalization under
   preconditions the callers prove; on inputs satisfying them the result
   must be identical to [map]/[bind] — same items, same weights, same
   order (downstream float folds are order-sensitive). *)

let exact_alist_equal a b =
  let la = De.to_alist a and lb = De.to_alist b in
  List.length la = List.length lb
  && List.for_all2 (fun (v, w) (v', w') -> v = v' && R.equal w w') la lb

let prop_map_injective_matches_map =
  qtest "map_injective = map for injective f" exact_dist_gen (fun d ->
      exact_alist_equal
        (De.map (fun x -> (x * 7) + 1) d)
        (De.map_injective (fun x -> (x * 7) + 1) d))

let prop_bind_disjoint_matches_bind =
  qtest "bind_disjoint = bind for disjoint continuations" exact_dist_gen
    (fun d ->
      (* tagging by the source value keeps supports pairwise disjoint *)
      let f v = De.uniform [ (v, 0); (v, 1); (v, 2) ] in
      exact_alist_equal (De.bind d f) (De.bind_disjoint d f))

let t_map_injective_keeps_order () =
  let d = De.of_weighted [ (3, R.half); (1, R.of_ints 1 3); (2, R.of_ints 1 6) ] in
  Alcotest.(check (list int)) "support order preserved" [ 30; 10; 20 ]
    (De.support (De.map_injective (fun x -> 10 * x) d))

let suite =
  [
    quick "normalization" t_normalization;
    quick "dedupe" t_dedupe;
    quick "zero weights dropped" t_zero_weights_dropped;
    quick "empty rejected" t_empty_rejected;
    quick "return" t_return;
    quick "map merges" t_map_merges;
    quick "bind" t_bind;
    quick "monad left identity" t_monad_left_identity;
    quick "monad associativity" t_monad_assoc;
    quick "product" t_product;
    quick "iid" t_iid;
    quick "condition" t_condition;
    quick "expectation/variance" t_expectation_variance;
    quick "binomial" t_binomial_law;
    quick "exact weights" t_exact_weights;
    quick "exact iid mass" t_exact_iid_mass;
    quick "joint operations" t_joint_ops;
    quick "kernel construction" t_kernel;
    slow "sampler matches distribution" t_sampler_matches_dist;
    quick "sampler point mass" t_sampler_point_mass;
    prop_mass_one;
    prop_exact_mass_one;
    prop_map_preserves_mass;
    prop_tv_symmetric;
    prop_tv_triangle;
    prop_map_injective_matches_map;
    prop_bind_disjoint_matches_bind;
    quick "map_injective keeps order" t_map_injective_keeps_order;
  ]
