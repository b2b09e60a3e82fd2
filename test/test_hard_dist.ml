(** Tests that the hard distributions have exactly the properties the
    paper's proofs rely on. *)

module H = Protocols.Hard_dist
module D = Prob.Dist_exact
module R = Exact.Rational
open Test_util

let t_support_has_and_zero () =
  (* Condition (1) of Lemma 1: every input in the support has AND = 0. *)
  List.iter
    (fun k ->
      List.iter
        (fun ((x, _z), _w) ->
          Alcotest.(check int) "AND = 0 on support" 0 (H.and_fn x))
        (D.to_alist (H.mu_and_with_aux ~k)))
    [ 2; 3; 4; 5 ]

let t_forced_zero_at_z () =
  List.iter
    (fun ((x, z), _w) ->
      Alcotest.(check int) "X_Z = 0" 0 x.(z))
    (D.to_alist (H.mu_and_with_aux ~k:4))

let t_conditional_independence () =
  (* Condition (2) of Lemma 1: given Z = z, the inputs are independent
     with Pr[X_i = 0] = 1/k for i <> z. Check the product formula holds
     exactly for every support point. *)
  let k = 4 in
  let mu = H.mu_and_with_aux ~k in
  for z = 0 to k - 1 do
    let cond = D.condition_exn mu (fun (_, z') -> z' = z) in
    List.iter
      (fun ((x, _), w) ->
        let expected = ref R.one in
        Array.iteri
          (fun i b ->
            if i <> z then
              expected :=
                R.mul !expected
                  (if b = 0 then R.of_ints 1 k else R.of_ints (k - 1) k))
          x;
        check_rational ~msg:"product form" !expected w)
      (D.to_alist cond)
  done

let t_pairwise_independence_given_z () =
  (* direct check: joint of (X_1, X_2) given Z = 0 factorizes *)
  let k = 4 in
  let mu = H.mu_and_with_aux ~k in
  let cond = D.condition_exn mu (fun (_, z) -> z = 0) in
  let pair = D.map (fun (x, _) -> (x.(1), x.(2))) cond in
  let module J = Joint.Exact_w in
  Alcotest.(check bool) "independent" true (J.independent pair)

let t_marginal_zero_probability () =
  (* For i <> Z the zero probability is 1/k; overall,
     Pr[X_i = 0] = Pr[Z=i] + Pr[Z<>i]/k = 1/k + (k-1)/k^2. *)
  let k = 5 in
  let mu = H.mu_and ~k in
  let expected =
    R.add (R.of_ints 1 k) (R.mul (R.of_ints (k - 1) k) (R.of_ints 1 k))
  in
  for i = 0 to k - 1 do
    check_rational
      ~msg:(Printf.sprintf "player %d" i)
      expected
      (D.prob (mu) (fun x -> x.(i) = 0))
  done

let t_slice_counts () =
  let k = 5 in
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "slice %d size" c)
        (Exact.Bigint.to_int_exn (Exact.Bigint.binomial k c))
        (List.length (H.slice ~k ~c)))
    [ 0; 1; 2; 3; 4; 5 ]

let t_slice_mass_two_zeroes_constant () =
  (* The paper conditions on exactly two zeros, which must have constant
     probability. Pr[exactly 2 zeros] = (k-1) * (1/k) * ((k-1)/k)^(k-2):
     the forced zero plus exactly one more. *)
  List.iter
    (fun k ->
      let expected =
        R.mul
          (R.mul_int (R.of_ints 1 k) (k - 1))
          (R.pow (R.of_ints (k - 1) k) (k - 2))
      in
      check_rational ~msg:(Printf.sprintf "k=%d" k) expected
        (H.slice_mass ~k ~c:2))
    [ 2; 3; 4; 5; 6 ];
  (* and it converges to 1/e as k grows, staying above 0.25 *)
  let m = R.to_float (H.slice_mass ~k:8 ~c:2) in
  check_ge ~msg:"constant mass" m 0.25

let t_mass_one () =
  List.iter
    (fun k ->
      check_rational ~msg:"mu mass" R.one (D.mass (H.mu_and_with_aux ~k)))
    [ 2; 3; 4; 5; 6 ]

let t_uniform_on_slice () =
  let k = 4 in
  let d = H.mu_on_slice ~k ~c:2 in
  let expected = R.of_ints 1 (Exact.Bigint.to_int_exn (Exact.Bigint.binomial k 2)) in
  List.iter
    (fun (_, w) -> check_rational ~msg:"uniform" expected w)
    (D.to_alist d)

let t_lemma6_distribution () =
  let k = 4 in
  let eps' = R.of_ints 1 5 in
  let mu = H.mu_lemma6 ~k ~eps' in
  check_rational ~msg:"all ones mass" eps'
    (D.prob mu (fun x -> Array.for_all (fun b -> b = 1) x));
  check_rational ~msg:"single zero each" (R.of_ints 1 5)
    (D.prob mu (fun x -> x.(2) = 0));
  check_rational ~msg:"mass" R.one (D.mass mu)

let t_disj_product_structure () =
  (* mu^n: coordinates are iid copies of mu *)
  let n = 2 and k = 3 in
  let mu = H.mu_disj_with_aux ~n ~k in
  check_rational ~msg:"mass" R.one (D.mass mu);
  (* every coordinate column must be in mu's support: AND of column = 0 *)
  List.iter
    (fun ((x, z), _w) ->
      Alcotest.(check int) "z length" n (Array.length z);
      for j = 0 to n - 1 do
        let col = Array.init k (fun i -> x.(i).(j)) in
        Alcotest.(check int) "column AND = 0" 0 (H.and_fn col);
        Alcotest.(check int) "forced zero" 0 x.(z.(j)).(j)
      done)
    (D.to_alist mu);
  (* marginal of coordinate 0 equals mu_and *)
  let marg0 =
    D.map (fun (x, _) -> Array.init k (fun i -> x.(i).(0))) mu
  in
  let expected = H.mu_and ~k in
  List.iter
    (fun (v, w) -> check_rational ~msg:"marginal" w (D.prob_of marg0 v))
    (D.to_alist expected)

let t_disj_fn () =
  Alcotest.(check int) "disjoint" 1
    (H.disj_fn [| [| 1; 0 |]; [| 0; 1 |] |]);
  Alcotest.(check int) "intersecting" 0
    (H.disj_fn [| [| 1; 1 |]; [| 0; 1 |] |]);
  Alcotest.(check int) "empty universe" 1 (H.disj_fn [| [||]; [||] |])

let t_parameterized_family () =
  (* every member of the p_zero family satisfies Lemma 1's conditions *)
  let k = 4 in
  List.iter
    (fun p_zero ->
      let mu = H.mu_and_with_aux_p ~k ~p_zero in
      check_rational ~msg:"mass" R.one (D.mass mu);
      List.iter
        (fun ((x, z), _) ->
          Alcotest.(check int) "AND = 0" 0 (H.and_fn x);
          Alcotest.(check int) "forced zero" 0 x.(z))
        (D.to_alist mu))
    [ R.zero; R.of_ints 1 16; R.of_ints 1 4; R.half; R.one ];
  (* the paper's instance is the 1/k member *)
  let a = H.mu_and_with_aux ~k in
  let b = H.mu_and_with_aux_p ~k ~p_zero:(R.of_ints 1 k) in
  List.iter
    (fun (v, w) -> check_rational ~msg:"same law" w (D.prob_of b v))
    (D.to_alist a)

let t_parameterized_out_of_range () =
  Alcotest.check_raises "p_zero > 1"
    (Invalid_argument "Hard_dist.mu_and_with_aux_p: p_zero out of range")
    (fun () -> ignore (H.mu_and_with_aux_p ~k:3 ~p_zero:(R.of_int 2)))

let suite =
  [
    quick "support has AND = 0 (Lemma 1 cond 1)" t_support_has_and_zero;
    quick "forced zero at Z" t_forced_zero_at_z;
    quick "conditional independence (Lemma 1 cond 2)" t_conditional_independence;
    quick "pairwise independence given Z" t_pairwise_independence_given_z;
    quick "marginal zero probability" t_marginal_zero_probability;
    quick "slice sizes" t_slice_counts;
    quick "two-zero slice has constant mass" t_slice_mass_two_zeroes_constant;
    quick "total mass one" t_mass_one;
    quick "uniform on slice" t_uniform_on_slice;
    quick "Lemma 6 distribution" t_lemma6_distribution;
    quick "mu^n product structure" t_disj_product_structure;
    quick "disj_fn reference" t_disj_fn;
    quick "parameterized hard family (Lemma 1 conditions)" t_parameterized_family;
    quick "parameterized family range check" t_parameterized_out_of_range;
  ]
