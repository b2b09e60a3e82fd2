(** Tests for the exact protocol-tree semantics, information costs, and
    the q-decomposition. *)

module T = Proto.Tree
module Sem = Proto.Semantics
module Info = Proto.Information
module Q = Proto.Qdecomp
module D = Prob.Dist_exact
module R = Exact.Rational
open Test_util

let seq k = Protocols.And_protocols.sequential k
let bcast k = Protocols.And_protocols.broadcast_all k

let t_tree_stats () =
  let t = seq 4 in
  Alcotest.(check int) "depth" 4 (T.depth t);
  Alcotest.(check int) "CC" 4 (T.communication_cost t);
  Alcotest.(check int) "rounds" 4 (T.round_count t);
  Alcotest.(check int) "CC of output leaf" 0 (T.communication_cost (T.output 1))

let t_chance_free () =
  let coin = D.uniform [ 0; 1; 2; 3 ] in
  let t = T.chance ~coin (Array.make 4 (T.output 0)) in
  Alcotest.(check int) "chance costs nothing" 0 (T.communication_cost t)

let t_transcript_dist_deterministic () =
  let t = seq 3 in
  let d = Sem.transcript_dist t [| 1; 0; 1 |] in
  Alcotest.(check int) "single transcript" 1 (D.size d);
  match D.support d with
  | [ tr ] ->
      Alcotest.(check int) "two messages" 2 (List.length tr);
      Alcotest.(check int) "output 0" 0 (T.output_of t tr);
      Alcotest.(check int) "bits" 2 (T.transcript_bits t tr)
  | _ -> Alcotest.fail "expected a point law"

let t_transcript_dist_mass () =
  let t = Protocols.And_protocols.noisy_sequential ~k:3 ~noise:(R.of_ints 1 10) in
  List.iter
    (fun x -> check_rational ~msg:"mass 1" R.one (D.mass (Sem.transcript_dist t x)))
    (Sem.all_bit_inputs 3)

let t_outputs_correct () =
  let t = seq 4 in
  List.iter
    (fun x ->
      let expected = Protocols.Hard_dist.and_fn x in
      match D.support (Sem.output_dist t x) with
      | [ v ] -> Alcotest.(check int) "output" expected v
      | _ -> Alcotest.fail "deterministic")
    (Sem.all_bit_inputs 4)

let t_worst_case_error_zero () =
  check_rational ~msg:"sequential AND is exact" R.zero
    (Sem.worst_case_error (seq 5) ~f:Protocols.Hard_dist.and_fn
       (Sem.all_bit_inputs 5))

let t_noisy_error_bounded () =
  let noise = R.of_ints 1 20 in
  let t = Protocols.And_protocols.noisy_sequential ~k:3 ~noise in
  let err =
    Sem.worst_case_error t ~f:Protocols.Hard_dist.and_fn (Sem.all_bit_inputs 3)
  in
  Alcotest.(check bool) "error positive" true (R.sign err > 0);
  (* union bound: at most k * noise *)
  Alcotest.(check bool) "error <= k*noise" true
    (R.compare err (R.mul_int noise 3) <= 0)

let t_expected_vs_worst_bits () =
  let t = seq 5 in
  let mu = Protocols.Hard_dist.mu_and ~k:5 in
  let expected = Sem.expected_bits t mu in
  check_le ~msg:"E[bits] <= CC" expected
    (float_of_int (T.communication_cost t))

let t_ic_le_entropy_le_cc () =
  List.iter
    (fun k ->
      let t = seq k in
      let mu = Protocols.Hard_dist.mu_and ~k in
      let ic = Info.external_ic t mu in
      let h = Info.transcript_entropy t mu in
      let cc = float_of_int (T.communication_cost t) in
      check_le ~msg:"IC <= H(T)" ic (h +. 1e-9);
      check_le ~msg:"H(T) <= CC" h (cc +. 1e-9))
    [ 2; 3; 4; 5; 6 ]

let t_ic_uniform_known_value () =
  (* Under uniform inputs, the sequential-AND transcript determines and
     is determined by (first zero index | all ones), so
     IC = H(T) = sum over outcomes. For k=2 uniform:
     transcripts: "0" (p=1/2), "10" (p=1/4), "11" (p=1/4): H = 1.5.
     The protocol is deterministic given X, so IC = H(T). *)
  let t = seq 2 in
  let mu = D.uniform (Sem.all_bit_inputs 2) in
  check_close ~msg:"IC = 1.5" ~eps:1e-12 1.5 (Info.external_ic t mu)

let t_ic_broadcast_equals_input_entropy () =
  let k = 4 in
  let t = bcast k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let h_input = Infotheory.Measures.Exact_w.entropy mu in
  check_close ~msg:"IC = H(X) for broadcast-all" ~eps:1e-9 h_input
    (Info.external_ic t mu)

let t_ic_constant_zero () =
  let t = Protocols.And_protocols.constant ~k:4 1 in
  let mu = Protocols.Hard_dist.mu_and ~k:4 in
  check_close ~msg:"silent protocol reveals nothing" ~eps:1e-12 0.
    (Info.external_ic t mu)

let t_cic_le_ic_style_bound () =
  (* CIC = I(T;X|Z) <= H(T) as well. *)
  let k = 5 in
  let t = seq k in
  let cic = Info.conditional_ic t (Protocols.Hard_dist.mu_and_with_aux ~k) in
  let h = Info.transcript_entropy t (Protocols.Hard_dist.mu_and ~k) in
  check_le ~msg:"CIC <= H(T)" cic (h +. 1e-9);
  check_ge ~msg:"CIC >= 0" cic 0.

let t_per_round_sums_to_ic () =
  List.iter
    (fun (k, tree) ->
      let mu = Protocols.Hard_dist.mu_and ~k in
      let ic = Info.external_ic tree mu in
      let rounds = Info.per_round_information tree mu in
      let total = Array.fold_left ( +. ) 0. rounds in
      check_close ~msg:(Printf.sprintf "chain rule k=%d" k) ~eps:1e-9 ic total)
    [
      (3, seq 3);
      (4, seq 4);
      (3, bcast 3);
      (3, Protocols.And_protocols.noisy_sequential ~k:3 ~noise:(R.of_ints 1 8));
    ]

let t_per_round_nonneg () =
  let t = Protocols.And_protocols.noisy_sequential ~k:4 ~noise:(R.of_ints 1 5) in
  let rounds = Info.per_round_information t (Protocols.Hard_dist.mu_and ~k:4) in
  Array.iteri
    (fun i c -> check_ge ~msg:(Printf.sprintf "round %d" i) c (-1e-12))
    rounds

(* --- q-decomposition --- *)

let t_qdecomp_reconstructs_probability () =
  (* Lemma 3: common * prod_i q_{i, X_i} = Pr[transcript | X]. *)
  let k = 4 in
  let t = Protocols.And_protocols.noisy_sequential ~k ~noise:(R.of_ints 1 7) in
  List.iter
    (fun x ->
      let law = Sem.transcript_dist t x in
      List.iter
        (fun (tr, p) ->
          let q = Q.of_transcript t ~k tr in
          check_rational ~msg:"lemma 3" p (Q.transcript_prob q x))
        (D.to_alist law))
    (Sem.all_bit_inputs k)

let t_qdecomp_with_chance () =
  (* public coins must land in the common factor *)
  let coin = D.uniform [ 0; 1 ] in
  let inner = seq 2 in
  let t = T.chance ~coin [| inner; inner |] in
  let x = [| 1; 1 |] in
  let law = Sem.transcript_dist t x in
  List.iter
    (fun (tr, p) ->
      let q = Q.of_transcript t ~k:2 tr in
      check_rational ~msg:"with chance" p (Q.transcript_prob q x);
      check_rational ~msg:"common = 1/2" R.half q.Q.common)
    (D.to_alist law)

let t_alpha_sequential () =
  (* On the transcript where player 1 wrote 0 (after player 0 wrote 1),
     q_{1,1} = 0, so alpha_1 is infinite and the posterior is 1. *)
  let k = 3 in
  let t = seq k in
  let tr = [ T.Msg (0, 1); T.Msg (1, 0) ] in
  let q = Q.of_transcript t ~k tr in
  Alcotest.(check bool) "alpha_1 infinite" true (Q.alpha q 1 = None);
  (match Q.posterior_zero q 1 with
  | Some p -> check_rational ~msg:"posterior 1" R.one p
  | None -> Alcotest.fail "posterior defined");
  (* player 0 wrote 1: alpha_0 = 0 *)
  (match Q.alpha q 0 with
  | Some a -> check_rational ~msg:"alpha_0 = 0" R.zero a
  | None -> Alcotest.fail "alpha_0 finite");
  (* player 2 never spoke: alpha_2 = 1 *)
  match Q.alpha q 2 with
  | Some a -> check_rational ~msg:"alpha_2 = 1" R.one a
  | None -> Alcotest.fail "alpha_2 finite"

let t_alpha_noisy_finite () =
  let k = 3 in
  let noise = R.of_ints 1 10 in
  let t = Protocols.And_protocols.noisy_sequential ~k ~noise in
  let tr = [ T.Msg (0, 1); T.Msg (1, 0) ] in
  let q = Q.of_transcript t ~k tr in
  (* alpha_1 = Pr[msg 0 | X=0] / Pr[msg 0 | X=1] = (9/10)/(1/10) = 9 *)
  match Q.alpha q 1 with
  | Some a -> check_rational ~msg:"alpha_1 = 9" (R.of_int 9) a
  | None -> Alcotest.fail "finite"

let t_posterior_formula_matches_bayes () =
  (* Lemma 4 must agree with a direct Bayes computation from the joint
     law under the hard distribution conditioned on Z <> i. *)
  let k = 4 in
  let noise = R.of_ints 1 8 in
  let t = Protocols.And_protocols.noisy_sequential ~k ~noise in
  let mu = Protocols.Hard_dist.mu_and_with_aux ~k in
  let joint = Sem.joint_with_aux t mu in
  let i = 1 in
  (* take a few transcripts and compare *)
  let transcripts =
    List.filteri (fun idx _ -> idx < 5)
      (List.sort_uniq compare
         (List.map (fun ((_, _, tr), _) -> tr) (D.to_alist joint)))
  in
  List.iter
    (fun tr ->
      match
        D.condition joint (fun (_, z, tr') -> tr' = tr && z <> i)
      with
      | None -> ()
      | Some cond ->
          let direct = D.prob (D.map (fun (x, _, _) -> x.(i)) cond) (fun b -> b = 0) in
          let q = Q.of_transcript t ~k tr in
          (match Q.posterior_zero q i with
          | Some formula ->
              check_rational ~msg:"lemma 4 = bayes" direct formula
          | None -> Alcotest.fail "posterior defined"))
    transcripts

let t_transcript_mismatch_raises () =
  let t = seq 3 in
  Alcotest.check_raises "bad transcript"
    (Invalid_argument "Tree.output_of: transcript does not match tree")
    (fun () -> ignore (T.output_of t [ T.Coin 0 ]))

(* Regression: [Tree.speak] used to accept an emit law whose support
   exceeds the child array, crashing (or mis-indexing) only deep inside
   the semantics. The smart constructor now guards every evaluation. *)
let t_speak_rejects_wide_support () =
  let t =
    T.speak ~speaker:0
      ~emit:(fun _ -> D.return 2)
      [| T.output 0; T.output 1 |]
  in
  Alcotest.check_raises "support 2 at arity 2"
    (Invalid_argument
       "Tree.speak: emit support includes symbol 2 outside arity 2")
    (fun () -> ignore (Sem.transcript_dist t [| 1 |]));
  (* in-arity laws are untouched *)
  let ok = T.speak ~speaker:0 ~emit:(fun b -> D.return b) [| T.output 0; T.output 1 |] in
  Alcotest.(check int) "guarded tree still runs" 1
    (D.size (Sem.transcript_dist ok [| 1 |]))

(* [speak_det] fuses [speak]'s arity guard into the one closure that
   wraps [f]; a symbol below 0 or at the arity must raise exactly what
   the guard of [speak] raises on the same point mass. *)
let t_speak_det_rejects_out_of_arity () =
  let leaves () = [| T.output 0; T.output 1 |] in
  List.iter
    (fun s ->
      let expected =
        Invalid_argument
          (Printf.sprintf
             "Tree.speak: emit support includes symbol %d outside arity 2" s)
      in
      let det = T.speak_det ~speaker:0 ~f:(fun _ -> s) (leaves ()) in
      let law = T.speak ~speaker:0 ~emit:(fun _ -> D.return s) (leaves ()) in
      Alcotest.check_raises (Printf.sprintf "speak_det, symbol %d" s) expected
        (fun () -> ignore (Sem.transcript_dist det [| 1 |]));
      Alcotest.check_raises (Printf.sprintf "speak, symbol %d" s) expected
        (fun () -> ignore (Sem.transcript_dist law [| 1 |])))
    [ -1; 2 ];
  let ok = T.speak_det ~speaker:0 ~f:(fun b -> b) (leaves ()) in
  Alcotest.(check int) "in-arity symbols still run" 1
    (D.size (Sem.transcript_dist ok [| 1 |]))

(* Node ids come from one atomic counter: trees built at the same time
   on four domains, by every constructor, never share an id, and a node
   reached twice through sharing keeps its one id. *)
let t_ids_distinct_across_domains () =
  let build i =
    match i mod 4 with
    | 0 -> seq (3 + (i mod 5))
    | 1 ->
        Protocols.And_protocols.noisy_sequential ~k:4
          ~noise:(R.of_ints 1 10)
    | 2 -> Proto.Combinators.map_output (fun v -> 1 - v) (bcast 4)
    | _ -> Proto.Combinators.xor_output_with_coin (bcast 4)
  in
  let trees = Par.parallel_map ~domains:4 build (List.init 64 Fun.id) in
  let owner : (int, int T.t) Hashtbl.t = Hashtbl.create 4096 in
  let rec visit node =
    let id = T.id node in
    match Hashtbl.find_opt owner id with
    | Some other ->
        if other != node then Alcotest.failf "two nodes share id %d" id
    | None -> (
        Hashtbl.add owner id node;
        match node with
        | T.Output _ -> ()
        | T.Speak { children; _ } | T.Chance { children; _ } ->
            Array.iter visit children)
  in
  List.iter visit trees;
  Alcotest.(check bool) "every tree walked" true (Hashtbl.length owner > 64)

(* --- memoized transcript law vs the unmemoized reference ----------- *)
(* [Sem.transcript_dist] memoizes subtree laws per physical node and
   uses the dedupe-free monadic fast paths. This reference is the
   pre-optimization semantics, literal generic [bind]/[map] with no
   sharing; on every registry entry and every input profile the two must
   produce identical laws — values, weights, AND item order, because
   downstream information measures fold the alist with floats. *)
let reference_transcript_dist tree inputs =
  let rec go tree =
    match tree with
    | T.Output _ -> D.return []
    | T.Speak { speaker; emit; children; _ } ->
        D.bind (emit inputs.(speaker)) (fun m ->
            D.map (fun rest -> T.Msg (speaker, m) :: rest) (go children.(m)))
    | T.Chance { coin; children; _ } ->
        D.bind coin (fun c ->
            D.map (fun rest -> T.Coin c :: rest) (go children.(c)))
  in
  go tree

let t_memoized_law_matches_reference () =
  List.iter
    (fun (Protocols.Registry.Entry e) ->
      let tree = Lazy.force e.tree in
      let dom = Array.length e.domain in
      (* full input domain: every registry entry is registered at an
         exactly-enumerable parameter point *)
      let profiles = ref 1 in
      for _ = 1 to e.players do
        profiles := !profiles * dom
      done;
      for code = 0 to !profiles - 1 do
        let inputs =
          Array.init e.players (fun i ->
              let rec nth c j = if j = 0 then c mod dom else nth (c / dom) (j - 1) in
              e.domain.(nth code i))
        in
        let fast = Sem.transcript_dist tree inputs in
        let slow = reference_transcript_dist tree inputs in
        let la = D.to_alist fast and lb = D.to_alist slow in
        if
          List.length la <> List.length lb
          || not
               (List.for_all2
                  (fun (t1, w1) (t2, w2) -> t1 = t2 && R.equal w1 w2)
                  la lb)
        then
          Alcotest.failf "%s: memoized law differs from reference on profile %d"
            e.name code
      done)
    (Protocols.Registry.all ())

let suite =
  [
    quick "tree statistics" t_tree_stats;
    quick "chance nodes are free" t_chance_free;
    quick "deterministic transcript law" t_transcript_dist_deterministic;
    quick "transcript law has mass 1" t_transcript_dist_mass;
    quick "outputs correct on all inputs" t_outputs_correct;
    quick "worst-case error zero" t_worst_case_error_zero;
    quick "noisy protocol error bounded" t_noisy_error_bounded;
    quick "expected bits <= CC" t_expected_vs_worst_bits;
    quick "IC <= H(T) <= CC" t_ic_le_entropy_le_cc;
    quick "IC closed form (k=2 uniform)" t_ic_uniform_known_value;
    quick "IC of broadcast-all = H(X)" t_ic_broadcast_equals_input_entropy;
    quick "IC of silent protocol = 0" t_ic_constant_zero;
    quick "CIC bounds" t_cic_le_ic_style_bound;
    quick "per-round info sums to IC (chain rule)" t_per_round_sums_to_ic;
    quick "per-round info nonnegative" t_per_round_nonneg;
    quick "q-decomposition reconstructs Pr (Lemma 3)" t_qdecomp_reconstructs_probability;
    quick "q-decomposition with public coins" t_qdecomp_with_chance;
    quick "alpha ratios, sequential" t_alpha_sequential;
    quick "alpha ratios, noisy" t_alpha_noisy_finite;
    quick "Lemma 4 posterior = direct Bayes" t_posterior_formula_matches_bayes;
    quick "transcript mismatch raises" t_transcript_mismatch_raises;
    quick "speak rejects out-of-arity support" t_speak_rejects_wide_support;
    quick "speak_det rejects out-of-arity symbols like speak"
      t_speak_det_rejects_out_of_arity;
    quick "node ids distinct across domains" t_ids_distinct_across_domains;
    quick "memoized law = reference law (full registry)"
      t_memoized_law_matches_reference;
  ]
