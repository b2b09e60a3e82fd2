(** Tests for the lower-bound machinery: transcript classification
    (Section 4.1), Lemma 2, Lemma 6, the Lemma-1 direct-sum embedding,
    and the discrepancy rectangle sweep. *)

module Tr = Lowerbound.Transcripts
module Bd = Lowerbound.Bounds
module Fl = Lowerbound.Fooling
module Ds = Lowerbound.Direct_sum
module Disc = Lowerbound.Discrepancy
module D = Prob.Dist_exact
module R = Exact.Rational
open Test_util

(* --- transcript classification --- *)

let t_masses_partition () =
  let k = 5 in
  let tree = Protocols.And_protocols.noisy_sequential ~k ~noise:(R.of_ints 1 20) in
  let rep = Tr.analyze tree ~k ~c_constant:4. in
  (* B0 + B1 + L = all of pi_2's mass *)
  check_close ~msg:"partition" ~eps:1e-9 1.
    (rep.Tr.mass_b0 +. rep.Tr.mass_b1 +. rep.Tr.mass_l);
  check_le ~msg:"L' <= L" rep.Tr.mass_l' rep.Tr.mass_l;
  check_ge ~msg:"masses nonneg" rep.Tr.mass_b0 0.

let t_exact_protocol_all_good () =
  (* a zero-error protocol has no B1 mass and points perfectly *)
  let k = 6 in
  let rep = Tr.analyze (Protocols.And_protocols.sequential k) ~k ~c_constant:8. in
  check_close ~msg:"no B1" ~eps:1e-12 0. rep.Tr.mass_b1;
  check_close ~msg:"L is everything" ~eps:1e-12 1. rep.Tr.mass_l;
  Alcotest.(check bool) "perfect pointing" true
    (rep.Tr.min_max_alpha_on_l' = infinity)

let t_lemma5_shape_noisy () =
  (* Lemma 5 on a low-error randomized protocol: L' carries most of
     pi_2's mass and every L' transcript points at a player with
     alpha = Omega(k). *)
  let k = 6 in
  let tree = Protocols.And_protocols.noisy_sequential ~k ~noise:(R.of_ints 1 50) in
  let rep = Tr.analyze tree ~k ~c_constant:4. in
  check_ge ~msg:"L' mass large" rep.Tr.mass_l' 0.5;
  check_ge ~msg:"alpha = Omega(k)" rep.Tr.min_max_alpha_on_l'
    (float_of_int k)

let t_high_error_protocol_fails_lemma5_hypothesis () =
  (* the constant protocol "output 0" has zero information; its only
     transcript is empty with alpha_i = 1 for all i — no pointing. The
     error on 1^k is 1, so Lemma 5's hypothesis (small error) fails,
     which shows up as B0 carrying all of pi_2's mass. *)
  let k = 5 in
  let rep =
    Tr.analyze (Protocols.And_protocols.constant ~k 0) ~k ~c_constant:4.
  in
  check_close ~msg:"all mass in B0" ~eps:1e-12 1. rep.Tr.mass_b0

let t_entries_posterior_consistency () =
  let k = 4 in
  let tree = Protocols.And_protocols.noisy_sequential ~k ~noise:(R.of_ints 1 10) in
  let rep = Tr.analyze tree ~k ~c_constant:2. in
  List.iter
    (fun e ->
      (* eq. (5): posterior = alpha/(alpha+k-1), so a large max alpha
         forces a large best posterior *)
      if e.Tr.max_alpha = infinity then
        check_ge ~msg:"posterior 1" e.Tr.posterior_best (1. -. 1e-9)
      else begin
        let expected = e.Tr.max_alpha /. (e.Tr.max_alpha +. float_of_int (k - 1)) in
        check_ge ~msg:"posterior >= alpha/(alpha+k-1)" e.Tr.posterior_best
          (expected -. 1e-9)
      end)
    rep.Tr.entries

(* --- Lemma 2 and eq.(4) --- *)

let t_lemma2_superadditivity () =
  List.iter
    (fun (k, tree) ->
      let mu = Protocols.Hard_dist.mu_and_with_aux ~k in
      let cic = Proto.Information.conditional_ic tree mu in
      let rhs, per = Bd.lemma2_rhs tree mu ~k in
      check_ge ~msg:(Printf.sprintf "lemma 2 k=%d" k) (cic +. 1e-9) rhs;
      Array.iter (fun c -> check_ge ~msg:"per-player nonneg" c (-1e-12)) per)
    [
      (3, Protocols.And_protocols.sequential 3);
      (4, Protocols.And_protocols.sequential 4);
      (3, Protocols.And_protocols.noisy_sequential ~k:3 ~noise:(R.of_ints 1 8));
      (4, Protocols.And_protocols.broadcast_all 4);
    ]

let t_eq4_chain () =
  List.iter
    (fun (p, k) ->
      let exact, middle, crude = Bd.eq4_chain ~p ~k in
      check_ge ~msg:"exact >= middle" exact (middle -. 1e-12);
      check_ge ~msg:"middle >= crude" middle (crude -. 1e-12))
    [ (0.5, 4); (0.5, 64); (0.9, 16); (0.3, 1024); (0.99, 8) ]

let t_cic_grows_with_k () =
  let cics =
    List.map (fun k -> Bd.cic_hard (Protocols.And_protocols.sequential k) ~k)
      [ 2; 3; 4; 5; 6; 7 ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b +. 1e-9 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "CIC increasing in k" true (increasing cics);
  (* Theorem 1 shape: CIC = Omega(log k); check ratio bounded below *)
  List.iteri
    (fun i k ->
      let ratio = List.nth cics i /. Float.log2 (float_of_int k) in
      check_ge ~msg:(Printf.sprintf "ratio at k=%d" k) ratio 0.4)
    [ 2; 3; 4; 5; 6; 7 ]

let t_ic_gap_section6 () =
  (* the compression gap: IC = O(log k) while CC = k *)
  List.iter
    (fun k ->
      let tree = Protocols.And_protocols.sequential k in
      let ic = Bd.ic_hard tree ~k in
      check_le ~msg:"IC <= 2 log k + 2" ic
        ((2. *. Float.log2 (float_of_int k)) +. 2.);
      Alcotest.(check int) "CC = k" k (Proto.Tree.communication_cost tree))
    [ 2; 4; 6; 8; 10 ]

(* --- Lemma 6 / fooling --- *)

let t_deterministic_detection () =
  Alcotest.(check bool) "sequential deterministic" true
    (Fl.deterministic (Protocols.And_protocols.sequential 4));
  Alcotest.(check bool) "noisy not deterministic" false
    (Fl.deterministic
       (Protocols.And_protocols.noisy_sequential ~k:4 ~noise:(R.of_ints 1 10)))

let t_speakers_on_ones () =
  Alcotest.(check (list int)) "all speak on 1^k" [ 0; 1; 2; 3 ]
    (Fl.speakers_on_ones (Protocols.And_protocols.sequential 4) ~k:4);
  Alcotest.(check (list int)) "halt at zero" [ 0 ]
    (Fl.speakers_on (Protocols.And_protocols.sequential 4) [| 0; 1; 1; 1 |])

let t_lemma6_exact_error_dominates_prediction () =
  let k = 8 in
  let eps' = 0.125 in
  List.iter
    (fun m ->
      let m', predicted, exact = Fl.truncated_row ~k ~m ~eps' in
      Alcotest.(check int) "m echoed" m m';
      check_ge ~msg:(Printf.sprintf "m=%d" m) (exact +. 1e-9) predicted)
    [ 0; 1; 2; 4; 6; 8 ]

let t_lemma6_full_protocol_no_error () =
  let k = 6 in
  let err =
    Fl.lemma6_error (Protocols.And_protocols.sequential k) ~k
      ~eps':(R.of_ints 1 5)
  in
  check_rational ~msg:"exact protocol errs never" R.zero err

let t_lemma6_quantitative () =
  (* fewer than (1 - eps/(1-eps')) k speakers => error > eps.
     Take eps = 0.2, eps' = 0.25: threshold is (1 - 0.2/0.75) k = 0.733 k.
     With k = 9 and m = 6 speakers (< 6.6), error must exceed 0.2. *)
  let _, _, exact = Fl.truncated_row ~k:9 ~m:6 ~eps':0.25 in
  check_ge ~msg:"error above eps" exact 0.2

(* --- direct sum --- *)

let t_embedding_solves_and () =
  (* the embedded protocol must compute AND with zero error, since the
     underlying DISJ protocol is exact *)
  let n = 2 and k = 3 in
  let disj_tree = Protocols.Disj_trees.sequential ~n ~k in
  for j = 0 to n - 1 do
    let and_tree = Ds.embed ~disj_tree ~n ~k ~j in
    let err =
      Proto.Semantics.worst_case_error and_tree ~f:Protocols.Hard_dist.and_fn
        (Proto.Semantics.all_bit_inputs k)
    in
    check_rational ~msg:(Printf.sprintf "coordinate %d" j) R.zero err
  done

let t_direct_sum_inequality () =
  (* sum_j CIC(embed_j) <= CIC_{mu^n}(DISJ) *)
  List.iter
    (fun (n, k) ->
      let disj_tree = Protocols.Disj_trees.sequential ~n ~k in
      let total, per = Ds.direct_sum_check ~disj_tree ~n ~k in
      let sum = Array.fold_left ( +. ) 0. per in
      check_le ~msg:(Printf.sprintf "n=%d k=%d" n k) sum (total +. 1e-6))
    [ (1, 3); (2, 2); (2, 3); (3, 2) ]

let t_embedding_cic_positive () =
  let n = 2 and k = 3 in
  let disj_tree = Protocols.Disj_trees.sequential ~n ~k in
  let cic = Ds.embedded_cic ~disj_tree ~n ~k ~j:0 in
  check_ge ~msg:"embedding carries information" cic 0.1

let t_disj_tree_correct () =
  let n = 3 and k = 3 in
  let tree = Protocols.Disj_trees.sequential ~n ~k in
  List.iter
    (fun inst ->
      let x = Protocols.Disj_common.to_bit_vectors inst in
      let expected = Protocols.Hard_dist.disj_fn x in
      match D.support (Proto.Semantics.output_dist tree x) with
      | [ v ] -> Alcotest.(check int) "disj tree output" expected v
      | _ -> Alcotest.fail "deterministic")
    (Protocols.Disj_common.enumerate ~n ~k)

let t_broadcast_disj_tree_correct () =
  let n = 2 and k = 2 in
  let tree = Protocols.Disj_trees.broadcast_all ~n ~k in
  List.iter
    (fun inst ->
      let x = Protocols.Disj_common.to_bit_vectors inst in
      let expected = Protocols.Hard_dist.disj_fn x in
      match D.support (Proto.Semantics.output_dist tree x) with
      | [ v ] -> Alcotest.(check int) "broadcast disj output" expected v
      | _ -> Alcotest.fail "deterministic")
    (Protocols.Disj_common.enumerate ~n ~k)

(* --- discrepancy: the subset-sum sweep against brute force --- *)

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

(* Every product of nonempty per-player subsets, each re-summed point
   by point: the largest mu-mass of a one-colour rectangle and the
   largest |mu(R inter f^-1(1)) - mu(R minus f^-1(1))|, both from 0. *)
let brute_rectangles ~players:k ~domain_size:d ~mu ~f =
  let mono = ref R.zero and disc = ref R.zero in
  let rect = Array.make k 0 and x = Array.make k 0 in
  let rec points q w (mass, signed, colours) =
    if q = k then begin
      let c = f (Array.copy x) in
      ( R.add mass w,
        (if c = 1 then R.add signed w else R.sub signed w),
        if List.mem c colours then colours else c :: colours )
    end
    else begin
      let acc = ref (mass, signed, colours) in
      for v = 0 to d - 1 do
        if rect.(q) land (1 lsl v) <> 0 then begin
          x.(q) <- v;
          acc := points (q + 1) (R.mul w mu.(v)) !acc
        end
      done;
      !acc
    end
  in
  let rec choose p =
    if p = k then begin
      let mass, signed, colours = points 0 R.one (R.zero, R.zero, []) in
      if List.length colours = 1 then mono := R.max !mono mass;
      disc := R.max !disc (R.abs signed)
    end
    else
      for m = 1 to (1 lsl d) - 1 do
        rect.(p) <- m;
        choose (p + 1)
      done
  in
  choose 0;
  (!mono, !disc)

(* Up to 5 players over domains of 1-3 points, or 3 over 4 points; mu
   weights with zeros; colours beyond 0/1; no cap or a small one. *)
let disc_case_gen =
  let open QCheck.Gen in
  let* d = int_range 1 4 in
  let* k = if d = 4 then int_range 1 3 else int_range 1 5 in
  let* mu = array_size (return d) (pair (int_range 0 3) (int_range 1 4)) in
  let* colours = array_size (return (pow d k)) (oneofl [ 0; 1; 1; 2; -3 ]) in
  let* cap = opt (int_range 0 20_000) in
  return (k, d, mu, colours, cap)

let disc_case_print (k, d, mu, colours, cap) =
  Printf.sprintf "k=%d d=%d mu=[%s] colours=[%s] cap=%s" k d
    (String.concat "; "
       (Array.to_list (Array.map (fun (n, q) -> Printf.sprintf "%d/%d" n q) mu)))
    (String.concat "; " (Array.to_list (Array.map string_of_int colours)))
    (match cap with None -> "default" | Some c -> string_of_int c)

let prop_disc_sweep_matches_brute =
  qtest ~count:300 "discrepancy: sweep = brute-force rectangle enumeration"
    (QCheck.make ~print:disc_case_print disc_case_gen)
    (fun (k, d, mu, colours, cap) ->
      let mu = Array.map (fun (n, q) -> R.of_ints n q) mu in
      let f profile =
        colours.(Array.fold_right (fun v code -> (code * d) + v) profile 0)
      in
      let mono = Disc.mono_mass ?work_cap:cap ~players:k ~domain_size:d ~mu ~f ()
      and disc = Disc.disc ?work_cap:cap ~players:k ~domain_size:d ~mu ~f () in
      let over =
        match cap with
        | None -> false
        | Some c -> pow ((1 lsl d) - 1) k * pow d k > c
      in
      if over then mono = None && disc = None
      else
        let want_mono, want_disc =
          brute_rectangles ~players:k ~domain_size:d ~mu ~f
        in
        match (mono, disc) with
        | Some m, Some x -> R.equal m want_mono && R.equal x want_disc
        | _ -> false)

let suite =
  [
    quick "pi_2 masses partition" t_masses_partition;
    quick "zero-error protocol: all transcripts good" t_exact_protocol_all_good;
    slow "Lemma 5 shape on noisy protocol" t_lemma5_shape_noisy;
    quick "useless protocol fails hypothesis" t_high_error_protocol_fails_lemma5_hypothesis;
    quick "posterior consistency (eq. 5)" t_entries_posterior_consistency;
    slow "Lemma 2 superadditivity" t_lemma2_superadditivity;
    quick "eq. (4) chain" t_eq4_chain;
    slow "CIC grows like log k (Theorem 1 shape)" t_cic_grows_with_k;
    quick "Section 6 gap: IC small, CC = k" t_ic_gap_section6;
    quick "determinism detection" t_deterministic_detection;
    quick "speakers on inputs" t_speakers_on_ones;
    quick "Lemma 6: exact error dominates prediction" t_lemma6_exact_error_dominates_prediction;
    quick "Lemma 6: exact protocol" t_lemma6_full_protocol_no_error;
    quick "Lemma 6: quantitative" t_lemma6_quantitative;
    slow "embedding solves AND" t_embedding_solves_and;
    slow "direct-sum inequality (Lemma 1)" t_direct_sum_inequality;
    quick "embedding CIC positive" t_embedding_cic_positive;
    slow "DISJ tree correct (exhaustive)" t_disj_tree_correct;
    quick "broadcast DISJ tree correct" t_broadcast_disj_tree_correct;
    prop_disc_sweep_matches_brute;
  ]
