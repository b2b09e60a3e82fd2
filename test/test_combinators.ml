(** Tests for protocol combinators, two-party internal information, and
    the executable Yao's-principle check. *)

module T = Proto.Tree
module C = Proto.Combinators
module Sem = Proto.Semantics
module Info = Proto.Information
module D = Prob.Dist_exact
module R = Exact.Rational
open Test_util

let seq k = Protocols.And_protocols.sequential k

let t_map_output () =
  let t = C.map_output (fun v -> 1 - v) (seq 3) in
  List.iter
    (fun x ->
      match D.support (Sem.output_dist t x) with
      | [ v ] ->
          Alcotest.(check int) "negated" (1 - Protocols.Hard_dist.and_fn x) v
      | _ -> Alcotest.fail "deterministic")
    (Sem.all_bit_inputs 3);
  Alcotest.(check int) "cost unchanged" 3 (T.communication_cost t)

let t_contramap_input () =
  (* run AND on the middle bit of 3-bit player inputs *)
  let t = C.contramap_input (fun (x : int array) -> x.(1)) (seq 2) in
  let inputs = [| [| 0; 1; 0 |]; [| 1; 0; 1 |] |] in
  match D.support (Sem.output_dist t inputs) with
  | [ v ] -> Alcotest.(check int) "AND of middle bits" 0 v
  | _ -> Alcotest.fail "deterministic"

let t_sequence_outputs () =
  let t =
    C.sequence (seq 2) (C.map_output (fun v -> v) (seq 2))
      ~combine:(fun a b -> (2 * a) + b)
  in
  (* both runs read the same inputs, so output is 3*AND *)
  List.iter
    (fun x ->
      let expected = 3 * Protocols.Hard_dist.and_fn x in
      match D.support (Sem.output_dist t x) with
      | [ v ] -> Alcotest.(check int) "paired output" expected v
      | _ -> Alcotest.fail "deterministic")
    (Sem.all_bit_inputs 2)

let t_sequence_cost_additive () =
  let t = C.sequence (seq 3) (seq 3) ~combine:(fun a b -> a + b) in
  Alcotest.(check int) "worst-case costs add" 6 (T.communication_cost t)

let t_parallel_copies_semantics () =
  let copies = 3 and k = 2 in
  let t = C.parallel_copies (seq k) ~copies in
  (* players hold [copies]-bit vectors; output packs the per-copy ANDs *)
  let inputs = [| [| 1; 0; 1 |]; [| 1; 1; 0 |] |] in
  let expected = 0b001 (* copy0: 1&1=1; copy1: 0&1=0; copy2: 1&0=0 *) in
  match D.support (Sem.output_dist t inputs) with
  | [ v ] -> Alcotest.(check int) "packed outputs" expected v
  | _ -> Alcotest.fail "deterministic"

let t_parallel_copies_ic_additive () =
  (* Theorem 4 lower-bound side, via the generic combinator: with iid
     product inputs, IC of the n-copy protocol is exactly n * IC. *)
  let k = 2 in
  let base = seq k in
  let bit = D.uniform [ 0; 1 ] in
  let mu1 = D.iid k bit in
  let ic1 = Info.external_ic base mu1 in
  List.iter
    (fun copies ->
      let t = C.parallel_copies base ~copies in
      (* per-player inputs: vectors of [copies] iid bits *)
      let mu = D.iid k (D.iid copies bit) in
      let ic = Info.external_ic t mu in
      check_close
        ~msg:(Printf.sprintf "%d copies" copies)
        ~eps:1e-9
        (float_of_int copies *. ic1)
        ic)
    [ 1; 2; 3 ]

let t_xor_coin_adds_no_information () =
  let k = 3 in
  let t = C.xor_output_with_coin (seq k) in
  let mu = Protocols.Hard_dist.mu_and ~k in
  check_close ~msg:"IC unchanged" ~eps:1e-9
    (Info.external_ic (seq k) mu)
    (Info.external_ic t mu);
  (* but the output is now uniformly random *)
  let out = Sem.output_dist t [| 1; 1; 1 |] in
  check_rational ~msg:"output uniform" R.half (D.prob_of out 0)

(* --- internal information (k = 2) --- *)

let t_internal_le_external () =
  let t = seq 2 in
  List.iter
    (fun mu ->
      let internal = Info.internal_ic_two_party t mu in
      let external_ = Info.external_ic t mu in
      check_le ~msg:"internal <= external" internal (external_ +. 1e-9))
    [
      Protocols.Hard_dist.mu_and ~k:2;
      D.uniform (Sem.all_bit_inputs 2);
      D.of_weighted
        [
          ([| 0; 0 |], R.of_ints 2 5);
          ([| 1; 1 |], R.of_ints 2 5);
          ([| 0; 1 |], R.of_ints 1 10);
          ([| 1; 0 |], R.of_ints 1 10);
        ];
    ]

let t_internal_equals_external_on_product () =
  (* classical: for product distributions the two notions coincide *)
  List.iter
    (fun (t, mu) ->
      check_close ~msg:"equality on product" ~eps:1e-9
        (Info.external_ic t mu)
        (Info.internal_ic_two_party t mu))
    [
      (seq 2, D.iid 2 (D.uniform [ 0; 1 ]));
      ( Protocols.And_protocols.noisy_sequential ~k:2 ~noise:(R.of_ints 1 10),
        D.iid 2
          (D.of_weighted [ (0, R.of_ints 1 4); (1, R.of_ints 3 4) ]) );
      (Protocols.And_protocols.broadcast_all 2, D.iid 2 (D.uniform [ 0; 1 ]));
    ]

let t_internal_strictly_below_on_correlated () =
  (* with perfectly correlated inputs, players learn nothing from each
     other (internal = 0), but an observer learns plenty *)
  let t = Protocols.And_protocols.broadcast_all 2 in
  let mu = D.uniform [ [| 0; 0 |]; [| 1; 1 |] ] in
  check_close ~msg:"internal = 0" ~eps:1e-9 0.
    (Info.internal_ic_two_party t mu);
  check_close ~msg:"external = 1" ~eps:1e-9 1. (Info.external_ic t mu)

let t_internal_rejects_k3 () =
  Alcotest.check_raises "k = 3 rejected"
    (Invalid_argument "Information.internal_ic_two_party: need k = 2")
    (fun () ->
      ignore
        (Info.internal_ic_two_party (seq 3) (Protocols.Hard_dist.mu_and ~k:3)))

(* --- Yao --- *)

let t_restrictions_partition_probability () =
  let t = C.xor_output_with_coin (seq 2) in
  let restrictions = Yao.coin_restrictions t in
  let total = List.fold_left (fun acc (_, w) -> R.add acc w) R.zero restrictions in
  check_rational ~msg:"weights sum to 1" R.one total;
  List.iter
    (fun (t', _) ->
      let rec no_chance = function
        | T.Output _ -> true
        | T.Chance _ -> false
        | T.Speak { children; _ } -> Array.for_all no_chance children
      in
      Alcotest.(check bool) "no chance nodes" true (no_chance t'))
    restrictions

let t_error_mixture_exact () =
  (* randomized error = mixture of restriction errors, exactly *)
  let t = C.xor_output_with_coin (seq 2) in
  let mu = Protocols.Hard_dist.mu_and ~k:2 in
  let randomized, parts =
    Yao.error_mixture t ~f:Protocols.Hard_dist.and_fn mu
  in
  let mixture =
    List.fold_left (fun acc (w, e) -> R.add acc (R.mul w e)) R.zero parts
  in
  check_rational ~msg:"exact mixture" randomized mixture

let t_easy_direction () =
  let t = C.xor_output_with_coin (seq 3) in
  let mu = Protocols.Hard_dist.mu_and ~k:3 in
  let best, randomized =
    Yao.easy_direction t ~f:Protocols.Hard_dist.and_fn mu
  in
  Alcotest.(check bool) "best deterministic <= randomized" true
    (R.compare best randomized <= 0);
  (* here the coin XOR makes the randomized protocol err half the time,
     while the best restriction (identity coin) never errs *)
  check_rational ~msg:"best restriction exact" R.zero best;
  check_rational ~msg:"randomized errs half the time" R.half randomized

let suite =
  [
    quick "map_output" t_map_output;
    quick "contramap_input" t_contramap_input;
    quick "sequence outputs" t_sequence_outputs;
    quick "sequence cost additive" t_sequence_cost_additive;
    quick "parallel copies semantics" t_parallel_copies_semantics;
    quick "parallel copies: IC exactly additive (Thm 4)" t_parallel_copies_ic_additive;
    quick "output coin adds no information" t_xor_coin_adds_no_information;
    quick "internal <= external" t_internal_le_external;
    quick "internal = external on products" t_internal_equals_external_on_product;
    quick "internal < external when correlated" t_internal_strictly_below_on_correlated;
    quick "internal rejects k=3" t_internal_rejects_k3;
    quick "Yao: restrictions partition probability" t_restrictions_partition_probability;
    quick "Yao: error mixture exact" t_error_mixture_exact;
    quick "Yao: easy direction" t_easy_direction;
  ]
