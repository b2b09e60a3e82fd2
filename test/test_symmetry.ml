(** Symmetry declarations, block-exchangeable laws, and the orbit
    engine: width-0 differential against direct enumeration, soundness
    of declared symmetries, and the collapsed hard-distribution forms. *)

module T = Proto.Tree
module Sem = Proto.Semantics
module Sym = Proto.Symmetry
module Orbit = Proto.Orbit
module Info = Proto.Information
module SD = Prob.Symdist
module D = Prob.Dist_exact
module R = Exact.Rational
open Test_util

(* ------------------------------------------------------------------ *)
(* Symmetry groups                                                     *)
(* ------------------------------------------------------------------ *)

let test_canonical () =
  Alcotest.(check (array int))
    "Full sorts the whole profile" [| 0; 0; 1; 1 |]
    (Sym.canonical Sym.Full ~players:4 [| 1; 0; 1; 0 |]);
  Alcotest.(check (array int))
    "Blocks sort within blocks only" [| 0; 1; 0; 1 |]
    (Sym.canonical
       (Sym.Blocks [ [ 0; 1 ]; [ 2; 3 ] ])
       ~players:4 [| 1; 0; 1; 0 |]);
  Alcotest.(check (array int))
    "Trivial is the identity" [| 1; 0 |]
    (Sym.canonical Sym.Trivial ~players:2 [| 1; 0 |])

let test_orbit_size () =
  check_rational ~msg:"Full orbit of 0011" (R.of_int 6)
    (Sym.orbit_size Sym.Full ~players:4 [| 0; 0; 1; 1 |]);
  check_rational ~msg:"block orbit of 01|01" (R.of_int 4)
    (Sym.orbit_size (Sym.Blocks [ [ 0; 1 ]; [ 2; 3 ] ]) ~players:4
       [| 0; 1; 0; 1 |]);
  check_rational ~msg:"Trivial orbits are singletons" R.one
    (Sym.orbit_size Sym.Trivial ~players:3 [| 0; 1; 0 |])

let test_orbit_reps () =
  (* Representatives tile the cube: orbit sizes sum to |domain|^k and
     every canonical form appears exactly once. *)
  List.iter
    (fun (sym, players, expect_reps) ->
      let reps = Sym.orbit_reps sym ~players ~domain:[| 0; 1 |] in
      Alcotest.(check int) "rep count" expect_reps (List.length reps);
      check_rational ~msg:"orbit sizes tile the cube"
        (R.pow (R.of_int 2) players)
        (R.sum (List.map snd reps));
      List.iter
        (fun (x, _) ->
          Alcotest.(check (array int))
            "reps are canonical" (Sym.canonical sym ~players x) x)
        reps)
    [
      (Sym.Full, 4, 5);
      (Sym.Blocks [ [ 0; 1 ]; [ 2; 3 ] ], 4, 9);
      (Sym.Trivial, 3, 8);
    ]

let test_generators () =
  Alcotest.(check (list (pair int int)))
    "Full generators" [ (0, 1); (1, 2); (2, 3) ]
    (Sym.generators Sym.Full ~players:4);
  Alcotest.(check (list (pair int int)))
    "Trivial has none" [] (Sym.generators Sym.Trivial ~players:4);
  Alcotest.(check (list (pair int int)))
    "block generators stay inside blocks" [ (0, 1); (3, 4) ]
    (Sym.generators (Sym.Blocks [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ]) ~players:5)

(* A protocol whose output law is genuinely asymmetric: player 0
   announces its bit and the output is that bit. *)
let dictator =
  T.speak ~speaker:0
    ~emit:(fun b -> D.return b)
    [| T.output 0; T.output 1 |]

let test_check_tree_witness () =
  (* Declared Full, actually a dictatorship: the checker must produce a
     concrete same-orbit input pair with different exact output laws. *)
  match Sym.check_tree Sym.Full ~players:2 ~domain:[| 0; 1 |] dictator with
  | None -> Alcotest.fail "asymmetric protocol accepted as Full-symmetric"
  | Some (x, x') ->
      Alcotest.(check (array int))
        "witness pair is a transposition" (Sym.canonical Sym.Full ~players:2 x)
        (Sym.canonical Sym.Full ~players:2 x');
      let law y = D.to_alist (Sem.output_dist dictator y) in
      if law x = law x' then
        Alcotest.fail "witness output laws do not actually differ"

let test_check_tree_accepts () =
  (* Sequential AND is transcript-asymmetric but output-symmetric:
     exactly the distinction the declaration is about. *)
  Alcotest.(check bool)
    "sequential AND_4 is Full" true
    (Sym.check_tree Sym.Full ~players:4 ~domain:[| 0; 1 |]
       (Protocols.And_protocols.sequential 4)
    = None);
  Alcotest.(check bool)
    "dictator is fine as Trivial" true
    (Sym.check_tree Sym.Trivial ~players:2 ~domain:[| 0; 1 |] dictator = None)

(* ------------------------------------------------------------------ *)
(* Block-exchangeable laws (Symdist)                                   *)
(* ------------------------------------------------------------------ *)

let test_multinomial () =
  check_rational ~msg:"multinomial 4 [2;2]" (R.of_int 6)
    (SD.multinomial 4 [| 2; 2 |]);
  check_rational ~msg:"multinomial 5 [5;0]" R.one (SD.multinomial 5 [| 5; 0 |]);
  check_rational ~msg:"binom 10 3" (R.of_int 120) (SD.binom 10 3)

let test_uniform_expansion () =
  let sym = SD.uniform ~domain:[| 0; 1 |] ~blocks:[| 0; 0; 0 |] in
  List.iter
    (fun x ->
      check_rational ~msg:"uniform mass" (R.of_ints 1 8)
        (SD.mass_of_profile sym x))
    (Sem.all_bit_inputs 3);
  check_rational ~msg:"to_dist mass" R.one (D.mass (SD.to_dist sym))

let test_hard_dist_orbit_forms () =
  (* The collapsed laws expand to exactly the explicit Section-4.1
     laws, atom by atom. *)
  for k = 2 to 5 do
    let explicit = Protocols.Hard_dist.mu_and ~k in
    let collapsed = SD.to_dist (Protocols.Hard_dist.mu_and_orbit ~k) in
    List.iter
      (fun x ->
        check_rational
          ~msg:(Printf.sprintf "mu_and_orbit atom k=%d" k)
          (D.prob_of explicit x) (D.prob_of collapsed x))
      (Sem.all_bit_inputs k);
    (* The conditional slices mix back to the marginal. *)
    let slices = Protocols.Hard_dist.mu_and_aux_slices ~k in
    check_rational ~msg:"slice weights sum to 1" R.one
      (R.sum (List.map fst slices));
    List.iter
      (fun x ->
        let mix =
          R.sum
            (List.map
               (fun (wz, sym) -> R.mul wz (SD.mass_of_profile sym x))
               slices)
        in
        check_rational
          ~msg:(Printf.sprintf "slices mix to mu_and k=%d" k)
          (D.prob_of explicit x) mix)
      (Sem.all_bit_inputs k)
  done

let test_relabeled_slices () =
  (* Slices z >= 1 relabel slice 0's classes; each expands, atom by
     atom and in order, to the law [iid_blocks] builds for its blocks. *)
  let expect_same ~msg want got =
    let want = D.to_alist want and got = D.to_alist got in
    Alcotest.(check int) (msg ^ ": atoms") (List.length want) (List.length got);
    List.iter2
      (fun (x, w) (x', w') ->
        if x <> x' || not (R.equal w w') then
          Alcotest.failf "%s: atoms differ" msg)
      want got
  in
  for k = 2 to 8 do
    List.iter
      (fun p_zero ->
        let weights =
          [| [| R.one; R.zero |]; [| p_zero; R.sub R.one p_zero |] |]
        in
        List.iteri
          (fun z (wz, sym) ->
            let msg =
              Printf.sprintf "slice %d of k=%d, p_zero=%s" z k
                (R.to_string p_zero)
            in
            check_rational ~msg (R.of_ints 1 k) wz;
            let blocks = Array.init k (fun i -> if i = z then 0 else 1) in
            Alcotest.(check (array int)) msg blocks (SD.blocks sym);
            expect_same ~msg
              (SD.to_dist (SD.iid_blocks ~domain:[| 0; 1 |] ~blocks weights))
              (SD.to_dist sym))
          (Protocols.Hard_dist.mu_and_aux_slices_p ~k ~p_zero))
      [ R.zero; R.of_ints 1 3; R.of_ints 1 k; R.half; R.one ]
  done;
  let sym =
    SD.iid_blocks ~domain:[| 0; 1 |] ~blocks:[| 0; 1; 1 |]
      [| [| R.half; R.half |]; [| R.of_ints 1 3; R.of_ints 2 3 |] |]
  in
  List.iter
    (fun blocks ->
      match SD.relabel sym ~blocks with
      | _ ->
          Alcotest.failf "relabel to [%s] accepted"
            (String.concat ";" (Array.to_list (Array.map string_of_int blocks)))
      | exception Invalid_argument _ -> ())
    [ [| 0; 0; 1 |]; [| 0; 1 |]; [| 0; 1; 1; 1 |]; [| 0; 1; 2 |];
      [| 1; 1; 1 |] ]

let test_of_dist_roundtrip_and_refusal () =
  (* Round trip: a genuinely exchangeable law collapses. *)
  let k = 3 in
  (match
     SD.of_dist ~domain:[| 0; 1 |] ~blocks:[| 0; 0; 0 |]
       (Protocols.Hard_dist.mu_and ~k)
   with
  | Error _ -> Alcotest.fail "mu_and refused as exchangeable"
  | Ok sym ->
      List.iter
        (fun x ->
          check_rational ~msg:"of_dist masses"
            (D.prob_of (Protocols.Hard_dist.mu_and ~k) x)
            (SD.mass_of_profile sym x))
        (Sem.all_bit_inputs k));
  (* Refusal: an asymmetric law is rejected with a same-orbit witness
     pair of different masses. *)
  let lopsided =
    D.of_weighted
      [ ([| 0; 1 |], R.of_ints 2 3); ([| 1; 0 |], R.of_ints 1 3) ]
  in
  match SD.of_dist ~domain:[| 0; 1 |] ~blocks:[| 0; 0 |] lopsided with
  | Ok _ -> Alcotest.fail "asymmetric law accepted"
  | Error (x, x') ->
      Alcotest.(check (array int))
        "witness profiles share an orbit"
        (Array.of_list (List.sort compare (Array.to_list x)))
        (Array.of_list (List.sort compare (Array.to_list x')))

(* ------------------------------------------------------------------ *)
(* Orbit engine vs direct enumeration                                  *)
(* ------------------------------------------------------------------ *)

(* Same generator as test_random_trees: arbitrary trees, including
   asymmetric ones — the collapse is an exact regrouping for any tree
   under a block-exchangeable law, so the differential must hold with
   no symmetry assumption on the protocol. *)
let random_tree ~rng ~k ~depth =
  let rational_dist arity =
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

let prop_orbit_equals_direct_random =
  qtest "orbit = direct (width 0) on random trees" ~count:60 QCheck.small_nat
    (fun seed ->
      let rng = Prob.Rng.of_int_seed seed in
      let tree = random_tree ~rng ~k ~depth:(2 + Prob.Rng.int rng 3) in
      (* exercise both a fully exchangeable law and a proper block law *)
      List.for_all
        (fun sym ->
          Orbit.For_testing.equal_collapsed
            (Orbit.collapse tree sym)
            (Orbit.For_testing.collapse_direct tree sym))
        [
          Protocols.Hard_dist.mu_and_orbit ~k;
          SD.uniform ~domain:[| 0; 1 |] ~blocks:[| 0; 1; 1 |];
          SD.iid_blocks ~domain:[| 0; 1 |] ~blocks:[| 0; 1; 1 |]
            [| [| R.of_ints 1 2; R.of_ints 1 2 |];
               [| R.of_ints 1 5; R.of_ints 4 5 |] |];
        ])

(* [Orbit.conditional_ic]'s Kahan sum over per-slice terms. *)
let kahan_sum xs =
  let sum = ref 0.0 and comp = ref 0.0 in
  List.iter
    (fun x ->
      let y = x -. !comp in
      let t = !sum +. y in
      comp := t -. !sum -. y;
      sum := t)
    xs;
  !sum

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_orbit_shared_memo =
  qtest "one memo across CIC slices and relabeled laws = fresh memos"
    ~count:60 QCheck.small_nat (fun seed ->
      let rng = Prob.Rng.of_int_seed seed in
      let k = 3 + Prob.Rng.int rng 3 in
      let tree = random_tree ~rng ~k ~depth:(2 + Prob.Rng.int rng 3) in
      let p_zero = R.of_ints (1 + Prob.Rng.int rng 4) 6 in
      let slices = Protocols.Hard_dist.mu_and_aux_slices_p ~k ~p_zero in
      (* One iid law under two random block assignments of sizes 2 and
         k - 2: equal content, so the two share the memo's entries. *)
      let relabeled () =
        let blocks = Array.init k (fun i -> if i < 2 then 0 else 1) in
        Prob.Rng.shuffle rng blocks;
        SD.iid_blocks ~domain:[| 0; 1 |] ~blocks
          [| [| R.of_ints 1 3; R.of_ints 2 3 |];
             [| p_zero; R.sub R.one p_zero |] |]
      in
      let memo = Orbit.memo () in
      let exact sym =
        Orbit.For_testing.equal_collapsed
          (Orbit.collapse ~memo tree sym)
          (Orbit.For_testing.collapse_direct tree sym)
      in
      let r1 = relabeled () and r2 = relabeled () in
      exact r1 && exact r2
      && same_bits
           (Orbit.conditional_ic ~memo tree slices)
           (kahan_sum
              (List.map
                 (fun (wd, sym) -> R.to_float wd *. Orbit.external_ic tree sym)
                 slices))
      && List.for_all (fun (_, sym) -> exact sym) slices)

let test_orbit_memo_across_domains () =
  (* One law written over the domain [0; 1] and over [1; 0]: a memo
     shared by the two must tabulate each Speak node's emit rows per
     domain, or the second law reads the first one's rows. *)
  let tree =
    Protocols.And_protocols.noisy_sequential ~k:4 ~noise:(R.of_ints 1 10)
  in
  let law domain w = SD.iid_blocks ~domain ~blocks:[| 0; 0; 0; 0 |] [| w |] in
  let a = law [| 0; 1 |] [| R.of_ints 1 3; R.of_ints 2 3 |]
  and b = law [| 1; 0 |] [| R.of_ints 2 3; R.of_ints 1 3 |] in
  let memo = Orbit.memo () in
  List.iter
    (fun (name, sym) ->
      let shared = Orbit.external_ic ~memo tree sym in
      let fresh = Orbit.external_ic tree sym in
      if not (same_bits shared fresh) then
        Alcotest.failf "%s: IC %.17g on the shared memo, %.17g on a fresh one"
          name shared fresh;
      Alcotest.(check bool)
        (name ^ ": shared-memo collapse = direct") true
        (Orbit.For_testing.equal_collapsed
           (Orbit.collapse ~memo tree sym)
           (Orbit.For_testing.collapse_direct tree sym)))
    [ ("domain [0; 1]", a); ("domain [1; 0]", b) ]

let test_orbit_registry_sweep () =
  (* Every registry entry with a declared symmetry: collapse under the
     uniform block-exchangeable law over its own domain and hold it
     exactly equal to direct enumeration — and the declaration itself
     must survive the exhaustive soundness check. *)
  List.iter
    (fun (Protocols.Registry.Entry
            { name; players; domain; tree; symmetry; _ } as e) ->
      Alcotest.(check bool)
        (name ^ " declared symmetry is sound")
        true
        (Protocols.Registry.symmetry_witness e = None);
      if symmetry <> Sym.Trivial && players <= 8 then begin
        let blocks = Sym.blocks_array symmetry ~players in
        let sym = SD.uniform ~domain ~blocks in
        let tree = Lazy.force tree in
        if
          not
            (Orbit.For_testing.equal_collapsed (Orbit.collapse tree sym)
               (Orbit.For_testing.collapse_direct tree sym))
        then Alcotest.failf "%s: orbit collapse differs from direct" name
      end)
    (Protocols.Registry.all ())

let test_registry_rejects_false_declaration () =
  (* A dictatorship passed off as fully symmetric: the registry lint
     must produce a concrete witness pair (as domain indices). *)
  let bogus =
    Protocols.Registry.entry ~name:"test/bogus-full" ~players:2
      ~symmetry:Sym.Full ~domain:[| 0; 1 |]
      (lazy dictator)
  in
  match Protocols.Registry.symmetry_witness bogus with
  | None -> Alcotest.fail "false Full declaration not detected"
  | Some (ix, ix') ->
      Alcotest.(check bool) "witness indices differ" true (ix <> ix');
      Alcotest.(check (array int))
        "witness is a permutation pair"
        (Array.of_list (List.sort compare (Array.to_list ix)))
        (Array.of_list (List.sort compare (Array.to_list ix')))

let test_orbit_information_matches () =
  (* Float-level agreement of the three rewired measures, plus engine
     self-checks at a k the direct path cannot reach. *)
  for k = 2 to 6 do
    let tree = Protocols.And_protocols.sequential k in
    let memo = Orbit.memo () in
    check_close ~msg:"external_ic" ~eps:1e-12
      (Info.external_ic tree (Protocols.Hard_dist.mu_and ~k))
      (Info.external_ic_orbit ~memo tree (Protocols.Hard_dist.mu_and_orbit ~k));
    check_close ~msg:"transcript_entropy" ~eps:1e-12
      (Info.transcript_entropy tree (Protocols.Hard_dist.mu_and ~k))
      (Info.transcript_entropy_orbit ~memo tree
         (Protocols.Hard_dist.mu_and_orbit ~k));
    check_close ~msg:"conditional_ic" ~eps:1e-12
      (Info.conditional_ic tree (Protocols.Hard_dist.mu_and_with_aux ~k))
      (Info.conditional_ic_orbit ~memo tree
         (Protocols.Hard_dist.mu_and_aux_slices ~k))
  done;
  let noisy =
    Protocols.And_protocols.noisy_sequential ~k:4 ~noise:(R.of_ints 1 10)
  in
  check_close ~msg:"noisy conditional_ic" ~eps:1e-12
    (Info.conditional_ic noisy (Protocols.Hard_dist.mu_and_with_aux ~k:4))
    (Info.conditional_ic_orbit noisy
       (Protocols.Hard_dist.mu_and_aux_slices ~k:4));
  check_rational ~msg:"total mass 1 at k=16"
    R.one
    (Orbit.total_mass
       (Protocols.And_protocols.sequential 16)
       (Protocols.Hard_dist.mu_and_orbit ~k:16))

let test_per_round_memo_sums_to_ic () =
  (* Satellite: per_round_information threads ?memo; with the memo
     shared across both measures the chain rule must still close on
     the registry's bit-domain entries. *)
  List.iter
    (fun (Protocols.Registry.Entry { name; players; domain; tree; _ }) ->
      if Array.length domain = 2 && players <= 5 then begin
        let tree = Lazy.force tree in
        let mu =
          D.map
            (fun bits -> Array.map (fun b -> domain.(b)) bits)
            (Protocols.Hard_dist.mu_and ~k:players)
        in
        let memo = Sem.memo () in
        let ic = Info.external_ic ~memo tree mu in
        let total =
          Array.fold_left ( +. ) 0. (Info.per_round_information ~memo tree mu)
        in
        check_close ~msg:(name ^ ": per-round sums to IC") ~eps:1e-9 ic total
      end)
    (Protocols.Registry.all ())

let suite =
  [
    quick "canonical forms" test_canonical;
    quick "orbit sizes" test_orbit_size;
    quick "orbit representatives tile the cube" test_orbit_reps;
    quick "generating transpositions" test_generators;
    quick "check_tree finds a witness on a dictatorship"
      test_check_tree_witness;
    quick "check_tree accepts true declarations" test_check_tree_accepts;
    quick "multinomials" test_multinomial;
    quick "uniform symdist expansion" test_uniform_expansion;
    quick "hard-dist orbit forms expand exactly" test_hard_dist_orbit_forms;
    quick "relabeled slices = iid_blocks slices" test_relabeled_slices;
    quick "of_dist round trip and refusal witness"
      test_of_dist_roundtrip_and_refusal;
    prop_orbit_equals_direct_random;
    prop_orbit_shared_memo;
    quick "one memo across two domain orders" test_orbit_memo_across_domains;
    slow "registry sweep: declarations sound, orbit = direct (width 0)"
      test_orbit_registry_sweep;
    quick "registry rejects a false Full declaration"
      test_registry_rejects_false_declaration;
    quick "orbit information measures match direct"
      test_orbit_information_matches;
    quick "per-round chain rule with shared memo"
      test_per_round_memo_sums_to_ic;
  ]
