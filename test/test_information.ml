(** Differential tests of the direct information measures and of the
    Section-4.1 laws. [Proto.Information] computes IC, CIC and H(T) over
    an int-coded joint table; here they are held bit-equal to the
    formulas they replace — [Infotheory.Measures] over
    [Semantics.joint]/[joint_with_aux] — and the per-round chain rule
    to the prefix-hashtable formula it replaces, within 1e-12 per round
    (it sums each round's terms in another order). The laws
    [Hard_dist.mu_and_with_aux_p] and [Hard_dist.mu_and] are held equal,
    item for item, to the constructions they replace. The orbit
    engine's IC and CIC are held bit-equal to a recomputation from its
    collapsed law with the log factor it no longer forms. *)

module T = Proto.Tree
module Sem = Proto.Semantics
module Info = Proto.Information
module HD = Protocols.Hard_dist
module AP = Protocols.And_protocols
module D = Prob.Dist_exact
module MD = Prob.Dist_core.Make (Prob.Weight.Exact)
module M = Infotheory.Measures.Exact_w
module R = Exact.Rational
open Test_util

(* ------------------------------------------------------------------ *)
(* The replaced formulas.                                              *)
(* ------------------------------------------------------------------ *)

let ref_external_ic tree mu = M.mutual_information (Sem.joint tree mu)

let ref_conditional_ic tree mu_xd =
  M.conditional_mutual_information
    (D.map (fun (x, d, t) -> (x, t, d)) (Sem.joint_with_aux tree mu_xd))

let ref_transcript_entropy tree mu = M.entropy (Sem.transcript_law tree mu)

(* Four prefix-keyed hashtables over the joint, summed in hashtable
   order. *)
let ref_per_round tree mu =
  let joint = Sem.joint tree mu in
  let bump tbl key w =
    Hashtbl.replace tbl key
      (R.add w (Option.value ~default:R.zero (Hashtbl.find_opt tbl key)))
  in
  let xp = Hashtbl.create 256 and p_ = Hashtbl.create 256
  and pm = Hashtbl.create 256 and xpm = Hashtbl.create 256 in
  List.iter
    (fun ((x, t), w) ->
      let rec go prefix_rev round = function
        | [] -> ()
        | (T.Coin _ as e) :: rest -> go (e :: prefix_rev) round rest
        | (T.Msg _ as e) :: rest ->
            bump xp (x, prefix_rev) w;
            bump p_ prefix_rev w;
            bump pm (prefix_rev, e) w;
            let key = (x, prefix_rev, e) in
            let _, acc =
              Option.value ~default:(round, R.zero) (Hashtbl.find_opt xpm key)
            in
            Hashtbl.replace xpm key (round, R.add acc w);
            go (e :: prefix_rev) (round + 1) rest
      in
      go [] 0 t)
    (D.to_alist joint);
  let max_round = Hashtbl.fold (fun _ (r, _) acc -> max r acc) xpm (-1) in
  let out = Array.make (max_round + 1) 0. in
  Hashtbl.iter
    (fun (x, p, m) (round, w_xpm) ->
      let w_p = Hashtbl.find p_ p
      and w_xp = Hashtbl.find xp (x, p)
      and w_pm = Hashtbl.find pm (p, m) in
      out.(round) <-
        out.(round)
        +. R.to_float w_xpm
           *. R.log2 (R.div (R.mul w_xpm w_p) (R.mul w_xp w_pm)))
    xpm;
  out

(* The replaced law constructions: every input per special player, and
   the marginal as a [D.map]. *)
let ref_mu_and_with_aux_p ~k ~p_zero =
  let p_one = R.sub R.one p_zero in
  D.of_weighted
    (List.concat_map
       (fun z ->
         List.filter_map
           (fun x ->
             if x.(z) <> 0 then None
             else begin
               let w = ref (R.of_ints 1 k) in
               Array.iteri
                 (fun i b ->
                   if i <> z then
                     w := R.mul !w (if b = 0 then p_zero else p_one))
                 x;
               Some ((x, z), !w)
             end)
           (Sem.all_bit_inputs k))
       (List.init k Fun.id))

let ref_mu_and ~k = D.map fst (ref_mu_and_with_aux_p ~k ~p_zero:(R.of_ints 1 k))

(* ------------------------------------------------------------------ *)
(* Trees and laws.                                                     *)
(* ------------------------------------------------------------------ *)

(* A law built behind [of_weighted]'s back: unnormalized mass, zero
   weights and repeated values survive. *)
let raw_dist pairs : 'a D.t = { MD.items = Array.of_list pairs; index = None }

let p_zeros k = [ R.zero; R.of_ints 1 3; R.of_ints 1 k; R.half; R.one ]

(* Input laws over [k] bits, by name. *)
let input_laws k =
  let all = Sem.all_bit_inputs k in
  let x i = List.nth all (i mod List.length all) in
  [ ("mu_and", HD.mu_and ~k); ("uniform product", D.uniform all) ]
  @ List.map
      (fun p ->
        ( "marginal at p_zero " ^ R.to_string p,
          D.map fst (HD.mu_and_with_aux_p ~k ~p_zero:p) ))
      (p_zeros k)
  @ [ ( "raw: mass 4/3, a zero weight, a repeat",
        raw_dist
          [ (x 1, R.of_ints 1 3); (x 2, R.zero); (x 0, R.of_ints 1 3);
            (x 1, R.of_ints 1 6); (x 2, R.of_ints 1 6) ] );
      ( "raw: mass 1/2, repeat first",
        raw_dist
          [ (x 3, R.of_ints 1 8); (x 3, R.of_ints 1 8); (x 0, R.of_ints 1 4) ]
      ) ]

(* Laws of (inputs, aux), by name. *)
let aux_laws k =
  let all = Sem.all_bit_inputs k in
  let x i = List.nth all (i mod List.length all) in
  [ ("mu_and_with_aux", HD.mu_and_with_aux ~k);
    ( "uniform product, Z = x_0 + 2 x_1",
      D.map (fun x -> (x, x.(0) + (2 * x.(1)))) (D.uniform all) );
    ( "uniform product, Z a scrambled code",
      D.map
        (fun x ->
          let code = Array.fold_right (fun b acc -> (2 * acc) + b) x 0 in
          (x, ((code * 5) + 3) mod 8))
        (D.uniform all) );
    ( "mu_and_with_aux, Z a scrambled code",
      D.map
        (fun (x, _) ->
          let code = Array.fold_right (fun b acc -> (2 * acc) + b) x 0 in
          (x, ((code * 7) + 5) mod 6))
        (HD.mu_and_with_aux ~k) );
    ( "Z first appears in reverse order",
      D.map_injective (fun (x, z) -> (x, k - 1 - z)) (HD.mu_and_with_aux ~k) )
  ]
  @ List.map
      (fun p ->
        ("aux at p_zero " ^ R.to_string p, HD.mu_and_with_aux_p ~k ~p_zero:p))
      (p_zeros k)
  @ [ ( "raw: mass 5/4, a zero weight, repeats",
        raw_dist
          [ ((x 1, 2), R.of_ints 1 4); ((x 2, 0), R.zero);
            ((x 0, 2), R.of_ints 1 4); ((x 1, 2), R.of_ints 1 8);
            ((x 1, 0), R.of_ints 3 8); ((x 3, 1), R.of_ints 1 4) ] ) ]

(* Emit laws built behind the smart constructor's back: mass 5/6 with
   a repeated symbol, and mass 1 with a zero weight and a repeat. The
   transcript laws repeat transcripts, and the first is unnormalized. *)
let raw_tree () =
  let law b =
    if b = 0 then
      raw_dist [ (0, R.of_ints 1 3); (1, R.of_ints 1 3); (0, R.of_ints 1 6) ]
    else raw_dist [ (1, R.half); (0, R.zero); (1, R.of_ints 1 4);
                    (0, R.of_ints 1 4) ]
  in
  T.speak_unguarded ~speaker:0 ~emit:law
    [| T.speak_unguarded ~speaker:1 ~emit:law [| T.output 0; T.output 1 |];
       T.output 1 |]

(* A tree from the seed: [Test_random_trees]' generator (chance nodes,
   arities 2-3), one of the three AND families, or [raw_tree]. *)
let tree_of_seed seed =
  let rng = Prob.Rng.of_int_seed seed in
  let k = 2 + Prob.Rng.int rng 3 in
  match Prob.Rng.int rng 5 with
  | 4 -> (Printf.sprintf "raw emit laws k=%d" k, k, raw_tree ())
  | 0 ->
      let depth = 2 + Prob.Rng.int rng 3 in
      (Printf.sprintf "random tree k=%d depth=%d" k depth,
       k, Test_random_trees.random_tree ~rng ~k ~depth)
  | 1 -> (Printf.sprintf "sequential k=%d" k, k, AP.sequential k)
  | 2 -> (Printf.sprintf "broadcast-all k=%d" k, k, AP.broadcast_all k)
  | _ ->
      let noise = if Prob.Rng.bool rng then R.of_ints 1 10 else R.of_ints 3 10 in
      ( Printf.sprintf "noisy k=%d noise=%s" k (R.to_string noise),
        k, AP.noisy_sequential ~k ~noise )

let bit_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let fail_bits what name got want =
  QCheck.Test.fail_reportf "%s on %s: got %h, want %h" what name got want

(* ------------------------------------------------------------------ *)
(* Properties.                                                         *)
(* ------------------------------------------------------------------ *)

let prop_measures_bit_equal =
  qtest "IC, H(T), CIC bit-equal to Measures over the joint" ~count:60
    QCheck.small_nat (fun seed ->
      let tname, k, tree = tree_of_seed seed in
      List.iter
        (fun (lname, mu) ->
          let name = tname ^ ", " ^ lname in
          let memo = Sem.memo () in
          let ic = Info.external_ic ~memo tree mu
          and want = ref_external_ic tree mu in
          if not (bit_equal ic want) then fail_bits "IC" name ic want;
          let h = Info.transcript_entropy ~memo tree mu
          and want = ref_transcript_entropy tree mu in
          if not (bit_equal h want) then fail_bits "H(T)" name h want)
        (input_laws k);
      List.iter
        (fun (lname, mu_xd) ->
          let name = tname ^ ", " ^ lname in
          let cic = Info.conditional_ic tree mu_xd
          and want = ref_conditional_ic tree mu_xd in
          if not (bit_equal cic want) then fail_bits "CIC" name cic want)
        (aux_laws k);
      true)

let prop_per_round_close =
  qtest "per-round terms within 1e-12 of the prefix-table formula"
    ~count:60 QCheck.small_nat (fun seed ->
      let tname, k, tree = tree_of_seed seed in
      List.iter
        (fun (lname, mu) ->
          let name = tname ^ ", " ^ lname in
          let got = Info.per_round_information tree mu
          and want = ref_per_round tree mu in
          if Array.length got <> Array.length want then
            QCheck.Test.fail_reportf "%s: %d rounds, want %d" name
              (Array.length got) (Array.length want);
          Array.iteri
            (fun j g ->
              if Float.abs (g -. want.(j)) > 1e-12 then
                QCheck.Test.fail_reportf "%s: round %d is %h, want %h" name j
                  g want.(j))
            got;
          let ic = Info.external_ic tree mu in
          let sum = Array.fold_left ( +. ) 0. got in
          if Float.abs (sum -. ic) > 1e-9 then
            QCheck.Test.fail_reportf "%s: rounds sum to %h, IC is %h" name sum
              ic)
        (input_laws k);
      true)

(* A fixed sweep next to the random ones: the AND families at k = 2..5
   under every aux law. Among them, noisy AND_4 under the scrambled-code
   law and noisy AND_5 under reversed Z change their last bit when the
   values of Z are summed in order of value, not of first appearance. *)
let t_cic_families () =
  for k = 2 to 5 do
    List.iter
      (fun (tname, tree) ->
        List.iter
          (fun (lname, mu_xd) ->
            let got = Info.conditional_ic tree mu_xd
            and want = ref_conditional_ic tree mu_xd in
            if not (bit_equal got want) then
              Alcotest.failf "CIC on %s k=%d, %s: got %h, want %h" tname k
                lname got want)
          (aux_laws k))
      [ ("sequential", AP.sequential k); ("broadcast-all", AP.broadcast_all k);
        ("noisy 1/10", AP.noisy_sequential ~k ~noise:(R.of_ints 1 10));
        ("noisy 3/10", AP.noisy_sequential ~k ~noise:(R.of_ints 3 10)) ]
  done

(* The laws are errors on the same inputs as before. *)
let t_bad_laws () =
  let tree = AP.sequential 2 in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: no exception" name
    | exception Invalid_argument _ -> ()
  in
  raises "IC, no positive mass" (fun () ->
      Info.external_ic tree (raw_dist [ ([| 0; 1 |], R.zero) ]));
  raises "CIC, no positive mass" (fun () ->
      Info.conditional_ic tree (raw_dist [ (([| 0; 1 |], 0), R.zero) ]));
  raises "per-round, negative mass" (fun () ->
      Info.per_round_information tree (raw_dist [ ([| 1; 0 |], R.of_int (-1)) ]))

(* ------------------------------------------------------------------ *)
(* The error without transcript laws.                                  *)
(* ------------------------------------------------------------------ *)

(* Reference functions: AND, and a parity on which the deterministic
   AND protocols err. *)
let error_fns =
  [ ("AND", HD.and_fn); ("parity", Array.fold_left ( lxor ) 0) ]

(* [error_on] on every input and [worst_case_error] over them, equal as
   rationals to the output-law formula they replace. *)
let check_errors name tree ~k =
  let inputs = Sem.all_bit_inputs k in
  List.iter
    (fun (fname, f) ->
      let worst =
        List.fold_left
          (fun worst x ->
            let got = Sem.error_on tree ~f x
            and want = Sem.For_testing.error_on_ref tree ~f x in
            if not (R.equal got want) then
              Alcotest.failf "error_on %s on %s at %s: got %s, want %s" fname
                name
                (String.concat "" (Array.to_list (Array.map string_of_int x)))
                (R.to_string got) (R.to_string want);
            R.max worst want)
          R.zero inputs
      in
      let got = Sem.worst_case_error tree ~f inputs in
      if not (R.equal got worst) then
        Alcotest.failf "worst_case_error %s on %s: got %s, want %s" fname name
          (R.to_string got) (R.to_string worst))
    error_fns

let prop_error_on =
  qtest "error_on, worst_case_error = the output-law formula" ~count:60
    QCheck.small_nat (fun seed ->
      let tname, k, tree = tree_of_seed seed in
      check_errors tname tree ~k;
      true)

(* A DAG: both messages of a randomized root lead to one shared node,
   whose emit laws have mass 5/6 and 1 ([raw_tree]'s). *)
let dag_tree () =
  let shared =
    T.speak_unguarded ~speaker:1
      ~emit:(fun b ->
        if b = 0 then
          raw_dist
            [ (0, R.of_ints 1 3); (1, R.of_ints 1 3); (0, R.of_ints 1 6) ]
        else raw_dist [ (1, R.half); (0, R.zero); (0, R.half) ])
      [| T.output 0; T.output 1 |]
  in
  T.speak ~speaker:0
    ~emit:(fun b ->
      D.of_weighted [ (0, R.of_ints (1 + b) 4); (1, R.of_ints (3 - b) 4) ])
    [| shared; T.chance ~coin:(D.uniform [ 0; 1 ]) [| shared; T.output 1 |] |]

let t_error_families () =
  for k = 2 to 7 do
    List.iter
      (fun (tname, tree) -> check_errors (Printf.sprintf "%s k=%d" tname k) tree ~k)
      [ ("sequential", AP.sequential k); ("broadcast-all", AP.broadcast_all k);
        ("noisy 1/10", AP.noisy_sequential ~k ~noise:(R.of_ints 1 10));
        ("noisy 3/10", AP.noisy_sequential ~k ~noise:(R.of_ints 3 10)) ]
  done;
  for k = 2 to 5 do
    check_errors (Printf.sprintf "noisy 0.05 k=%d" k)
      (AP.noisy_sequential ~k ~noise:(R.of_float_dyadic 0.05)) ~k
  done;
  check_errors "raw emit laws" (raw_tree ()) ~k:2;
  check_errors "DAG with raw emit laws" (dag_tree ()) ~k:2;
  for seed = 0 to 19 do
    let rng = Prob.Rng.of_int_seed seed in
    check_errors (Printf.sprintf "random tree seed %d" seed)
      (Test_random_trees.random_tree ~rng ~k:3 ~depth:4) ~k:3
  done;
  (* No path of positive mass: both formulas refuse. *)
  let dead =
    T.speak_unguarded ~speaker:0
      ~emit:(fun _ -> raw_dist [ (0, R.zero) ])
      [| T.output 0 |]
  in
  List.iter
    (fun (name, f) ->
      match f () with
      | _ -> Alcotest.failf "%s: no exception" name
      | exception Invalid_argument _ -> ())
    [ ("error_on", fun () -> Sem.error_on dead ~f:HD.and_fn [| 1; 1 |]);
      ( "error_on_ref",
        fun () -> Sem.For_testing.error_on_ref dead ~f:HD.and_fn [| 1; 1 |] ) ]

(* ------------------------------------------------------------------ *)
(* The kept table.                                                     *)
(* ------------------------------------------------------------------ *)

(* The four measures of one request, each as a float array. *)
let four tree mu mu_xd =
  [ ("IC", fun memo -> [| Info.external_ic ~memo tree mu |]);
    ("CIC", fun memo -> [| Info.conditional_ic ~memo tree mu_xd |]);
    ("H(T)", fun memo -> [| Info.transcript_entropy ~memo tree mu |]);
    ("per-round", fun memo -> Info.per_round_information ~memo tree mu) ]

let check_bits what got want =
  if Array.length got <> Array.length want
     || not (Array.for_all2 bit_equal got want)
  then
    Alcotest.failf "%s: got [%s], want [%s]" what
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") got)))
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") want)))

(* The four measures on one memo, in list order and reversed, equal each
   measure on a fresh memo, and both memos hold the same laws: those of
   the inputs of [mu] and [mu_xd]. *)
let check_kept name tree mu mu_xd =
  let ms = four tree mu mu_xd in
  let fresh = List.map (fun (m, f) -> (m, f (Sem.memo ()))) ms in
  let run order =
    let memo = Sem.memo () in
    List.iter
      (fun (m, f) ->
        check_bits (Printf.sprintf "%s on %s, shared memo" m name) (f memo)
          (List.assoc m fresh))
      order;
    Sem.memo_size memo
  in
  let forward = run ms and backward = run (List.rev ms) in
  let laws = Sem.memo () in
  List.iter (fun (x, _) -> ignore (Sem.transcript_dist ~memo:laws tree x))
    (D.to_alist mu);
  List.iter
    (fun ((x, _), _) -> ignore (Sem.transcript_dist ~memo:laws tree x))
    (D.to_alist mu_xd);
  Alcotest.(check int) (name ^ ": memo size, both orders") forward backward;
  Alcotest.(check int) (name ^ ": memo size = the inputs' laws")
    (Sem.memo_size laws) forward

let t_kept_table () =
  for k = 2 to 6 do
    List.iter
      (fun (tname, tree) ->
        let name = Printf.sprintf "%s k=%d" tname k in
        check_kept name tree (HD.mu_and ~k) (HD.mu_and_with_aux ~k);
        check_kept (name ^ ", uniform") tree
          (D.uniform (Sem.all_bit_inputs k))
          (HD.mu_and_with_aux_p ~k ~p_zero:R.half))
      [ ("sequential", AP.sequential k); ("broadcast-all", AP.broadcast_all k);
        ("noisy 1/10", AP.noisy_sequential ~k ~noise:(R.of_ints 1 10)) ]
  done;
  (* One memo across two laws and two trees: a table is reused only for
     its own tree and law. *)
  let k = 4 in
  let mu = HD.mu_and ~k and uniform = D.uniform (Sem.all_bit_inputs k) in
  let seq = AP.sequential k and bcast = AP.broadcast_all k in
  let memo = Sem.memo () in
  List.iter
    (fun (what, f) ->
      check_bits what (f (Some memo)) (f None))
    [ ("IC seq mu", fun memo -> [| Info.external_ic ?memo seq mu |]);
      ("IC seq uniform", fun memo -> [| Info.external_ic ?memo seq uniform |]);
      ("H(T) seq mu", fun memo -> [| Info.transcript_entropy ?memo seq mu |]);
      ("IC bcast mu", fun memo -> [| Info.external_ic ?memo bcast mu |]);
      ( "per-round seq uniform",
        fun memo -> Info.per_round_information ?memo seq uniform );
      ("H(T) bcast uniform",
        fun memo -> [| Info.transcript_entropy ?memo bcast uniform |]);
      ("IC seq mu again", fun memo -> [| Info.external_ic ?memo seq mu |]) ]

(* ------------------------------------------------------------------ *)
(* Masses past the native range and at the 2^53 edge.                  *)
(* ------------------------------------------------------------------ *)

let check_vs_measures name tree mu mu_xd =
  check_bits ("IC on " ^ name) [| Info.external_ic tree mu |]
    [| ref_external_ic tree mu |];
  check_bits ("H(T) on " ^ name) [| Info.transcript_entropy tree mu |]
    [| ref_transcript_entropy tree mu |];
  check_bits ("CIC on " ^ name) [| Info.conditional_ic tree mu_xd |]
    [| ref_conditional_ic tree mu_xd |];
  let got = Info.per_round_information tree mu
  and want = ref_per_round tree mu in
  Alcotest.(check int) (name ^ ": rounds") (Array.length want)
    (Array.length got);
  Array.iteri
    (fun j g ->
      if Float.abs (g -. want.(j)) > 1e-12 then
        Alcotest.failf "%s: round %d is %h, want %h" name j g want.(j))
    got

(* Dyadic noise 0.05 (a 56-bit denominator per message) takes the row
   masses far past 2^62. *)
let t_big_masses () =
  for k = 2 to 6 do
    let tree = AP.noisy_sequential ~k ~noise:(R.of_float_dyadic 0.05) in
    let name = Printf.sprintf "noisy 0.05 k=%d" k in
    check_vs_measures name tree (HD.mu_and ~k) (HD.mu_and_with_aux ~k);
    if k <= 4 then
      List.iter
        (fun ((lname, mu), (aname, mu_xd)) ->
          check_vs_measures (name ^ ", " ^ lname ^ ", " ^ aname) tree mu mu_xd)
        (List.combine
           (List.filteri (fun i _ -> i < 5) (input_laws k))
           (List.filteri (fun i _ -> i < 5) (aux_laws k)))
  done

(* Laws over three inputs whose masses sit at 2^53. In the first the
   lcm is 3 * 2^52: the mass 3 (2^52 - 1) of the first atom over it is
   not a float, while its canonical ratio (2^52 - 1) / 2^52 is exact,
   so only the rational gets the canonical float. *)
let edge_laws =
  let p52 = 1 lsl 52 and p53 = 1 lsl 53 in
  let three a b =
    let x = Sem.all_bit_inputs 2 in
    let c = R.sub R.one (R.add a b) in
    D.of_weighted
      [ (List.nth x 0, a); (List.nth x 1, b); (List.nth x 3, c) ]
  in
  [ ("lcm 3 * 2^52", three (R.of_ints (p52 - 1) p52) (R.of_ints 1 (3 * p52)));
    ("lcm 2^53 - 1", three (R.of_ints p52 (p53 - 1)) (R.of_ints 1 (p53 - 1)));
    ("lcm 2^53", three (R.of_ints (p52 + 1) p53) (R.of_ints 3 p53));
    ("lcm 2^53 + 1", three (R.of_ints p52 (p53 + 1)) (R.of_ints 7 (p53 + 1)));
    ( "raw: mass (2^53 + 3) / 2^53",
      raw_dist
        (List.map2
           (fun x w -> (x, w))
           (Sem.all_bit_inputs 2)
           [ R.of_ints (p52 + 1) p53; R.of_ints 1 p53; R.of_ints p52 p53;
             R.of_ints 1 p53 ]) ) ]

let t_edge_masses () =
  List.iter
    (fun (lname, mu) ->
      let mu_xd = D.map_injective (fun x -> (x, x.(0))) mu in
      List.iter
        (fun (tname, tree) ->
          check_vs_measures (tname ^ ", " ^ lname) tree mu mu_xd)
        [ ("sequential", AP.sequential 2); ("broadcast-all", AP.broadcast_all 2);
          ("noisy 1/10", AP.noisy_sequential ~k:2 ~noise:(R.of_ints 1 10)) ])
    edge_laws

let items d = D.to_alist d

let check_same_law ~msg eq want got =
  let want = items want and got = items got in
  Alcotest.(check int) (msg ^ ": atoms") (List.length want) (List.length got);
  List.iteri
    (fun i ((v, w), (v', w')) ->
      if not (eq v v') then Alcotest.failf "%s: atom %d differs" msg i;
      if not (R.equal w w') then
        Alcotest.failf "%s: atom %d weight %s, want %s" msg i (R.to_string w')
          (R.to_string w))
    (List.combine want got)

let t_laws_equal () =
  for k = 2 to 10 do
    List.iter
      (fun p_zero ->
        check_same_law
          ~msg:(Printf.sprintf "mu_and_with_aux_p k=%d p_zero=%s" k
                  (R.to_string p_zero))
          ( = )
          (ref_mu_and_with_aux_p ~k ~p_zero)
          (HD.mu_and_with_aux_p ~k ~p_zero))
      (p_zeros k);
    check_same_law ~msg:(Printf.sprintf "mu_and k=%d" k) ( = ) (ref_mu_and ~k)
      (HD.mu_and ~k)
  done

(* ------------------------------------------------------------------ *)
(* The orbit engine's log factors.                                     *)
(* ------------------------------------------------------------------ *)

module Orbit = Proto.Orbit

(* The Kahan sum of [Orbit]'s measures, in list order. *)
let kahan xs =
  let sum = ref 0.0 and comp = ref 0.0 in
  List.iter
    (fun x ->
      let y = x -. !comp in
      let t = !sum +. y in
      comp := t -. !sum -. y;
      sum := t)
    xs;
  !sum

(* Orbit IC recomputed from the collapsed law with each cell's log
   factor taken as [log2 (w / (px * p_t))], the product the engine no
   longer forms; CIC as the [P(z)]-weighted sum over the slices. *)
let ref_orbit_ic tree sym =
  kahan
    (List.concat_map
       (fun (p : Orbit.path) ->
         List.map
           (fun (cl : Orbit.cell) ->
             R.to_float (R.mul cl.count cl.w_each)
             *. R.log2 (R.div cl.w_each (R.mul cl.px_each p.p_t)))
           p.cells)
       (Orbit.collapse tree sym))

let ref_orbit_cic tree slices =
  kahan
    (List.filter_map
       (fun (wz, sym) ->
         if R.is_zero wz then None
         else Some (R.to_float wz *. ref_orbit_ic tree sym))
       slices)

let check_orbit_bits name tree ~k =
  List.iter
    (fun p_zero ->
      let name = Printf.sprintf "%s, p_zero=%s" name (R.to_string p_zero) in
      let sym = HD.mu_and_orbit_p ~k ~p_zero
      and slices = HD.mu_and_aux_slices_p ~k ~p_zero in
      let memo = Orbit.memo () in
      let ic = Orbit.external_ic ~memo tree sym
      and want = ref_orbit_ic tree sym in
      if not (bit_equal ic want) then fail_bits "orbit IC" name ic want;
      let cic = Orbit.conditional_ic ~memo tree slices
      and want = ref_orbit_cic tree slices in
      if not (bit_equal cic want) then fail_bits "orbit CIC" name cic want)
    (p_zeros k)

let prop_orbit_log_factor =
  qtest "orbit IC, CIC bit-equal to the w / (px p_t) log factor" ~count:60
    QCheck.small_nat (fun seed ->
      let tname, k, tree = tree_of_seed seed in
      check_orbit_bits tname tree ~k;
      true)

let t_orbit_log_factor_families () =
  List.iter
    (fun k ->
      List.iter
        (fun (tname, tree) ->
          check_orbit_bits (Printf.sprintf "%s k=%d" tname k) tree ~k)
        [ ("sequential", AP.sequential k);
          ("noisy 1/10", AP.noisy_sequential ~k ~noise:(R.of_ints 1 10));
          ("noisy 3/10", AP.noisy_sequential ~k ~noise:(R.of_ints 3 10)) ])
    [ 6; 9; 12 ];
  check_orbit_bits "broadcast-all k=6" (AP.broadcast_all 6) ~k:6

let suite =
  [
    prop_measures_bit_equal;
    prop_per_round_close;
    quick "CIC bit-equal on the AND families, k = 2..5" t_cic_families;
    quick "laws without positive mass are refused" t_bad_laws;
    quick "Section-4.1 laws equal the per-player construction" t_laws_equal;
    prop_error_on;
    quick "error_on on the AND families, raw laws, a DAG" t_error_families;
    quick "kept tables: orders, laws and trees on one memo" t_kept_table;
    quick "measures on masses past 2^62 = Measures" t_big_masses;
    quick "measures on masses at 2^53 = Measures" t_edge_masses;
    prop_orbit_log_factor;
    quick "orbit log factors on the AND families, k = 6..12"
      t_orbit_log_factor_families;
  ]
