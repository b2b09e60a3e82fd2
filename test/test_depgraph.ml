(** Slot-dependency analysis ({!Analysis.Depgraph}): read-sets,
    output relevance, wave partitions, certificate withholding, the
    structural soundness bridge to {!Netsim.Hbcheck}, and the
    [redundant-slot] lint rule derived from the read-sets. *)

module Dg = Analysis.Depgraph
module Hb = Netsim.Hbcheck
module T = Proto.Tree
module D = Prob.Dist_exact
module R = Exact.Rational
module Reg = Protocols.Registry
open Test_util

let bit_domain = [| 0; 1 |]

let cert_of dg =
  {
    Hb.slots = dg.Dg.slots;
    reads = Array.map Array.of_list dg.Dg.reads;
    waves = dg.Dg.waves;
  }

let check_reads ~msg dg expected =
  Alcotest.(check (array (list int)))
    msg expected dg.Dg.reads

(* ---- sequential chain: every slot depends on every earlier one ---- *)

let t_sequential_chain () =
  let dg =
    Dg.analyze ~domain:bit_domain (Protocols.And_protocols.sequential 3)
  in
  Alcotest.(check int) "slots" 3 dg.Dg.slots;
  check_reads ~msg:"chain reads" dg [| []; [ 0 ]; [ 0; 1 ] |];
  Alcotest.(check (array int)) "singleton waves" [| 0; 1; 2 |] dg.Dg.waves;
  Alcotest.(check bool) "certified" true (Dg.certificate dg <> None);
  Alcotest.(check (array (list int)))
    "speakers" [| [ 0 ]; [ 1 ]; [ 2 ] |] dg.Dg.speakers

(* ---- broadcast-all: unconditional fixed speakers, one wave ---- *)

let t_broadcast_one_wave () =
  let dg =
    Dg.analyze ~domain:bit_domain (Protocols.And_protocols.broadcast_all 4)
  in
  Alcotest.(check int) "slots" 4 dg.Dg.slots;
  check_reads ~msg:"no reads" dg [| []; []; []; [] |];
  Alcotest.(check (array int)) "one wave" [| 0 |] dg.Dg.waves;
  Alcotest.(check (array bool))
    "every bit can flip the AND" [| true; true; true; true |]
    dg.Dg.output_relevant

(* ---- proven-dead sibling branches do not create edges ---- *)

(* Child 1 of slot 0 leads to a different speaker at slot 1, which would
   force sequentiality — but under [emit = const 0] that branch is
   proven dead, so the dependency is pruned and both slots share a
   wave. The same tree under [emit = id] keeps both branches live and
   must stay sequential. *)
let pruning_tree emit =
  T.speak ~speaker:0 ~emit
    [|
      T.speak_det ~speaker:1 ~f:(fun b -> b) [| T.output 0; T.output 1 |];
      T.speak_det ~speaker:2 ~f:(fun b -> b) [| T.output 1; T.output 0 |];
    |]

let t_dead_branch_pruned () =
  let dg = Dg.analyze ~domain:bit_domain (pruning_tree (fun _ -> D.return 0)) in
  check_reads ~msg:"pruned" dg [| []; [] |];
  Alcotest.(check (array int)) "one wave" [| 0 |] dg.Dg.waves;
  let dg = Dg.analyze ~domain:bit_domain (pruning_tree D.return) in
  check_reads ~msg:"live divergence" dg [| []; [ 0 ] |];
  Alcotest.(check (array int)) "sequential" [| 0; 1 |] dg.Dg.waves

(* ---- public coins are free and, when equal across branches, do not
   force dependencies; the chain structure still does ---- *)

let t_coin_chain () =
  let tree =
    Proto.Combinators.xor_output_with_coin
      (Protocols.And_protocols.sequential 3)
  in
  let dg = Dg.analyze ~domain:bit_domain tree in
  Alcotest.(check int) "coins cost no slots" 3 dg.Dg.slots;
  Alcotest.(check int) "still fully sequential" 3 (Dg.wave_count dg);
  Alcotest.(check bool) "certified" true (Dg.certificate dg <> None)

(* ---- misbehaving laws withhold the certificate ---- *)

let t_law_failure_no_certificate () =
  let tree =
    T.speak_unguarded ~speaker:0
      ~emit:(fun b -> if b = 1 then failwith "boom" else D.return 0)
      [| T.output 0; T.output 1 |]
  in
  let dg = Dg.analyze ~domain:bit_domain tree in
  Alcotest.(check bool) "law failures seen" true (dg.Dg.law_failures > 0);
  Alcotest.(check bool) "no certificate" true (Dg.certificate dg = None)

let t_widened_no_certificate () =
  let dg =
    Dg.analyze ~budget:2 ~domain:bit_domain
      (Protocols.And_protocols.sequential 5)
  in
  Alcotest.(check bool) "widened" true dg.Dg.widened;
  Alcotest.(check bool) "no certificate" true (Dg.certificate dg = None)

(* ---- shared subtrees short-circuit: identical continuations cannot
   expose the branching symbol ---- *)

let t_physically_shared_children () =
  let shared = T.speak_det ~speaker:1 ~f:(fun b -> b) [| T.output 0; T.output 1 |] in
  let tree = T.speak_det ~speaker:0 ~f:(fun b -> b) [| shared; shared |] in
  let dg = Dg.analyze ~domain:bit_domain tree in
  check_reads ~msg:"slot 1 ignores slot 0" dg [| []; [] |];
  Alcotest.(check (array int)) "one wave" [| 0 |] dg.Dg.waves;
  Alcotest.(check bool)
    "slot 0 is provably redundant" false dg.Dg.output_relevant.(0)

(* ---- one law table per run: each (node, input) law evaluated once ---- *)

(* and/bcast at k = 8, rebuilt with an [f] per node that counts its
   calls per input. The matched descent walks every pair of live
   sibling subtrees in lockstep, so re-evaluating laws on each visit
   would call each [f] about k times per input; the run's law table
   calls it at most once. The table dies with its run: a second
   analysis evaluates afresh. *)
let t_law_table_evaluates_once () =
  let k = 8 in
  let counters = ref [] in
  let rec build i acc =
    if i = k then T.output acc
    else begin
      let calls = Array.make 2 0 in
      counters := calls :: !counters;
      T.speak_det ~speaker:i
        ~f:(fun b ->
          calls.(b) <- calls.(b) + 1;
          b)
        [| build (i + 1) 0; build (i + 1) acc |]
    end
  in
  let tree = build 0 1 in
  let max_calls () =
    List.fold_left (fun m c -> Array.fold_left max m c) 0 !counters
  in
  let dg = Dg.analyze ~domain:bit_domain tree in
  Alcotest.(check int) "each (node, input) law evaluated once" 1 (max_calls ());
  ignore (Dg.analyze ~domain:bit_domain tree);
  Alcotest.(check int) "a second run evaluates afresh" 2 (max_calls ());
  let json dg = Obs.Jsonw.to_string (Dg.to_json dg) in
  Alcotest.(check string) "same analysis as the library's and/bcast"
    (json
       (Dg.analyze ~domain:bit_domain (Protocols.And_protocols.broadcast_all k)))
    (json dg)

(* Law equality in the matched descent is extensional: one law built
   in two support orders is equal to itself, so sibling suffixes that
   differ only in that order do not betray slot 0. A law with mass
   outside its arity equals no law, itself included, so identical
   such siblings still close off. *)
let t_law_equality () =
  let third = R.of_ints 1 3 and two_thirds = R.of_ints 2 3 in
  let suffix law =
    T.speak ~speaker:1 ~emit:(fun _ -> law) [| T.output 0; T.output 1 |]
  in
  let reordered =
    T.speak_det ~speaker:0 ~f:(fun b -> b)
      [| suffix (D.of_weighted [ (0, third); (1, two_thirds) ]);
         suffix (D.of_weighted [ (1, two_thirds); (0, third) ]) |]
  in
  let dg = Dg.analyze ~domain:bit_domain reordered in
  check_reads ~msg:"support order is not a difference" dg [| []; [] |];
  Alcotest.(check bool) "slot 0 redundant" false dg.Dg.output_relevant.(0);
  let stray () =
    T.speak_unguarded ~speaker:1
      ~emit:(fun _ -> D.of_weighted [ (0, third); (5, two_thirds) ])
      [| T.output 0; T.output 1 |]
  in
  let dg =
    Dg.analyze ~domain:bit_domain
      (T.speak_det ~speaker:0 ~f:(fun b -> b) [| stray (); stray () |])
  in
  check_reads ~msg:"stray mass closes off" dg [| []; [ 0 ] |];
  Alcotest.(check bool) "no certificate" true (Dg.certificate dg = None)

(* ---- every registry certificate passes the netsim validator ---- *)

let t_registry_certificates () =
  List.iter
    (fun (Reg.Entry e as entry) ->
      let name = Reg.name entry in
      let dg =
        Dg.analyze ~players:e.players ~domain:e.domain
          (Lazy.force e.tree)
      in
      (match Dg.certificate dg with
      | None -> Alcotest.failf "%s: no pipelining certificate" name
      | Some _ -> ());
      (match Hb.validate_cert (cert_of dg) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: invalid certificate: %s" name m);
      if Dg.wave_count dg > dg.Dg.slots then
        Alcotest.failf "%s: more waves than slots" name)
    (Reg.all ())

(* The one-pass broadcast-style entries pipeline down to a single wave;
   the adaptive halt-at-first-zero chains provably cannot (every slot
   decides whether its successor exists), which the analysis must
   report honestly as one wave per slot. *)
let t_registry_wave_shapes () =
  let waves_of name =
    let (Reg.Entry e) = Option.get (Reg.find name) in
    let dg =
      Dg.analyze ~players:e.players ~domain:e.domain
        (Lazy.force e.tree)
    in
    (dg.Dg.slots, Dg.wave_count dg)
  in
  List.iter
    (fun (name, slots) ->
      Alcotest.(check (pair int int))
        (name ^ " collapses to one wave") (slots, 1) (waves_of name))
    [ ("disj/trivial-tree", 3); ("or/pointwise-tree", 3);
      ("and/broadcast-all", 4) ];
  List.iter
    (fun name ->
      let slots, waves = waves_of name in
      Alcotest.(check int) (name ^ " is fully sequential") slots waves)
    [ "and/sequential"; "and/truncated"; "disj/naive-tree" ]

(* ---- Hbcheck: the dynamic oracle itself ---- *)

let t_hbcheck_validate_rejects () =
  let bad =
    { Hb.slots = 2; reads = [| [||]; [| 0 |] |]; waves = [| 0 |] }
  in
  (match Hb.validate_cert bad with
  | Ok () -> Alcotest.fail "read inside own wave must be rejected"
  | Error _ -> ());
  let bad = { Hb.slots = 2; reads = [| [||]; [| 1 |] |]; waves = [| 0; 1 |] } in
  (match Hb.validate_cert bad with
  | Ok () -> Alcotest.fail "self-read must be rejected"
  | Error _ -> ());
  match Hb.validate_cert (Hb.sequential_cert ~slots:5) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "sequential cert must validate: %s" m

let t_hbcheck_race_detection () =
  let cert = Hb.sequential_cert ~slots:2 in
  let hb = Hb.create cert ~k:3 in
  (* Launch slot 1 before slot 0 delivered at its speaker: a race. *)
  Hb.note_launch hb ~slot:0 ~speaker:0;
  Hb.note_launch hb ~slot:1 ~speaker:1;
  Alcotest.(check bool) "race recorded" false (Hb.ok hb);
  (match Hb.races hb with
  | [ { Hb.slot = 1; speaker = 1; missing = 0 } ] -> ()
  | _ -> Alcotest.fail "expected exactly the slot-1-reads-slot-0 race");
  (try
     Hb.check hb;
     Alcotest.fail "check must hard-error"
   with Failure m ->
     Alcotest.(check bool) "names hbcheck" true
       (String.length m >= 7 && String.sub m 0 7 = "hbcheck"));
  (* Same schedule with the delivery in between: clean. *)
  let hb = Hb.create cert ~k:3 in
  Hb.note_launch hb ~slot:0 ~speaker:0;
  for p = 0 to 2 do
    Hb.note_deliver hb ~slot:0 ~player:p
  done;
  Hb.note_launch hb ~slot:1 ~speaker:1;
  Alcotest.(check bool) "no race" true (Hb.ok hb);
  Hb.check hb

(* ---- redundant-slot lint rule (9) ---- *)

let t_redundant_slot_positive () =
  (* Slot 0's value is read by nothing and both outputs agree: waste. *)
  let tree = T.speak_det ~speaker:0 ~f:(fun b -> b) [| T.output 7; T.output 7 |] in
  let report = Analysis.Rules.redundant_slot ~domain:bit_domain tree in
  Alcotest.(check int)
    "one warning" 1
    (Analysis.Report.count_severity Analysis.Report.Warning report)

let t_redundant_slot_negative () =
  List.iter
    (fun tree ->
      let report = Analysis.Rules.redundant_slot ~domain:bit_domain tree in
      Alcotest.(check bool) "clean" true (Analysis.Report.is_clean report))
    [
      Protocols.And_protocols.sequential 3;
      Protocols.And_protocols.broadcast_all 3;
    ];
  (* Silent (not warning) when the analysis cannot trust its read-sets. *)
  let report =
    Analysis.Rules.redundant_slot ~budget:2 ~domain:bit_domain
      (Protocols.And_protocols.sequential 5)
  in
  Alcotest.(check bool) "silent when widened" true
    (Analysis.Report.is_clean report)

let t_registry_stays_clean () =
  List.iter
    (fun (Reg.Entry e as entry) ->
      let report =
        Analysis.Rules.redundant_slot ~players:e.players
          ~domain:e.domain (Lazy.force e.tree)
      in
      if not (Analysis.Report.is_clean report) then
        Alcotest.failf "%s: registry entry flagged redundant" (Reg.name entry))
    (Reg.all ())

(* ---- qcheck: wave partitions are always structurally sound ---- *)

let t_qcheck_waves_sound =
  qtest ~count:60 "random-entry depgraph certificates validate"
    QCheck.(int_range 0 11)
    (fun i ->
      let entries = Array.of_list (Reg.all ()) in
      let (Reg.Entry e) = entries.(i mod Array.length entries) in
      let dg =
        Dg.analyze ~players:e.players ~domain:e.domain
          (Lazy.force e.tree)
      in
      match Hb.validate_cert (cert_of dg) with
      | Ok () -> true
      | Error _ -> false)

let suite =
  [
    quick "sequential-chain" t_sequential_chain;
    quick "broadcast-one-wave" t_broadcast_one_wave;
    quick "dead-branch-pruned" t_dead_branch_pruned;
    quick "coin-chain" t_coin_chain;
    quick "law-failure-no-certificate" t_law_failure_no_certificate;
    quick "widened-no-certificate" t_widened_no_certificate;
    quick "physically-shared-children" t_physically_shared_children;
    quick "law-table-evaluates-once" t_law_table_evaluates_once;
    quick "law-equality" t_law_equality;
    quick "registry-certificates" t_registry_certificates;
    quick "registry-wave-shapes" t_registry_wave_shapes;
    quick "hbcheck-validate" t_hbcheck_validate_rejects;
    quick "hbcheck-races" t_hbcheck_race_detection;
    quick "redundant-slot-positive" t_redundant_slot_positive;
    quick "redundant-slot-negative" t_redundant_slot_negative;
    quick "redundant-slot-registry-clean" t_registry_stays_clean;
    t_qcheck_waves_sound;
  ]
