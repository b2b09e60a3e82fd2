(** Tests for the proto-lint static analyzer: one passing and one
    failing case per rule id, the analyzer-level policy, and the
    registry sweep that holds every shipped protocol to a clean
    report. Malformed trees are built through the raw constructors
    (and, for distributions, the raw {!Prob.Dist_core} record) exactly
    because the smart constructors refuse to build them. *)

module An = Analysis.Analyzer
module Rep = Analysis.Report
module Ru = Analysis.Rules
module Reg = Protocols.Registry
module T = Proto.Tree
module Sem = Proto.Semantics
module D = Prob.Dist_exact
module R = Exact.Rational
module MD = Prob.Dist_core.Make (Prob.Weight.Exact)
open Test_util

let bit_domain = [| 0; 1 |]
let seq k = Protocols.And_protocols.sequential k

(* An unnormalized / unchecked distribution: the public constructors
   normalize, so reach for the underlying record. *)
let raw_dist pairs : int D.t = { MD.items = Array.of_list pairs; index = None }

(* A Speak node built behind the smart constructor's back. *)
let raw_speak = T.speak_unguarded

let rules_of report =
  List.map (fun d -> d.Rep.rule) (Rep.to_list report)

let has_rule rule report = List.mem rule (rules_of report)

let check_flags ~msg rule report =
  if not (has_rule rule report) then
    Alcotest.failf "%s: expected a %s diagnostic, got: %s" msg rule
      (Rep.to_string report)

let check_silent ~msg report =
  if Rep.count report <> 0 then
    Alcotest.failf "%s: expected no diagnostics, got: %s" msg
      (Rep.to_string report)

(* --- (1) dist-normalized ------------------------------------------ *)

let t_dist_normalized_clean () =
  check_silent ~msg:"sequential AND"
    (Ru.dist_normalized ~domain:bit_domain (seq 3))

let t_dist_normalized_flags () =
  let t =
    raw_speak ~speaker:0
      ~emit:(fun _ -> raw_dist [ (0, R.half) ])
      [| T.output 0; T.output 1 |]
  in
  let report = Ru.dist_normalized ~domain:bit_domain t in
  check_flags ~msg:"mass 1/2 emit" Ru.id_dist_normalized report;
  Alcotest.(check bool) "error severity" true (Rep.has_errors report);
  let coin_tree =
    T.chance
      ~coin:(raw_dist [ (0, R.of_ints 2 3) ])
      [| T.output 0; T.output 1 |]
  in
  check_flags ~msg:"mass 2/3 coin" Ru.id_dist_normalized
    (Ru.dist_normalized ~domain:bit_domain coin_tree)

(* --- (2) support-in-arity ----------------------------------------- *)

let t_support_in_arity_clean () =
  check_silent ~msg:"sequential AND"
    (Ru.support_in_arity ~domain:bit_domain (seq 4))

let t_support_in_arity_flags () =
  let t =
    raw_speak ~speaker:0
      ~emit:(fun _ -> D.return 2)
      [| T.output 0; T.output 1 |]
  in
  let report = Ru.support_in_arity ~domain:bit_domain t in
  check_flags ~msg:"symbol 2 at arity 2" Ru.id_support_in_arity report;
  Alcotest.(check bool) "error severity" true (Rep.has_errors report);
  let coin_tree =
    T.chance ~coin:(D.uniform [ 0; 3 ]) [| T.output 0; T.output 1 |]
  in
  check_flags ~msg:"coin symbol 3 at arity 2" Ru.id_support_in_arity
    (Ru.support_in_arity ~domain:bit_domain coin_tree)

(* --- (3) speaker-bounds ------------------------------------------- *)

let t_speaker_bounds_clean () =
  check_silent ~msg:"k speakers, k players"
    (Ru.speaker_bounds ~players:3 (seq 3))

let t_speaker_bounds_flags () =
  let report = Ru.speaker_bounds ~players:2 (seq 3) in
  check_flags ~msg:"speaker 2 of 2 players" Ru.id_speaker_bounds report;
  let neg =
    raw_speak ~speaker:(-1)
      ~emit:(fun b -> D.return b)
      [| T.output 0; T.output 1 |]
  in
  check_flags ~msg:"negative speaker" Ru.id_speaker_bounds
    (Ru.speaker_bounds neg)

(* --- (4) broadcast-consistency ------------------------------------ *)

let t_broadcast_consistency_clean () =
  check_silent ~msg:"coin-xor wrapper"
    (Ru.broadcast_consistency
       (Proto.Combinators.xor_output_with_coin (seq 3)));
  check_silent ~msg:"no chance nodes" (Ru.broadcast_consistency (seq 4))

let t_broadcast_consistency_flags () =
  let leafy = [| T.output 0; T.output 1 |] in
  let by_coin =
    T.chance
      ~coin:(D.uniform [ 0; 1 ])
      [|
        T.speak_det ~speaker:0 ~f:(fun b -> b) leafy;
        T.speak_det ~speaker:1 ~f:(fun b -> b) leafy;
      |]
  in
  let report = Ru.broadcast_consistency by_coin in
  check_flags ~msg:"coin steers the speaker" Ru.id_broadcast_consistency
    report;
  Alcotest.(check bool) "error severity" true (Rep.has_errors report);
  (* Zero-probability branches may disagree: only realizable schedule
     divergence counts. *)
  let benign =
    T.chance ~coin:(D.return 0)
      [|
        T.speak_det ~speaker:0 ~f:(fun b -> b) leafy;
        T.speak_det ~speaker:1 ~f:(fun b -> b) leafy;
      |]
  in
  check_silent ~msg:"dead branch disagreement ignored"
    (Ru.broadcast_consistency benign)

(* --- (5) dead-branch ---------------------------------------------- *)

let t_dead_branch_clean () =
  check_silent ~msg:"sequential AND" (Ru.dead_branch ~domain:bit_domain (seq 3))

let t_dead_branch_flags () =
  let t =
    T.speak_det ~speaker:0 ~f:(fun _ -> 0) [| T.output 0; T.output 1 |]
  in
  let report = Ru.dead_branch ~domain:bit_domain t in
  check_flags ~msg:"constant emit, arity 2" Ru.id_dead_branch report;
  Alcotest.(check bool) "warning, not error" false (Rep.has_errors report);
  Alcotest.(check int) "one dead child" 1
    (Rep.count_severity Rep.Warning report);
  let coin_tree =
    T.chance ~coin:(D.return 0) [| T.output 0; T.output 1 |]
  in
  check_flags ~msg:"coin never lands on 1" Ru.id_dead_branch
    (Ru.dead_branch ~domain:bit_domain coin_tree)

(* --- (6) bit-accounting ------------------------------------------- *)

let t_bit_accounting_clean () =
  check_silent ~msg:"no declaration" (Ru.bit_accounting (seq 3));
  check_silent ~msg:"correct declaration"
    (Ru.bit_accounting ~declared_cost:3 (seq 3))

let t_bit_accounting_flags () =
  let report = Ru.bit_accounting ~declared_cost:7 (seq 3) in
  check_flags ~msg:"wrong declared CC" Ru.id_bit_accounting report;
  Alcotest.(check bool) "error severity" true (Rep.has_errors report);
  (* The analyzer's independent charge agrees with the library's. *)
  for n = 1 to 40 do
    Alcotest.(check int)
      (Printf.sprintf "ceil_log2 %d" n)
      (Coding.Intcode.fixed_width n) (Ru.ceil_log2 n)
  done

let t_bit_accounting_negative_declared () =
  (* Regression: a negative declaration used to blow up inside the
     analyzer (Invalid_argument from the arity arithmetic); it must be
     an ordinary diagnostic instead. *)
  let report = An.analyze ~players:3 ~declared_cost:(-1) ~domain:bit_domain (seq 3) in
  check_flags ~msg:"negative declared cost" Ru.id_bit_accounting report;
  Alcotest.(check bool) "error severity" true (Rep.has_errors report);
  let mentions_negative =
    List.exists
      (fun d ->
        d.Rep.rule = Ru.id_bit_accounting
        && String.length d.Rep.message >= 8
        && (let lower = String.lowercase_ascii d.Rep.message in
            let rec find i =
              i + 8 <= String.length lower
              && (String.sub lower i 8 = "negative" || find (i + 1))
            in
            find 0))
      (Rep.to_list report)
  in
  Alcotest.(check bool) "diagnostic names the sign error" true
    mentions_negative

(* --- (7) state-space-budget --------------------------------------- *)

let t_state_space_clean () =
  check_silent ~msg:"default budget"
    (Ru.state_space ~players:4 ~domain:bit_domain (seq 4))

let t_state_space_flags () =
  let report =
    Ru.state_space ~budget:10 ~players:4 ~domain:bit_domain (seq 4)
  in
  check_flags ~msg:"16 profiles x 5 leaves > 10" Ru.id_state_space report;
  Alcotest.(check bool) "warning, not error" false (Rep.has_errors report)

(* --- (8) unreachable-output --------------------------------------- *)

let t_unreachable_output_clean () =
  check_silent ~msg:"sequential AND"
    (Ru.unreachable_output ~domain:bit_domain (seq 3));
  (* A value carried by a dead leaf but also by a live one is
     reachable, hence silent — the rule is about values, not leaves
     (dead-branch already covers those). *)
  let dup =
    T.speak_det ~speaker:0 ~f:(fun _ -> 0) [| T.output 0; T.output 0 |]
  in
  check_silent ~msg:"value reachable via another leaf"
    (Ru.unreachable_output ~domain:bit_domain dup)

let t_unreachable_output_flags () =
  let t =
    T.speak_det ~speaker:0 ~f:(fun _ -> 0) [| T.output 0; T.output 7 |]
  in
  let report = Ru.unreachable_output ~domain:bit_domain t in
  check_flags ~msg:"output 7 behind a constant emit"
    Ru.id_unreachable_output report;
  Alcotest.(check bool) "warning, not error" false (Rep.has_errors report);
  Alcotest.(check int) "exactly one finding" 1
    (Rep.count_severity Rep.Warning report);
  (* The analyzer surfaces the same finding through the catalog. *)
  check_flags ~msg:"via Analyzer.analyze" Ru.id_unreachable_output
    (An.analyze ~players:1 ~domain:bit_domain t)

let t_unreachable_output_widened_silent () =
  (* Under widening the leaf set is incomplete, so reachability cannot
     be decided — the rule must stay quiet rather than guess. *)
  check_silent ~msg:"budget 1 widens"
    (Ru.unreachable_output ~budget:1 ~domain:bit_domain (seq 4))

(* --- (9) redundant-slot ------------------------------------------- *)

(* The rule's own positive/negative/widened behavior is exercised in
   [Test_depgraph]; here only the catalog wiring: the analyzer surfaces
   the finding, and a protocol whose every slot matters stays silent. *)
let t_redundant_slot_via_analyzer () =
  let wasted =
    T.speak_det ~speaker:0 ~f:(fun b -> b) [| T.output 7; T.output 7 |]
  in
  check_flags ~msg:"unread constant-output slot" Ru.id_redundant_slot
    (An.analyze ~players:1 ~domain:bit_domain wasted);
  let report = An.analyze ~players:3 ~domain:bit_domain (seq 3) in
  Alcotest.(check bool) "sequential AND has no redundant slot" false
    (has_rule Ru.id_redundant_slot report)

(* --- analyzer-level policy ---------------------------------------- *)

let t_analyze_clean_protocol () =
  let report =
    An.analyze ~players:4 ~declared_cost:4 ~domain:bit_domain (seq 4)
  in
  Alcotest.(check bool) "clean" true (Rep.is_clean report);
  Alcotest.(check int) "exit 0" 0 (Rep.exit_code report)

let t_analyze_malformed_protocol () =
  (* Several violations at once: out-of-arity support, unnormalized
     law, foreign speaker. *)
  let t =
    raw_speak ~speaker:9
      ~emit:(fun _ -> raw_dist [ (5, R.half) ])
      [| T.output 0; T.output 1 |]
  in
  let report = An.analyze ~players:2 ~domain:bit_domain t in
  Alcotest.(check bool) "errors" true (Rep.has_errors report);
  Alcotest.(check int) "exit 1" 1 (Rep.exit_code report);
  List.iter
    (fun rule -> check_flags ~msg:"all three rules fire" rule report)
    [ Ru.id_support_in_arity; Ru.id_dist_normalized; Ru.id_speaker_bounds ]

let t_report_ordering () =
  let d sev rule = Rep.diagnostic ~severity:sev ~rule ~path:Analysis.Path.root "m" in
  let sorted =
    Rep.sorted
      (Rep.of_list [ d Rep.Info "z"; d Rep.Warning "y"; d Rep.Error "x" ])
  in
  Alcotest.(check (list string))
    "worst first"
    [ "x"; "y"; "z" ]
    (List.map (fun di -> di.Rep.rule) sorted);
  Alcotest.(check int) "strict exit" 1
    (Rep.exit_code ~strict:true (Rep.of_list [ d Rep.Warning "w" ]));
  Alcotest.(check int) "lenient exit" 0
    (Rep.exit_code (Rep.of_list [ d Rep.Warning "w" ]))

let t_diagnostic_json () =
  let d =
    Rep.diagnostic ~severity:Rep.Warning ~rule:"dead-branch"
      ~path:(Analysis.Path.child Analysis.Path.root 2)
      "say \"hi\""
  in
  let json = Rep.diagnostic_to_json d in
  let field name =
    match Obs.Jsonw.member name json with
    | Some (Obs.Jsonw.String s) -> s
    | _ -> Alcotest.failf "missing string field %s" name
  in
  Alcotest.(check string) "severity" "warning" (field "severity");
  Alcotest.(check string) "rule" "dead-branch" (field "rule");
  Alcotest.(check string) "path" "root/2" (field "path");
  Alcotest.(check string) "message" "say \"hi\"" (field "message");
  (* The rendered line is valid JSON (escaping included) and the report
     list serializer wraps the same objects. *)
  (match Obs.Jsonw.of_string (Obs.Jsonw.to_string json) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "diagnostic JSON does not re-parse: %s" e);
  match Rep.to_json (Rep.of_list [ d; d ]) with
  | Obs.Jsonw.List [ _; _ ] -> ()
  | j -> Alcotest.failf "report JSON shape: %s" (Obs.Jsonw.to_string j)

(* --- registry sweep ----------------------------------------------- *)

let t_registry_all_clean () =
  let entries = Reg.all () in
  Alcotest.(check bool) "registry is populated" true (List.length entries >= 12);
  List.iter
    (fun (Reg.Entry { players; declared_cost; domain; tree; _ } as e) ->
      let report =
        An.analyze ~players ?declared_cost ~domain (Lazy.force tree)
      in
      if not (Rep.is_clean report) then
        Alcotest.failf "registered protocol %s does not lint clean: %s"
          (Reg.name e) (Rep.to_string report))
    entries

let t_registry_register () =
  let n_before = List.length (Reg.all ()) in
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument "Registry.register: duplicate name and/sequential")
    (fun () ->
      Reg.register
        (Reg.entry ~name:"and/sequential" ~players:2 ~domain:bit_domain
           (lazy (seq 2))));
  Alcotest.(check int) "rejected registration is not kept" n_before
    (List.length (Reg.all ()))

(* The batched DISJ tree model added for the registry really computes
   disjointness: exact output on every input profile. *)
let t_batched_tree_correct () =
  let n = 2 and k = 3 in
  let tree = Protocols.Disj_trees.batched ~n ~k in
  let domain = Sem.all_bit_inputs n in
  let rec profiles i acc =
    if i = k then [ Array.of_list (List.rev acc) ]
    else List.concat_map (fun v -> profiles (i + 1) (v :: acc)) domain
  in
  List.iter
    (fun sets ->
      let expected = Protocols.Hard_dist.disj_fn sets in
      match D.support (Sem.output_dist tree sets) with
      | [ v ] -> Alcotest.(check int) "batched output" expected v
      | _ -> Alcotest.fail "batched tree should be deterministic")
    (profiles 0 [])

let suite =
  [
    quick "dist-normalized: clean" t_dist_normalized_clean;
    quick "dist-normalized: flags" t_dist_normalized_flags;
    quick "support-in-arity: clean" t_support_in_arity_clean;
    quick "support-in-arity: flags" t_support_in_arity_flags;
    quick "speaker-bounds: clean" t_speaker_bounds_clean;
    quick "speaker-bounds: flags" t_speaker_bounds_flags;
    quick "broadcast-consistency: clean" t_broadcast_consistency_clean;
    quick "broadcast-consistency: flags" t_broadcast_consistency_flags;
    quick "dead-branch: clean" t_dead_branch_clean;
    quick "dead-branch: flags" t_dead_branch_flags;
    quick "bit-accounting: clean" t_bit_accounting_clean;
    quick "bit-accounting: flags" t_bit_accounting_flags;
    quick "bit-accounting: negative declaration is a diagnostic"
      t_bit_accounting_negative_declared;
    quick "state-space-budget: clean" t_state_space_clean;
    quick "state-space-budget: flags" t_state_space_flags;
    quick "unreachable-output: clean" t_unreachable_output_clean;
    quick "unreachable-output: flags" t_unreachable_output_flags;
    quick "unreachable-output: silent under widening"
      t_unreachable_output_widened_silent;
    quick "redundant-slot: surfaced by the analyzer catalog"
      t_redundant_slot_via_analyzer;
    quick "analyze: clean protocol" t_analyze_clean_protocol;
    quick "analyze: malformed protocol" t_analyze_malformed_protocol;
    quick "report: ordering and exit policy" t_report_ordering;
    quick "report: diagnostic JSON schema" t_diagnostic_json;
    quick "registry: every shipped protocol lints clean" t_registry_all_clean;
    quick "registry: duplicate registration rejected" t_registry_register;
    quick "registry: batched DISJ tree is correct" t_batched_tree_correct;
  ]
