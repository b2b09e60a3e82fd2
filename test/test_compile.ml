(** Differential tests of the flat VM ({!Proto.Compile}) against the
    tree interpreter: the compiled scalar evaluator must consume the
    rng stream draw-for-draw like the reference walker, the bit-sliced
    batch evaluator must agree lane-for-lane on deterministic trees,
    and the registry run paths must produce byte-identical boards. *)

module T = Proto.Tree
module C = Proto.Compile
module Sem = Proto.Semantics
module D = Prob.Dist_exact
module R = Exact.Rational
open Test_util

let k = 3
let bit_domain = [| 0; 1 |]

(* Reference walker with the exact sampling discipline of
   [Registry.run_on_board]: a fresh sampler per visited node, one draw
   per node, recording (speaker, arity, msg) per message. The compiled
   [exec] must match it event-for-event from the same rng seed. *)
let reference_walk tree ~inputs ~rng =
  let events = ref [] in
  let sample law =
    Prob.Sampler.draw (Prob.Sampler.create (D.to_float_dist law)) rng
  in
  let rec walk = function
    | T.Output { value = v; _ } -> v
    | T.Speak { speaker; emit; children; _ } ->
        let msg = sample (emit inputs.(speaker)) in
        events := (speaker, Array.length children, msg) :: !events;
        walk children.(msg)
    | T.Chance { coin; children; _ } -> walk children.(sample coin)
  in
  let out = walk tree in
  (out, List.rev !events)

let compiled_walk p ~input_indices ~rng =
  let events = ref [] in
  let on_msg ~speaker ~arity ~width:_ ~msg =
    events := (speaker, arity, msg) :: !events
  in
  let sample s = Prob.Sampler.draw s rng in
  let out = C.exec ~on_msg p ~sample ~input_indices in
  (out, List.rev !events)

let prop_scalar_differential =
  qtest "compiled exec == reference walker, draw for draw" ~count:150
    QCheck.small_nat (fun seed ->
      Test_random_trees.with_random_tree seed (fun tree ->
          let p = C.compile ~players:k ~domain:bit_domain tree in
          List.for_all
            (fun x ->
              let input_indices = x in
              let inputs = input_indices in
              List.for_all
                (fun run_seed ->
                  let r1 = Prob.Rng.of_int_seed run_seed in
                  let r2 = Prob.Rng.of_int_seed run_seed in
                  reference_walk tree ~inputs ~rng:r1
                  = compiled_walk p ~input_indices ~rng:r2)
                [ 1; 42; 9000 + seed ])
            (Sem.all_bit_inputs k)))

(* Deterministic random trees: point-mass emissions, no chance nodes. *)
let random_det_tree ~rng ~k ~depth =
  let rec go depth =
    if depth = 0 || Prob.Rng.int rng 4 = 0 then T.output (Prob.Rng.int rng 2)
    else begin
      let arity = 2 + Prob.Rng.int rng 2 in
      let children = Array.init arity (fun _ -> go (depth - 1)) in
      let speaker = Prob.Rng.int rng k in
      let m0 = Prob.Rng.int rng arity and m1 = Prob.Rng.int rng arity in
      T.speak_det ~speaker ~f:(fun b -> if b = 0 then m0 else m1) children
    end
  in
  go depth

let dummy_sample _ = Alcotest.fail "deterministic exec must still sample"

let det_exec p ~input_indices =
  (* Deterministic programs still draw once per node (to keep the rng
     stream aligned with the randomized path), so give exec a real
     rng here rather than [dummy_sample]. *)
  ignore dummy_sample;
  let rng = Prob.Rng.of_int_seed 7 in
  C.exec p ~sample:(fun s -> Prob.Sampler.draw s rng) ~input_indices

let prop_batch_lanes =
  qtest "exec_batch lanes == scalar exec, transcripts and bits too"
    ~count:150 QCheck.small_nat (fun seed ->
      let rng = Prob.Rng.of_int_seed seed in
      let tree = random_det_tree ~rng ~k ~depth:(2 + Prob.Rng.int rng 3) in
      let p = C.compile ~players:k ~domain:bit_domain tree in
      if not (C.deterministic p) then false
      else begin
        let profiles = Array.of_list (Sem.all_bit_inputs k) in
        let b = C.exec_batch p ~input_indices:profiles in
        let outs = C.outputs b in
        Array.length outs = Array.length profiles
        && Array.for_all Fun.id
             (Array.mapi
                (fun lane prof ->
                  let scalar = det_exec p ~input_indices:prof in
                  let tr = C.lane_transcript p b lane in
                  scalar = outs.(lane)
                  && T.output_of tree tr = outs.(lane)
                  && T.transcript_bits tree tr = C.lane_bits p b lane)
                profiles)
      end)

let prop_sweep_matches_batch =
  qtest "exec_sweep == lane-by-lane outputs, any length" ~count:80
    QCheck.small_nat (fun seed ->
      let rng = Prob.Rng.of_int_seed seed in
      let tree = random_det_tree ~rng ~k ~depth:3 in
      let p = C.compile ~players:k ~domain:bit_domain tree in
      (* 100 profiles forces two chunks through the 62-lane slicer *)
      let profiles =
        Array.init 100 (fun _ ->
            Array.init k (fun _ -> Prob.Rng.int rng 2))
      in
      let swept = C.exec_sweep p ~input_indices:profiles in
      swept
      = Array.map (fun prof -> det_exec p ~input_indices:prof) profiles)

(* Registry differential: tree and compiled engines must produce
   byte-identical boards on every entry, every seed. *)
let registry_boards_identical () =
  List.iter
    (fun entry ->
      let name = Protocols.Registry.name entry in
      List.iter
        (fun seed ->
          let r1 = Protocols.Registry.run_on_board entry ~seed in
          let r2 = Protocols.Registry.run_on_board_compiled entry ~seed in
          if not (Blackboard.Board.equal r1.board r2.board) then
            Alcotest.failf "%s seed %d: boards differ" name seed;
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d output" name seed)
            r1.output r2.output;
          Alcotest.(check (array int))
            (Printf.sprintf "%s seed %d inputs" name seed)
            r1.input_indices r2.input_indices;
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d rounds" name seed)
            r1.msg_rounds r2.msg_rounds)
        [ 0; 1; 2; 3; 4 ])
    (Protocols.Registry.all ())

let registry_sweep_matches_spec () =
  List.iter
    (fun entry ->
      let p = Protocols.Registry.compiled entry in
      if C.deterministic p && Protocols.Registry.has_spec entry then begin
        let name = Protocols.Registry.name entry in
        let players = Protocols.Registry.players entry in
        let dsize = C.domain_size p in
        (* all input profiles, mixed-radix enumeration *)
        let total =
          int_of_float (float_of_int dsize ** float_of_int players)
        in
        let profiles =
          Array.init total (fun i ->
              let v = ref i in
              Array.init players (fun _ ->
                  let d = !v mod dsize in
                  v := !v / dsize;
                  d))
        in
        let swept = C.exec_sweep p ~input_indices:profiles in
        Array.iteri
          (fun i prof ->
            match
              Protocols.Registry.spec_output entry ~input_indices:prof
            with
            | Some expect ->
                if swept.(i) <> expect then
                  Alcotest.failf "%s: sweep disagrees with spec at %d" name i
            | None -> ())
          profiles
      end)
    (Protocols.Registry.all ())

(* Pinned bytecode golden: the flat program for and/sequential at
   k = 5. Catches accidental changes to node numbering, law interning
   or the disassembly format. *)
let golden_and_sequential () =
  match Protocols.Registry.find "and/sequential" with
  | None -> Alcotest.fail "and/sequential not registered"
  | Some entry ->
      let p = Protocols.Registry.compiled entry in
      let expected =
        "players=5 domain=2 nodes=11 root=n10 det=true\n\
         n10: speak p0 w1 [0->L0 1->L1] kids[n0 n9]\n\
         n9: speak p1 w1 [0->L0 1->L1] kids[n1 n8]\n\
         n8: speak p2 w1 [0->L0 1->L1] kids[n2 n7]\n\
         n7: speak p3 w1 [0->L0 1->L1] kids[n3 n6]\n\
         n6: speak p4 w1 [0->L0 1->L1] kids[n4 n5]\n\
         n5: out 1\n\
         n4: out 0\n\
         n3: out 0\n\
         n2: out 0\n\
         n1: out 0\n\
         n0: out 0\n\
         L0: {0:1}\n\
         L1: {1:1}\n"
      in
      Alcotest.(check string) "pinned disassembly" expected (C.disassemble p)

let batch_rejects_randomized () =
  match Protocols.Registry.find "and/noisy" with
  | None -> Alcotest.fail "and/noisy not registered"
  | Some entry ->
      let p = Protocols.Registry.compiled entry in
      Alcotest.(check bool) "noisy not deterministic" false
        (C.deterministic p);
      Alcotest.check_raises "exec_batch rejects"
        (Invalid_argument "Compile.exec_batch: deterministic programs only")
        (fun () ->
          ignore (C.exec_batch p ~input_indices:[| [| 0; 0; 0; 0 |] |]))

(* Random DAGs with sharing: a child is often a subtree or an [Output]
   leaf already placed elsewhere in the tree. Compile must keep exactly
   one program node per physically distinct tree node. *)
let random_dag ~rng ~k ~depth =
  let int n = Prob.Rng.int rng n in
  let leaves = Array.init (1 + int 3) (fun v -> T.output v) in
  let built = ref [||] in
  let rec go depth =
    if depth = 0 || int 5 = 0 then
      if int 2 = 0 then leaves.(int (Array.length leaves))
      else T.output (int 2)
    else if Array.length !built > 0 && int 3 = 0 then
      !built.(int (Array.length !built))
    else begin
      let arity = 2 + int 2 in
      let children = Array.init arity (fun _ -> go (depth - 1)) in
      let node =
        if int 4 = 0 then
          T.chance ~coin:(D.uniform (List.init arity Fun.id)) children
        else
          let speaker = int k and m0 = int arity and m1 = int arity in
          T.speak_det ~speaker ~f:(fun b -> if b = 0 then m0 else m1) children
      in
      built := Array.append !built [| node |];
      node
    end
  in
  go depth

(* Oracle: physically distinct nodes reachable from the root, found by
   a walk that remembers every visited node in a [==]-list. *)
let distinct_nodes tree =
  let seen = ref [] in
  let rec visit node =
    if not (List.exists (fun n -> n == node) !seen) then begin
      seen := node :: !seen;
      match node with
      | T.Output _ -> ()
      | T.Speak { children; _ } | T.Chance { children; _ } ->
          Array.iter visit children
    end
  in
  visit tree;
  List.length !seen

let prop_node_count_keeps_sharing =
  qtest "node_count = physically distinct nodes on shared DAGs" ~count:200
    QCheck.small_nat (fun seed ->
      let rng = Prob.Rng.of_int_seed seed in
      let tree = random_dag ~rng ~k ~depth:(2 + Prob.Rng.int rng 5) in
      let p = C.compile ~players:k ~domain:bit_domain tree in
      C.node_count p = distinct_nodes tree)

(* Pinned program sizes of the large exact trees the benchmark compiles.
   Neither shares a subtree: disj/bcast at n = 2 is the full 4-ary tree
   of k two-bit announcements, (4^(k+1) - 1) / 3 nodes, and and/bcast at
   k = 12 the full binary tree, 2^13 - 1 nodes. *)
let pinned_node_counts () =
  let vec2 = Array.of_list (Sem.all_bit_inputs 2) in
  List.iter
    (fun (k, expected) ->
      let tree = Protocols.Disj_trees.broadcast_all ~n:2 ~k in
      Alcotest.(check int)
        (Printf.sprintf "disj/bcast n=2 k=%d" k)
        expected
        (C.node_count (C.compile ~players:k ~domain:vec2 tree)))
    [ (7, 21_845); (8, 87_381) ];
  Alcotest.(check int) "and/bcast k=12" 8_191
    (C.node_count
       (C.compile ~players:12 ~domain:bit_domain
          (Protocols.And_protocols.broadcast_all 12)))

(* [Registry.entry] does not make names unique ([register] does), so two
   entries may share one: each must still run its own tree. *)
let registry_same_name_entries () =
  let make tree =
    Protocols.Registry.entry ~name:"test/same-name" ~players:2
      ~domain:bit_domain (lazy tree)
  in
  let writes s =
    T.speak_det ~speaker:0 ~f:(fun _ -> s) [| T.output 0; T.output 1 |]
  in
  let ones = make (writes 1) and zeros = make (writes 0) in
  List.iter
    (fun (entry, expected) ->
      let r = Protocols.Registry.run_on_board_compiled entry ~seed:0 in
      Alcotest.(check int) "own program's output" expected r.output;
      Alcotest.(check int) "own program's output, tree walker" expected
        (Protocols.Registry.run_on_board entry ~seed:0).output)
    [ (ones, 1); (zeros, 0); (ones, 1) ]

let suite =
  [
    prop_scalar_differential;
    prop_batch_lanes;
    prop_sweep_matches_batch;
    quick "registry: compiled boards byte-identical" registry_boards_identical;
    quick "registry: batched sweep matches specs" registry_sweep_matches_spec;
    quick "golden: and/sequential bytecode pinned" golden_and_sequential;
    quick "exec_batch rejects randomized programs" batch_rejects_randomized;
    prop_node_count_keeps_sharing;
    quick "pinned node counts: disj/bcast k=7,8, and/bcast k=12"
      pinned_node_counts;
    quick "registry: same-named entries keep their own programs"
      registry_same_name_entries;
  ]
