(* registry-async: the CI and tooling path over the protocol registry.

   Three operation classes, over the 12 built-in entries plus larger
   entries built at set-up (disj/seq at n = 2, disj/bcast at n = 2,
   and/bcast, disj/batched at n = 3):

   - [certify]: on one entry, [broadcast_cli lint], then [verify --ic
     --sched] with the discrepancy lower-bound engine, then [analyze
     --deps];
   - [faults]: a fault campaign — one entry, one fault plan (none,
     crash, drop plus delay, or equivocation) and R network seeds, run
     on the asynchronous board emulation, sequentially or pipelined
     under the slot-dependency certificate, each run checked against
     the sync engine as [run --check] does;
   - [compiled]: [run --engine compiled --check] over R seeds.

   This is the workload where the analyzers, the lower-bound engine,
   netsim, the blackboard engine and the protocol compiler do the
   work. *)

module R = Exact.Rational
module D = Prob.Dist_exact
module Reg = Protocols.Registry
module V = Protocols.Verify_registry
module Emu = Netsim.Board_emu
module Engine = Blackboard.Engine
module Board = Blackboard.Board
module Dg = Analysis.Depgraph
module Rep = Analysis.Report
module C = Analysis.Certify

let analyzer = Span.id "analysis.analyzer.analyze"
let verify = Span.id "protocols.verify_registry.verify_entry"
let disc = Span.id "lowerbound.discrepancy.engine"
let depgraph = Span.id "analysis.depgraph.analyze"
let hosted = Span.id "protocols.registry.hosted"
let emu_run = Span.id "netsim.board_emu.run"
let engine_run = Span.id "blackboard.engine.run_result"
let schedule = Span.id "protocols.registry.schedule"
let player = Span.id "protocols.registry.player"
let run_compiled = Span.id "protocols.registry.run_compiled"
let run_tree = Span.id "protocols.registry.run_tree"
let compile = Span.id "proto.compile.compile"

let spans =
  List.map Span.name
    [ analyzer; verify; disc; depgraph; hosted; emu_run; engine_run;
      schedule; player; run_compiled; run_tree; compile ]

(* ------------------------------------------------------------------ *)
(* Entries                                                             *)
(* ------------------------------------------------------------------ *)

let vector_domain n = Array.of_list (Proto.Semantics.all_bit_inputs n)

(* The larger entries, by key ([smoke] selects the test sizes). Every
   set-up gives them fresh names (the key under the set-up's tag):
   [Registry.compiled] caches by name, so a reused name would silently
   return another tree's program. *)
let big_specs ~smoke =
  let disj key players n tree =
    (key, fun name ->
        Reg.entry ~name ~players ~spec:Protocols.Hard_dist.disj_fn
          ~symmetry:Proto.Symmetry.Full ~domain:(vector_domain n) (lazy (tree ())))
  in
  let and_bcast key k =
    (key, fun name ->
        Reg.entry ~name ~players:k ~declared_cost:k
          ~spec:Protocols.Hard_dist.and_fn ~symmetry:Proto.Symmetry.Full
          ~domain:[| 0; 1 |]
          (lazy (Protocols.And_protocols.broadcast_all k)))
  in
  let module T = Protocols.Disj_trees in
  if smoke then
    [ disj "disj-seq-n2-k4" 4 2 (fun () -> T.sequential ~n:2 ~k:4);
      disj "disj-bcast-n2-k4" 4 2 (fun () -> T.broadcast_all ~n:2 ~k:4);
      and_bcast "and-bcast-k5" 5 ]
  else
    [ disj "disj-seq-n2-k7" 7 2 (fun () -> T.sequential ~n:2 ~k:7);
      disj "disj-seq-n2-k9" 9 2 (fun () -> T.sequential ~n:2 ~k:9);
      disj "disj-bcast-n2-k5" 5 2 (fun () -> T.broadcast_all ~n:2 ~k:5);
      disj "disj-bcast-n2-k6" 6 2 (fun () -> T.broadcast_all ~n:2 ~k:6);
      disj "disj-bcast-n2-k7" 7 2 (fun () -> T.broadcast_all ~n:2 ~k:7);
      disj "disj-batched-n3-k5" 5 3 (fun () -> T.batched ~n:3 ~k:5);
      and_bcast "and-bcast-k10" 10;
      and_bcast "and-bcast-k12" 12 ]

(* An entry plus the tag-free key its oracle results are cached by. *)
type target = { key : string; entry : Reg.entry }

type state = {
  smoke : bool;
  builtins : target array;
  big : (string * target) list;
}

let setup ~smoke ~tag =
  let builtins =
    Array.of_list
      (List.map (fun e -> { key = Reg.name e; entry = e }) (Reg.all ()))
  in
  let big =
    List.map
      (fun (key, make) ->
        (key, { key; entry = make (Printf.sprintf "icbench/%s/%s" tag key) }))
      (big_specs ~smoke)
  in
  let all = Array.to_list builtins @ List.map snd big in
  List.iter (fun { entry = Reg.Entry e; _ } -> ignore (Lazy.force e.tree)) all;
  List.iter
    (fun { entry; _ } -> ignore (Span.wrap compile (fun () -> Reg.compiled entry)))
    all;
  { smoke; builtins; big }

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

(* Exact IC under the uniform product law, by the direct semantics;
   cached per key (outside every timer). It runs in a child process, so
   its product law (4^9 atoms for disj/seq at k = 9) stays out of this
   process's peak_rss_mb. *)
let exact_ic_cache : (string, float) Hashtbl.t = Hashtbl.create 16

let exact_ic { key; entry = Reg.Entry e } =
  match Hashtbl.find_opt exact_ic_cache key with
  | Some v -> v
  | None ->
      let v =
        Child.run (fun () ->
            let unif = D.uniform (Array.to_list e.domain) in
            let mu = D.product_array (Array.make e.players unif) in
            Proto.Information.external_ic (Lazy.force e.tree) mu)
      in
      Hashtbl.add exact_ic_cache key v;
      v

let same_write (a : Board.write) (b : Board.write) =
  a.player = b.player && a.label = b.label && Coding.Bitvec.equal a.vec b.vec

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> same_write x y && is_prefix xs ys
  | _ :: _, [] -> false

(* ------------------------------------------------------------------ *)
(* certify                                                             *)
(* ------------------------------------------------------------------ *)

let ic_engine ~zero_error_spec flow =
  Span.wrap disc (fun () -> Lowerbound.Discrepancy.engine ~zero_error_spec flow)

let certify ({ entry = Reg.Entry e as entry; _ } as t) ~seed () =
  let tree = Lazy.force e.tree in
  let lint =
    Span.wrap analyzer (fun () ->
        Analysis.Analyzer.analyze ~players:e.players
          ?declared_cost:e.declared_cost ~domain:e.domain tree)
  in
  let r =
    Span.wrap verify (fun () ->
        V.verify_entry ~seed ~ic:true ~sched:true ~ic_engine entry)
  in
  let dg =
    Span.wrap depgraph (fun () ->
        Dg.analyze ~players:e.players ~domain:e.domain tree)
  in
  let table = Format.asprintf "%a" Dg.pp dg in
  fun () ->
    Oracle.int_eq "lint errors" ~want:0
      ~got:(Rep.count_severity Rep.Error lint);
    Oracle.holds "verify exit code is not 1" (V.exit_code [ r ] <> 1);
    (match r.V.ic with
    | Some (C.Ic_certified c) ->
        let ic = exact_ic t in
        let b = c.C.ic_external in
        Oracle.le "IC lower bound <= exact IC" (R.to_float b.lo) ic;
        Oracle.le "exact IC <= IC upper bound" ic (R.to_float b.hi)
    | Some (C.Ic_inconclusive { inconsistent; _ }) ->
        Oracle.holds "IC lower bound crossed the upper bound"
          (not inconsistent)
    | None -> Oracle.fail "verify --ic returned no IC outcome");
    (match r.V.sched with
    | Some s ->
        Oracle.holds "pipelined run diverged from the sync engine"
          (s.V.pipelined_identical <> Some false);
        Oracle.holds "happens-before race" (s.V.race = None);
        Oracle.int_eq "analyze --deps slots = verify --sched slots"
          ~got:dg.Dg.slots ~want:s.V.depgraph.Dg.slots
    | None -> Oracle.fail "verify --sched returned no schedule result");
    Oracle.holds "analyze --deps table" (String.length table > 0);
    []

(* ------------------------------------------------------------------ *)
(* Fault campaigns                                                     *)
(* ------------------------------------------------------------------ *)

(* A fault plan, fixed per slot except for the player it names, which
   the seed draws: none, crash after [S] sends, drop probability plus
   delay jitter, or equivocation. *)
type plan_kind =
  | No_fault
  | Crash of int
  | Drop_delay of string * int
  | Equiv

(* The traced run hands instrumented callbacks to the runtimes: every
   schedule call and every speak/observe is a span, and schedule calls
   are counted. The untraced run hands the callbacks over unchanged. *)
let schedule_calls = ref 0

let instrument (h : Reg.hosted) =
  if not !Span.enabled then (h.schedule, h.players)
  else
    ( (fun b ->
        incr schedule_calls;
        Span.wrap schedule (fun () -> h.schedule b)),
      Array.map
        (fun (p : Engine.player) ->
          {
            Engine.speak = (fun b -> Span.wrap player (fun () -> p.speak b));
            observe = (fun b -> Span.wrap player (fun () -> p.observe b));
          })
        h.players )

let campaign { entry = Reg.Entry e as entry; _ } ~kind ~plan ~pipelined
    ~seeds () =
  let f = if e.players > 3 then 1 else 0 (* Bracha needs k > 3f *) in
  let calls0 = !schedule_calls in
  let cert =
    if not pipelined then None
    else
      V.sched_cert
        (Span.wrap depgraph (fun () ->
             Dg.analyze ~players:e.players ~domain:e.domain
               (Lazy.force e.tree)))
  in
  let runs =
    List.map
      (fun (seed, net_seed) ->
        let h = Span.wrap hosted (fun () -> Reg.hosted entry ~seed) in
        let sched, players = instrument h in
        let out =
          Span.wrap emu_run (fun () ->
              Emu.run ~k:h.k ~schedule:sched ~players ?cert
                ~config:{ Emu.f; seed = net_seed; faults = plan } ())
        in
        let h = Span.wrap hosted (fun () -> Reg.hosted entry ~seed) in
        let sched, players = instrument h in
        let sync =
          Span.wrap engine_run (fun () ->
              Engine.run_result ~k:h.k ~schedule:sched ~players ())
        in
        (out, sync))
      seeds
  in
  let calls = !schedule_calls - calls0 in
  fun () ->
    let equivocator = Netsim.Fault.equivocators plan ~k:e.players in
    (* Delivered writes before the equivocator's first slot: after it,
       honest players may agree on the corrupted payload. *)
    let rec honest = function
      | (w : Board.write) :: ws when not equivocator.(w.player) -> w :: honest ws
      | _ -> []
    in
    List.iter
      (fun (out, sync) ->
        let sync =
          match sync with
          | Ok o -> o.Engine.board
          | Error err -> Oracle.fail "sync engine: %s" (Engine.error_message err)
        in
        match out with
        | Error err -> Oracle.fail "async run: %s" (Emu.error_message err)
        | Ok (Emu.Stalled _) when kind = No_fault ->
            Oracle.fail "fault-free run stalled"
        | Ok (Emu.Delivered { board; _ }) when kind <> Equiv ->
            Oracle.bool_eq "async board = sync board" ~want:true
              ~got:(Board.equal board sync)
        | Ok (Emu.Delivered { board; _ } | Emu.Stalled { board; _ }) ->
            Oracle.bool_eq "delivered prefix = sync prefix" ~want:true
              ~got:(is_prefix (honest (Board.writes board)) (Board.writes sync)))
      runs;
    let sum f = List.fold_left (fun a (o, _) -> a + f o) 0 runs in
    let stat f =
      sum (function
        | Ok (Emu.Delivered { stats; _ } | Emu.Stalled { stats; _ }) -> f stats
        | Error _ -> 0)
    in
    [ ("messages", float (stat (fun s -> s.Emu.net_messages)));
      ("bits", float (stat (fun s -> s.Emu.net_bits)));
      ("drops", float (stat (fun s -> s.Emu.drops)));
      ("waves", float (stat (fun s -> s.Emu.waves)));
      ("delivered", float (sum (function Ok (Emu.Delivered _) -> 1 | _ -> 0)));
      ("runs", float (List.length runs));
      ("schedule_calls", float calls) ]

(* ------------------------------------------------------------------ *)
(* Compiled-run campaigns                                              *)
(* ------------------------------------------------------------------ *)

let compiled { entry; _ } ~seeds () =
  let runs =
    List.map
      (fun seed ->
        let c =
          Span.wrap run_compiled (fun () -> Reg.run_on_board_compiled entry ~seed)
        in
        let t = Span.wrap run_tree (fun () -> Reg.run_on_board entry ~seed) in
        (c, t))
      seeds
  in
  fun () ->
    List.iter
      (fun ((c : Reg.run), (t : Reg.run)) ->
        Oracle.bool_eq "compiled board = tree-walk board" ~want:true
          ~got:(Board.equal c.board t.board);
        Oracle.int_eq "compiled output = tree-walk output" ~got:c.output
          ~want:t.output;
        match Reg.spec_output entry ~input_indices:c.input_indices with
        | Some v -> Oracle.int_eq "spec output" ~got:c.output ~want:v
        | None -> ())
      runs;
    [ ("msg_rounds",
       float (List.fold_left (fun a ((c : Reg.run), _) -> a + c.msg_rounds) 0 runs)) ]

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

(* [Builtin i] is built-in entry (i + 3 r) mod 12 in round r, so the
   built-ins rotate through the rounds; [Big key] is a larger entry. *)
type which = Builtin of int | Big of string

type slot =
  | Certify of which
  | Faults of which * plan_kind * bool * int  (* pipelined, seeds *)
  | Compiled of which * int  (* seeds *)

(* One round of 24 slots. The p50 rank falls inside the four no-fault
   campaigns on and/bcast k = 12 (ranks 11-14, below them ten cheaper
   operations), the p90 rank inside the certification of and/bcast
   k = 10 (rank 22 of the four heaviest: certify disj/bcast k = 6,
   and/bcast k = 10 and 12, and the equivocation campaign). *)
let round_slots =
  let certify key = Certify (Big key) in
  [ Certify (Builtin 0); Certify (Builtin 1);
    certify "disj-seq-n2-k7"; certify "disj-batched-n3-k5";
    Faults (Builtin 0, No_fault, false, 64);
    Faults (Builtin 1, Crash 6, true, 64);
    Compiled (Big "disj-bcast-n2-k7", 1024);
    Compiled (Big "and-bcast-k12", 1024);
    Compiled (Big "disj-seq-n2-k9", 1024);
    Compiled (Big "disj-bcast-n2-k5", 1024);
    Faults (Big "and-bcast-k12", No_fault, false, 16);
    Faults (Big "and-bcast-k12", No_fault, false, 16);
    Faults (Big "and-bcast-k12", No_fault, false, 16);
    Faults (Big "and-bcast-k12", No_fault, false, 16);
    certify "disj-bcast-n2-k5"; certify "disj-seq-n2-k9";
    Faults (Big "disj-bcast-n2-k6", Crash 12, false, 512);
    Faults (Big "disj-bcast-n2-k6", Crash 12, false, 512);
    Faults (Big "disj-seq-n2-k9", Drop_delay ("0.05", 8), false, 256);
    Faults (Big "and-bcast-k10", No_fault, true, 32);
    certify "disj-bcast-n2-k6"; certify "and-bcast-k12";
    certify "and-bcast-k10";
    Faults (Big "and-bcast-k10", Equiv, true, 256) ]

let smoke_slots =
  [ Certify (Builtin 0); Certify (Big "disj-bcast-n2-k4");
    Faults (Big "and-bcast-k5", No_fault, false, 4);
    Faults (Big "disj-seq-n2-k4", Crash 8, false, 4);
    Faults (Big "and-bcast-k5", Equiv, true, 4);
    Faults (Builtin 1, Drop_delay ("0.05", 8), false, 4);
    Compiled (Big "disj-bcast-n2-k4", 16);
    Compiled (Builtin 0, 16) ]

let class_of = function
  | Certify _ -> "certify"
  | Faults _ -> "faults"
  | Compiled _ -> "compiled"

let draw_plan rng kind ~k =
  let spec =
    match kind with
    | No_fault -> ""
    | Crash step -> Printf.sprintf "crash:%d@%d" (Prob.Rng.int rng k) step
    | Drop_delay (drop, delay) -> Printf.sprintf "drop:%s,delay:%d" drop delay
    | Equiv -> Printf.sprintf "equiv:%d" (Prob.Rng.int rng k)
  in
  match Netsim.Fault.parse spec with
  | Ok plan -> plan
  | Error m -> invalid_arg ("registry-async: bad fault plan: " ^ m)

let round st rng r =
  let target = function
    | Builtin i ->
        let n = Array.length st.builtins in
        st.builtins.((i + (3 * r)) mod n)
    | Big key -> List.assoc key st.big
  in
  let draw_seed () = Prob.Rng.int rng 1_000_000_000 in
  Op.shuffled rng (if st.smoke then smoke_slots else round_slots) ~cls:class_of ~prepare:(fun slot ->
      match slot with
      | Certify w -> certify (target w) ~seed:(draw_seed ())
      | Faults (w, kind, pipelined, n) ->
          let t = target w in
          let plan = draw_plan rng kind ~k:(Reg.players t.entry) in
          let seeds =
            List.init n (fun _ ->
                let s = draw_seed () in
                (s, draw_seed ()))
          in
          campaign t ~kind ~plan ~pipelined ~seeds
      | Compiled (w, n) ->
          compiled (target w) ~seeds:(List.init n (fun _ -> draw_seed ())))

let workload =
  let c metric cls src = Op.count metric [ cls ] src in
  Op.W
    {
      name = "registry-async";
      setup;
      round;
      setup_reps = 3;
      spans;
      counts =
        [ c "analysis.absint.runs" "certify" (Metric "absint.runs");
          c "analysis.absint.nodes" "certify" (Metric "absint.nodes");
          c "analysis.absint.widenings" "certify" (Metric "absint.widenings");
          c "analysis.infoflow.runs" "certify" (Metric "infoflow.runs");
          c "analysis.infoflow.nodes" "certify" (Metric "infoflow.nodes");
          c "analysis.depgraph.runs" "certify" (Metric "depgraph.runs");
          c "analysis.depgraph.nodes" "certify" (Metric "depgraph.nodes");
          c "netsim.messages" "faults" (Reported "messages");
          c "netsim.bits" "faults" (Reported "bits");
          c "netsim.drops" "faults" (Reported "drops");
          c "netsim.waves" "faults" (Reported "waves");
          Op.count "netsim.delivered_ratio" [ "faults" ] (Reported "delivered")
            ~den:(Reported "runs");
          c "blackboard.engine.writes" "faults" (Metric "engine.writes");
          c "protocols.registry.schedule_calls" "faults"
            (Reported "schedule_calls");
          c "protocols.registry.msg_rounds" "compiled" (Reported "msg_rounds") ];
    }
