(** Golden outputs for the two round-by-round loops whose internals
    are easy to perturb without any other test noticing:

    - the asynchronous board emulation with no pipelining certificate,
      under every fault kind (crash, drop+delay, equivocation), where a
      change to the per-wave network seed split, the crash-budget
      accounting or the commit order moves the stall point, the
      message counts or the board;
    - the literal and factored Theorem-3 compression runs, where a
      change to the order in which the shared public stream is split
      (chance coins, one split per transmission) moves every bit count;
    - the three static analyzers ({!Analysis.Absint},
      {!Analysis.Depgraph}, {!Analysis.Infoflow}) at budgets on both
      sides of every widening cut, where a change to the node count,
      the law-failure accounting or the per-input law split moves a
      count, a rectangle, a read-set or an information bracket.

    Each case renders to one line; the expected lines are the values
    these loops produced when the lines were recorded. *)

module Emu = Netsim.Board_emu
module Fault = Netsim.Fault
module Reg = Protocols.Registry
module B = Blackboard.Board
module Am = Compress.Amortized
module Ab = Analysis.Absint
module Dg = Analysis.Depgraph
module Flow = Analysis.Infoflow
module T = Proto.Tree
module D = Prob.Dist_exact
module R = Exact.Rational
module MD = Prob.Dist_core.Make (Prob.Weight.Exact)
open Test_util

(* ------------------------------------------------------------------ *)
(* Board_emu without a certificate                                     *)
(* ------------------------------------------------------------------ *)

let f_for_entry e = if Reg.players e > 3 then 1 else 0

let render_stats (s : Emu.stats) =
  Printf.sprintf
    "net_bits=%d msgs=%d sends=%d echoes=%d readies=%d drops=%d crashed=%d \
     waves=%d"
    s.Emu.net_bits s.net_messages s.sends s.echoes s.readies s.drops s.crashed
    s.waves

let render_board b =
  Printf.sprintf "bits=%d [%s]" (B.total_bits b)
    (String.concat ";"
       (List.map
          (fun w ->
            Printf.sprintf "%d:%s" w.B.player (Coding.Bitvec.to_string w.B.vec))
          (B.writes b)))

let render_emu ~pipelined (Reg.Entry r as e) plan net_seed =
  let faults =
    match Fault.parse plan with Ok p -> p | Error m -> failwith m
  in
  let cert =
    if not pipelined then None
    else
      Protocols.Verify_registry.sched_cert
        (Analysis.Depgraph.analyze ~players:r.players ~domain:r.domain
           (Lazy.force r.tree))
  in
  let h = Reg.hosted e ~seed:8 in
  let outcome =
    match
      Emu.run ~k:h.Reg.k ~schedule:h.Reg.schedule ~players:h.Reg.players ?cert
        ~config:{ Emu.f = f_for_entry e; seed = net_seed; faults }
        ()
    with
    | Ok (Emu.Delivered { board; writes; stats }) ->
        Printf.sprintf "delivered writes=%d %s %s" writes (render_board board)
          (render_stats stats)
    | Ok (Emu.Stalled { board; delivered_slots; speaker; reason; stats }) ->
        Printf.sprintf "stalled slots=%d speaker=%d reason=%s %s %s"
          delivered_slots speaker
          (match reason with
          | Emu.Speaker_crashed -> "crashed"
          | Emu.No_quorum -> "no-quorum")
          (render_board board) (render_stats stats)
    | Error err -> "error " ^ Emu.error_message err
  in
  Printf.sprintf "%s%s %s net=%d: %s" (Reg.name e)
    (if pipelined then " pipelined" else "")
    (if plan = "" then "none" else plan)
    net_seed outcome

(* Every fault kind on four entries, three network seeds each, without
   a certificate; then the same plans once more under each entry's
   certificate. Last, and/bcast at k = 7 in one pipelined wave of seven
   slots, where an equivocating speaker puts two values in flight in a
   phase of its slot and a crash cuts a fan-out short: the cases that
   reach a wave's second value per (slot, phase) and its shared wires. *)
let emu_cases =
  let entries =
    List.map
      (fun name -> Option.get (Reg.find name))
      [ "and/sequential"; "and/broadcast-all"; "and/truncated";
        "disj/trivial-tree" ]
  and plans = [ ""; "crash:2@9"; "drop:0.05,delay:8"; "equiv:0" ] in
  let grid ~pipelined entries plans nets =
    List.concat_map
      (fun e ->
        List.concat_map
          (fun plan -> List.map (fun net -> (pipelined, e, plan, net)) nets)
          plans)
      entries
  in
  let bcast7 =
    Reg.entry ~name:"and/bcast-7" ~players:7 ~domain:[| 0; 1 |]
      (lazy (Protocols.And_protocols.broadcast_all 7))
  in
  grid ~pipelined:false entries plans [ 1; 17; 4242 ]
  @ grid ~pipelined:true entries plans [ 17 ]
  @ grid ~pipelined:true [ bcast7 ]
      [ "equiv:1"; "crash:2@9"; "drop:0.05,delay:8"; "equiv:1,crash:2@9" ]
      [ 1; 17 ]

let emu_expected =
  [
    "and/sequential none net=1: delivered writes=5 bits=5 [0:1;1:1;2:1;3:1;4:1] net_bits=2068 msgs=220 sends=20 echoes=100 readies=100 drops=0 crashed=0 waves=5";
    "and/sequential none net=17: delivered writes=5 bits=5 [0:1;1:1;2:1;3:1;4:1] net_bits=2068 msgs=220 sends=20 echoes=100 readies=100 drops=0 crashed=0 waves=5";
    "and/sequential none net=4242: delivered writes=5 bits=5 [0:1;1:1;2:1;3:1;4:1] net_bits=2068 msgs=220 sends=20 echoes=100 readies=100 drops=0 crashed=0 waves=5";
    "and/sequential crash:2@9 net=1: stalled slots=2 speaker=2 reason=crashed bits=2 [0:1;1:1] net_bits=641 msgs=81 sends=8 echoes=37 readies=36 drops=0 crashed=1 waves=2";
    "and/sequential crash:2@9 net=17: stalled slots=2 speaker=2 reason=crashed bits=2 [0:1;1:1] net_bits=641 msgs=81 sends=8 echoes=37 readies=36 drops=0 crashed=1 waves=2";
    "and/sequential crash:2@9 net=4242: stalled slots=2 speaker=2 reason=crashed bits=2 [0:1;1:1] net_bits=641 msgs=81 sends=8 echoes=37 readies=36 drops=0 crashed=1 waves=2";
    "and/sequential drop:0.05,delay:8 net=1: delivered writes=5 bits=5 [0:1;1:1;2:1;3:1;4:1] net_bits=1892 msgs=202 sends=18 echoes=87 readies=97 drops=10 crashed=0 waves=5";
    "and/sequential drop:0.05,delay:8 net=17: delivered writes=5 bits=5 [0:1;1:1;2:1;3:1;4:1] net_bits=1976 msgs=210 sends=20 echoes=97 readies=93 drops=10 crashed=0 waves=5";
    "and/sequential drop:0.05,delay:8 net=4242: delivered writes=5 bits=5 [0:1;1:1;2:1;3:1;4:1] net_bits=1970 msgs=210 sends=20 echoes=93 readies=97 drops=10 crashed=0 waves=5";
    "and/sequential equiv:0 net=1: stalled slots=0 speaker=0 reason=no-quorum bits=0 [] net_bits=168 msgs=24 sends=4 echoes=20 readies=0 drops=0 crashed=0 waves=1";
    "and/sequential equiv:0 net=17: stalled slots=0 speaker=0 reason=no-quorum bits=0 [] net_bits=168 msgs=24 sends=4 echoes=20 readies=0 drops=0 crashed=0 waves=1";
    "and/sequential equiv:0 net=4242: stalled slots=0 speaker=0 reason=no-quorum bits=0 [] net_bits=168 msgs=24 sends=4 echoes=20 readies=0 drops=0 crashed=0 waves=1";
    "and/broadcast-all none net=1: delivered writes=4 bits=4 [0:1;1:1;2:1;3:1] net_bits=972 msgs=108 sends=12 echoes=48 readies=48 drops=0 crashed=0 waves=4";
    "and/broadcast-all none net=17: delivered writes=4 bits=4 [0:1;1:1;2:1;3:1] net_bits=972 msgs=108 sends=12 echoes=48 readies=48 drops=0 crashed=0 waves=4";
    "and/broadcast-all none net=4242: delivered writes=4 bits=4 [0:1;1:1;2:1;3:1] net_bits=972 msgs=108 sends=12 echoes=48 readies=48 drops=0 crashed=0 waves=4";
    "and/broadcast-all crash:2@9 net=1: stalled slots=2 speaker=2 reason=crashed bits=2 [0:1;1:1] net_bits=405 msgs=51 sends=6 echoes=24 readies=21 drops=0 crashed=1 waves=2";
    "and/broadcast-all crash:2@9 net=17: stalled slots=2 speaker=2 reason=crashed bits=2 [0:1;1:1] net_bits=405 msgs=51 sends=6 echoes=24 readies=21 drops=0 crashed=1 waves=2";
    "and/broadcast-all crash:2@9 net=4242: stalled slots=2 speaker=2 reason=crashed bits=2 [0:1;1:1] net_bits=405 msgs=51 sends=6 echoes=24 readies=21 drops=0 crashed=1 waves=2";
    "and/broadcast-all drop:0.05,delay:8 net=1: stalled slots=2 speaker=2 reason=no-quorum bits=2 [0:1;1:1] net_bits=605 msgs=73 sends=8 echoes=33 readies=32 drops=5 crashed=0 waves=3";
    "and/broadcast-all drop:0.05,delay:8 net=17: delivered writes=4 bits=4 [0:1;1:1;2:1;3:1] net_bits=927 msgs=103 sends=12 echoes=46 readies=45 drops=5 crashed=0 waves=4";
    "and/broadcast-all drop:0.05,delay:8 net=4242: delivered writes=4 bits=4 [0:1;1:1;2:1;3:1] net_bits=903 msgs=101 sends=12 echoes=45 readies=44 drops=7 crashed=0 waves=4";
    "and/broadcast-all equiv:0 net=1: stalled slots=0 speaker=0 reason=no-quorum bits=0 [] net_bits=105 msgs=15 sends=3 echoes=12 readies=0 drops=0 crashed=0 waves=1";
    "and/broadcast-all equiv:0 net=17: stalled slots=0 speaker=0 reason=no-quorum bits=0 [] net_bits=105 msgs=15 sends=3 echoes=12 readies=0 drops=0 crashed=0 waves=1";
    "and/broadcast-all equiv:0 net=4242: stalled slots=0 speaker=0 reason=no-quorum bits=0 [] net_bits=105 msgs=15 sends=3 echoes=12 readies=0 drops=0 crashed=0 waves=1";
    "and/truncated none net=1: delivered writes=3 bits=3 [0:1;1:1;2:1] net_bits=1100 msgs=132 sends=12 echoes=60 readies=60 drops=0 crashed=0 waves=3";
    "and/truncated none net=17: delivered writes=3 bits=3 [0:1;1:1;2:1] net_bits=1100 msgs=132 sends=12 echoes=60 readies=60 drops=0 crashed=0 waves=3";
    "and/truncated none net=4242: delivered writes=3 bits=3 [0:1;1:1;2:1] net_bits=1100 msgs=132 sends=12 echoes=60 readies=60 drops=0 crashed=0 waves=3";
    "and/truncated crash:2@9 net=1: stalled slots=2 speaker=2 reason=crashed bits=2 [0:1;1:1] net_bits=641 msgs=81 sends=8 echoes=37 readies=36 drops=0 crashed=1 waves=2";
    "and/truncated crash:2@9 net=17: stalled slots=2 speaker=2 reason=crashed bits=2 [0:1;1:1] net_bits=641 msgs=81 sends=8 echoes=37 readies=36 drops=0 crashed=1 waves=2";
    "and/truncated crash:2@9 net=4242: stalled slots=2 speaker=2 reason=crashed bits=2 [0:1;1:1] net_bits=641 msgs=81 sends=8 echoes=37 readies=36 drops=0 crashed=1 waves=2";
    "and/truncated drop:0.05,delay:8 net=1: delivered writes=3 bits=3 [0:1;1:1;2:1] net_bits=1012 msgs=122 sends=11 echoes=53 readies=58 drops=6 crashed=0 waves=3";
    "and/truncated drop:0.05,delay:8 net=17: delivered writes=3 bits=3 [0:1;1:1;2:1] net_bits=1041 msgs=125 sends=12 echoes=58 readies=55 drops=7 crashed=0 waves=3";
    "and/truncated drop:0.05,delay:8 net=4242: delivered writes=3 bits=3 [0:1;1:1;2:1] net_bits=1057 msgs=127 sends=12 echoes=56 readies=59 drops=5 crashed=0 waves=3";
    "and/truncated equiv:0 net=1: stalled slots=0 speaker=0 reason=no-quorum bits=0 [] net_bits=168 msgs=24 sends=4 echoes=20 readies=0 drops=0 crashed=0 waves=1";
    "and/truncated equiv:0 net=17: stalled slots=0 speaker=0 reason=no-quorum bits=0 [] net_bits=168 msgs=24 sends=4 echoes=20 readies=0 drops=0 crashed=0 waves=1";
    "and/truncated equiv:0 net=4242: stalled slots=0 speaker=0 reason=no-quorum bits=0 [] net_bits=168 msgs=24 sends=4 echoes=20 readies=0 drops=0 crashed=0 waves=1";
    "disj/trivial-tree none net=1: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=392 msgs=42 sends=6 echoes=18 readies=18 drops=0 crashed=0 waves=3";
    "disj/trivial-tree none net=17: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=392 msgs=42 sends=6 echoes=18 readies=18 drops=0 crashed=0 waves=3";
    "disj/trivial-tree none net=4242: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=392 msgs=42 sends=6 echoes=18 readies=18 drops=0 crashed=0 waves=3";
    "disj/trivial-tree crash:2@9 net=1: stalled slots=2 speaker=2 reason=no-quorum bits=4 [0:11;1:11] net_bits=262 msgs=29 sends=4 echoes=13 readies=12 drops=0 crashed=1 waves=3";
    "disj/trivial-tree crash:2@9 net=17: stalled slots=2 speaker=2 reason=no-quorum bits=4 [0:11;1:11] net_bits=262 msgs=29 sends=4 echoes=13 readies=12 drops=0 crashed=1 waves=3";
    "disj/trivial-tree crash:2@9 net=4242: stalled slots=2 speaker=2 reason=no-quorum bits=4 [0:11;1:11] net_bits=262 msgs=29 sends=4 echoes=13 readies=12 drops=0 crashed=1 waves=3";
    "disj/trivial-tree drop:0.05,delay:8 net=1: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=382 msgs=41 sends=6 echoes=18 readies=17 drops=1 crashed=0 waves=3";
    "disj/trivial-tree drop:0.05,delay:8 net=17: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=382 msgs=41 sends=6 echoes=18 readies=17 drops=1 crashed=0 waves=3";
    "disj/trivial-tree drop:0.05,delay:8 net=4242: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=372 msgs=40 sends=6 echoes=18 readies=16 drops=2 crashed=0 waves=3";
    "disj/trivial-tree equiv:0 net=1: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=392 msgs=42 sends=6 echoes=18 readies=18 drops=0 crashed=0 waves=3";
    "disj/trivial-tree equiv:0 net=17: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=392 msgs=42 sends=6 echoes=18 readies=18 drops=0 crashed=0 waves=3";
    "disj/trivial-tree equiv:0 net=4242: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=392 msgs=42 sends=6 echoes=18 readies=18 drops=0 crashed=0 waves=3";
    "and/sequential pipelined none net=17: delivered writes=5 bits=5 [0:1;1:1;2:1;3:1;4:1] net_bits=2068 msgs=220 sends=20 echoes=100 readies=100 drops=0 crashed=0 waves=5";
    "and/sequential pipelined crash:2@9 net=17: stalled slots=2 speaker=2 reason=crashed bits=2 [0:1;1:1] net_bits=641 msgs=81 sends=8 echoes=37 readies=36 drops=0 crashed=1 waves=2";
    "and/sequential pipelined drop:0.05,delay:8 net=17: delivered writes=5 bits=5 [0:1;1:1;2:1;3:1;4:1] net_bits=1976 msgs=210 sends=20 echoes=97 readies=93 drops=10 crashed=0 waves=5";
    "and/sequential pipelined equiv:0 net=17: stalled slots=0 speaker=0 reason=no-quorum bits=0 [] net_bits=168 msgs=24 sends=4 echoes=20 readies=0 drops=0 crashed=0 waves=1";
    "and/broadcast-all pipelined none net=17: delivered writes=4 bits=4 [0:1;1:1;2:1;3:1] net_bits=972 msgs=108 sends=12 echoes=48 readies=48 drops=0 crashed=0 waves=1";
    "and/broadcast-all pipelined crash:2@9 net=17: delivered writes=4 bits=4 [0:1;1:1;2:1;3:1] net_bits=804 msgs=90 sends=12 echoes=42 readies=36 drops=0 crashed=1 waves=1";
    "and/broadcast-all pipelined drop:0.05,delay:8 net=17: stalled slots=2 speaker=2 reason=no-quorum bits=2 [0:1;1:1] net_bits=909 msgs=101 sends=12 echoes=45 readies=44 drops=7 crashed=0 waves=1";
    "and/broadcast-all pipelined equiv:0 net=17: stalled slots=0 speaker=0 reason=no-quorum bits=0 [] net_bits=888 msgs=96 sends=12 echoes=48 readies=36 drops=0 crashed=0 waves=1";
    "and/truncated pipelined none net=17: delivered writes=3 bits=3 [0:1;1:1;2:1] net_bits=1100 msgs=132 sends=12 echoes=60 readies=60 drops=0 crashed=0 waves=3";
    "and/truncated pipelined crash:2@9 net=17: stalled slots=2 speaker=2 reason=crashed bits=2 [0:1;1:1] net_bits=641 msgs=81 sends=8 echoes=37 readies=36 drops=0 crashed=1 waves=2";
    "and/truncated pipelined drop:0.05,delay:8 net=17: delivered writes=3 bits=3 [0:1;1:1;2:1] net_bits=1041 msgs=125 sends=12 echoes=58 readies=55 drops=7 crashed=0 waves=3";
    "and/truncated pipelined equiv:0 net=17: stalled slots=0 speaker=0 reason=no-quorum bits=0 [] net_bits=168 msgs=24 sends=4 echoes=20 readies=0 drops=0 crashed=0 waves=1";
    "disj/trivial-tree pipelined none net=17: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=392 msgs=42 sends=6 echoes=18 readies=18 drops=0 crashed=0 waves=1";
    "disj/trivial-tree pipelined crash:2@9 net=17: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=342 msgs=37 sends=6 echoes=16 readies=15 drops=0 crashed=1 waves=1";
    "disj/trivial-tree pipelined drop:0.05,delay:8 net=17: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=374 msgs=40 sends=6 echoes=17 readies=17 drops=2 crashed=0 waves=1";
    "disj/trivial-tree pipelined equiv:0 net=17: delivered writes=3 bits=6 [0:11;1:11;2:10] net_bits=392 msgs=42 sends=6 echoes=18 readies=18 drops=0 crashed=0 waves=1";
    "and/bcast-7 pipelined equiv:1 net=1: delivered writes=7 bits=7 [0:1;1:1;2:1;3:1;4:1;5:0;6:1] net_bits=6210 msgs=630 sends=42 echoes=294 readies=294 drops=0 crashed=0 waves=1";
    "and/bcast-7 pipelined equiv:1 net=17: delivered writes=7 bits=7 [0:1;1:1;2:1;3:1;4:1;5:0;6:1] net_bits=6210 msgs=630 sends=42 echoes=294 readies=294 drops=0 crashed=0 waves=1";
    "and/bcast-7 pipelined crash:2@9 net=1: stalled slots=2 speaker=2 reason=no-quorum bits=2 [0:1;1:1] net_bits=4923 msgs=495 sends=39 echoes=240 readies=216 drops=0 crashed=1 waves=1";
    "and/bcast-7 pipelined crash:2@9 net=17: stalled slots=2 speaker=2 reason=no-quorum bits=2 [0:1;1:1] net_bits=4923 msgs=495 sends=39 echoes=240 readies=216 drops=0 crashed=1 waves=1";
    "and/bcast-7 pipelined drop:0.05,delay:8 net=1: delivered writes=7 bits=7 [0:1;1:1;2:1;3:1;4:1;5:0;6:1] net_bits=5945 msgs=601 sends=41 echoes=279 readies=281 drops=23 crashed=0 waves=1";
    "and/bcast-7 pipelined drop:0.05,delay:8 net=17: delivered writes=7 bits=7 [0:1;1:1;2:1;3:1;4:1;5:0;6:1] net_bits=5702 msgs=580 sends=40 echoes=269 readies=271 drops=38 crashed=0 waves=1";
    "and/bcast-7 pipelined equiv:1,crash:2@9 net=1: stalled slots=1 speaker=1 reason=no-quorum bits=1 [0:1] net_bits=4599 msgs=459 sends=39 echoes=240 readies=180 drops=0 crashed=1 waves=1";
    "and/bcast-7 pipelined equiv:1,crash:2@9 net=17: stalled slots=1 speaker=1 reason=no-quorum bits=1 [0:1] net_bits=4599 msgs=459 sends=39 echoes=240 readies=180 drops=0 crashed=1 waves=1";
  ]

let t_emu_pinned () =
  Alcotest.(check int) "one expected line per case" (List.length emu_cases)
    (List.length emu_expected);
  List.iter2
    (fun (pipelined, e, plan, net) expected ->
      Alcotest.(check string) expected expected
        (render_emu ~pipelined e plan net))
    emu_cases emu_expected

(* ------------------------------------------------------------------ *)
(* Theorem-3 compression                                               *)
(* ------------------------------------------------------------------ *)

let render_run (r : Am.run) =
  Printf.sprintf
    "total_bits=%d rounds=%d transmissions=%d aborted=%d agreed=%b \
     outputs=%s"
    r.Am.total_bits r.rounds r.transmissions r.aborted r.agreed
    (String.concat "" (Array.to_list (Array.map string_of_int r.outputs)))

let trees =
  [
    ("and/sequential-4", 4, Protocols.And_protocols.sequential 4);
    ( "and/sequential-3+coin",
      3,
      Proto.Combinators.xor_output_with_coin
        (Protocols.And_protocols.sequential 3) );
    ( "and/noisy-3",
      3,
      Protocols.And_protocols.noisy_sequential ~k:3
        ~noise:(Exact.Rational.of_ints 1 10) );
  ]

let render_compress ~factored (label, k, tree) ~seed ~copies =
  let mu = Protocols.Hard_dist.mu_and ~k in
  let inputs = Am.draw_inputs ~seed ~mu ~copies in
  let run =
    if factored then Am.compress_parallel_factored ~seed ~tree ~mu ~inputs ()
    else Am.compress_parallel ~seed ~tree ~mu ~inputs ()
  in
  Printf.sprintf "%s %s seed=%d copies=%d: %s"
    (if factored then "factored" else "literal")
    label seed copies (render_run run)

let compress_cases =
  List.concat_map
    (fun t ->
      [
        (false, t, 3, 8);
        (false, t, 11, 12);
        (true, t, 3, 8);
        (true, t, 11, 96);
      ])
    trees

let compress_expected =
  [
    "literal and/sequential-4 seed=3 copies=8: total_bits=41 rounds=4 transmissions=4 aborted=0 agreed=true outputs=00000000";
    "literal and/sequential-4 seed=11 copies=12: total_bits=52 rounds=4 transmissions=4 aborted=0 agreed=true outputs=000000000000";
    "factored and/sequential-4 seed=3 copies=8: total_bits=43 rounds=4 transmissions=4 aborted=0 agreed=true outputs=00000000";
    "factored and/sequential-4 seed=11 copies=96: total_bits=212 rounds=4 transmissions=4 aborted=0 agreed=true outputs=000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000";
    "literal and/sequential-3+coin seed=3 copies=8: total_bits=30 rounds=2 transmissions=2 aborted=0 agreed=true outputs=11001000";
    "literal and/sequential-3+coin seed=11 copies=12: total_bits=38 rounds=3 transmissions=3 aborted=0 agreed=true outputs=110000110110";
    "factored and/sequential-3+coin seed=3 copies=8: total_bits=31 rounds=2 transmissions=2 aborted=0 agreed=true outputs=11001000";
    "factored and/sequential-3+coin seed=11 copies=96: total_bits=169 rounds=3 transmissions=3 aborted=0 agreed=true outputs=100001100110111010100000111111011001110010011000110001110010101111011011001111001011110101101011";
    "literal and/noisy-3 seed=3 copies=8: total_bits=38 rounds=3 transmissions=3 aborted=0 agreed=true outputs=00000000";
    "literal and/noisy-3 seed=11 copies=12: total_bits=35 rounds=3 transmissions=3 aborted=0 agreed=true outputs=000000010000";
    "factored and/noisy-3 seed=3 copies=8: total_bits=22 rounds=3 transmissions=3 aborted=0 agreed=true outputs=00000000";
    "factored and/noisy-3 seed=11 copies=96: total_bits=101 rounds=3 transmissions=3 aborted=0 agreed=true outputs=000000000000000000000000000000000000000000000000000000000000001000000000000000000000001000100000";
  ]

let t_compress_pinned () =
  Alcotest.(check int) "one expected line per case"
    (List.length compress_cases)
    (List.length compress_expected);
  List.iter2
    (fun (factored, t, seed, copies) expected ->
      Alcotest.(check string) expected expected
        (render_compress ~factored t ~seed ~copies))
    compress_cases compress_expected

(* ------------------------------------------------------------------ *)
(* Static analyzers                                                    *)
(* ------------------------------------------------------------------ *)

let analyzer_budgets = [ Some 1; Some 5; Some 13; Some 40; Some 200; None ]

let budget_label = function Some b -> string_of_int b | None -> "default"
let ints l = String.concat "," (List.map string_of_int l)

let render_absint (a : Ab.t) =
  Printf.sprintf
    "absint cost=%s nodes=%d widenings=%d dead=[%s] det=%b law_failures=%d \
     widened=%b leaves=[%s]"
    (Ab.interval_to_string a.cost) a.nodes a.widenings
    (String.concat " " (List.map Analysis.Path.to_string a.dead))
    a.deterministic a.law_failures a.widened
    (String.concat " "
       (List.map
          (fun (l : Ab.leaf) ->
            Printf.sprintf "%d{%s}" l.output
              (String.concat "|" (Array.to_list (Array.map ints l.rect))))
          a.leaves))

let render_infoflow (f : Flow.t) =
  Printf.sprintf
    "infoflow nodes=%d widened=%b law_failures=%d det=%b sound=%b ext=%s \
     int=%s total_mass=%s leaves=[%s]"
    f.nodes f.widened f.law_failures f.deterministic f.sound
    (Flow.bound_to_string f.external_ic)
    (Flow.bound_to_string f.internal_ic)
    (R.to_string f.total_mass)
    (String.concat " "
       (List.map
          (fun (l : Flow.leaf) ->
            Printf.sprintf "%d:%s" l.bits (R.to_string l.mass))
          f.leaves))

(* The three analyzers on one tree, one line each. *)
let render_analyzers ?budget ?players ~domain tree =
  [
    render_absint (Ab.analyze ?budget ?players ~domain tree);
    "depgraph "
    ^ Obs.Jsonw.to_string
        (Dg.to_json (Dg.analyze ?budget ?players ~domain tree));
    render_infoflow (Flow.analyze ?budget ?players ~domain tree);
  ]

let registry_analyzer_lines () =
  List.concat_map
    (fun (Reg.Entry r) ->
      let tree = Lazy.force r.tree in
      List.concat_map
        (fun budget ->
          List.map
            (Printf.sprintf "%s b=%s %s" r.name (budget_label budget))
            (render_analyzers ?budget ~players:r.players ~domain:r.domain tree))
        analyzer_budgets)
    (Reg.all ())

(* Seeded random trees over the domain [0, d) that reach every branch
   of the three walks: point-mass laws, laws that raise, place mass
   outside the arity or are not normalized (raw records, behind the
   smart constructors' guards), zero-probability and unnormalized coin
   branches, and physically shared sibling subtrees. Half the trees
   use point-mass laws only, so that a failing law is often the only
   thing that makes a tree nondeterministic. *)
let raw_dist pairs : int D.t = { MD.items = Array.of_list pairs; index = None }

let random_analyzer_tree rng ~det ~d ~k ~depth =
  let int n = Prob.Rng.int rng n in
  let law arity =
    if det || int 3 = 0 then D.return (int arity)
    else
      let s0 = int arity in
      D.of_weighted
        (List.init arity (fun s ->
             (s, R.of_ints ((if s = s0 then 1 else 0) + int 3) 4)))
  in
  let rec go depth =
    if depth = 0 || int 5 = 0 then T.output (int 2)
    else begin
      let arity = 2 + int 2 in
      let children =
        if int 4 = 0 then begin
          let shared = go (depth - 1) in
          Array.init arity (fun i -> if i < 2 then shared else go (depth - 1))
        end
        else Array.init arity (fun _ -> go (depth - 1))
      in
      match int 10 with
      | 0 ->
          let z = int arity in
          T.chance
            ~coin:
              (D.of_weighted
                 (List.filter_map
                    (fun s -> if s = z then None else Some (s, R.one))
                    (List.init arity Fun.id)))
            children
      | 1 -> T.chance ~coin:(raw_dist [ (0, R.half) ]) children
      | 2 -> T.chance ~coin:(law arity) children
      | _ ->
          let laws = Array.init d (fun _ -> law arity) in
          let bad = int d in
          let emit =
            match int 8 with
            | 0 -> fun x -> if x = bad then failwith "law raises" else laws.(x)
            | 1 ->
                let off = if int 2 = 0 then arity else -1 in
                fun x ->
                  if x = bad then D.of_weighted [ (0, R.half); (off, R.half) ]
                  else laws.(x)
            | 2 ->
                fun x ->
                  if x = bad then
                    raw_dist [ (0, R.of_ints 1 3); (1, R.of_ints 1 3) ]
                  else laws.(x)
            | _ -> fun x -> laws.(x)
          in
          T.speak_unguarded ~speaker:(int k) ~emit children
    end
  in
  go depth

let random_analyzer_digest budget =
  let lines =
    List.concat_map
      (fun seed ->
        let rng = Prob.Rng.of_int_seed seed in
        let int n = Prob.Rng.int rng n in
        let d = 2 + int 2 and k = 1 + int 3 and det = int 2 = 0 in
        let tree = random_analyzer_tree rng ~det ~d ~k ~depth:(2 + int 6) in
        (* A declared count below the inferred one is raised to it. *)
        let players = [| None; Some 1; Some k |].(int 3) in
        render_analyzers ?budget ?players ~domain:(Array.init d Fun.id) tree)
      (List.init 200 (fun i -> i + 1))
  in
  Digest.to_hex (Digest.string (String.concat "\n" lines))

let analyzer_expected =
  [
    {x|and/sequential b=1 absint cost=[1, 5] nodes=1 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[]|x};
    {x|and/sequential b=1 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":5,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":1,"players":5,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":4,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|and/sequential b=1 infoflow nodes=1 widened=true law_failures=0 det=false sound=false ext=[0, 5] int=[0, 20] total_mass=0 leaves=[]|x};
    {x|and/sequential b=5 absint cost=[1, 5] nodes=5 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0,1|0,1|0,1|0,1} 0{1|0|0,1|0,1|0,1}]|x};
    {x|and/sequential b=5 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":5,"waves":3,"certified":false,"widened":true,"law_failures":0,"nodes":5,"players":5,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false},{"slot":4,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false}]}|x};
    {x|and/sequential b=5 infoflow nodes=5 widened=true law_failures=0 det=false sound=false ext=[0, 5] int=[0, 20] total_mass=3/4 leaves=[2:1/4 1:1/2]|x};
    {x|and/sequential b=13 absint cost=[1, 5] nodes=11 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1|0,1|0,1|0,1} 0{1|0|0,1|0,1|0,1} 0{1|1|0|0,1|0,1} 0{1|1|1|0|0,1} 0{1|1|1|1|0} 1{1|1|1|1|1}]|x};
    {x|and/sequential b=13 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":5,"waves":5,"certified":false,"widened":true,"law_failures":0,"nodes":13,"players":5,"wave_starts":[0,1,2,3,4],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[4],"reads":[0,1,2,3],"wave":4,"output_relevant":true}]}|x};
    {x|and/sequential b=13 infoflow nodes=11 widened=false law_failures=0 det=true sound=true ext=[31/16, 31/16] int=[31/4, 31/4] total_mass=1 leaves=[5:1/32 5:1/32 4:1/16 3:1/8 2:1/4 1:1/2]|x};
    {x|and/sequential b=40 absint cost=[1, 5] nodes=11 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1|0,1|0,1|0,1} 0{1|0|0,1|0,1|0,1} 0{1|1|0|0,1|0,1} 0{1|1|1|0|0,1} 0{1|1|1|1|0} 1{1|1|1|1|1}]|x};
    {x|and/sequential b=40 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":5,"waves":5,"certified":true,"widened":false,"law_failures":0,"nodes":16,"players":5,"wave_starts":[0,1,2,3,4],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[4],"reads":[0,1,2,3],"wave":4,"output_relevant":true}]}|x};
    {x|and/sequential b=40 infoflow nodes=11 widened=false law_failures=0 det=true sound=true ext=[31/16, 31/16] int=[31/4, 31/4] total_mass=1 leaves=[5:1/32 5:1/32 4:1/16 3:1/8 2:1/4 1:1/2]|x};
    {x|and/sequential b=200 absint cost=[1, 5] nodes=11 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1|0,1|0,1|0,1} 0{1|0|0,1|0,1|0,1} 0{1|1|0|0,1|0,1} 0{1|1|1|0|0,1} 0{1|1|1|1|0} 1{1|1|1|1|1}]|x};
    {x|and/sequential b=200 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":5,"waves":5,"certified":true,"widened":false,"law_failures":0,"nodes":16,"players":5,"wave_starts":[0,1,2,3,4],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[4],"reads":[0,1,2,3],"wave":4,"output_relevant":true}]}|x};
    {x|and/sequential b=200 infoflow nodes=11 widened=false law_failures=0 det=true sound=true ext=[31/16, 31/16] int=[31/4, 31/4] total_mass=1 leaves=[5:1/32 5:1/32 4:1/16 3:1/8 2:1/4 1:1/2]|x};
    {x|and/sequential b=default absint cost=[1, 5] nodes=11 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1|0,1|0,1|0,1} 0{1|0|0,1|0,1|0,1} 0{1|1|0|0,1|0,1} 0{1|1|1|0|0,1} 0{1|1|1|1|0} 1{1|1|1|1|1}]|x};
    {x|and/sequential b=default depgraph {"schema":"broadcast-ic/depgraph/v1","slots":5,"waves":5,"certified":true,"widened":false,"law_failures":0,"nodes":16,"players":5,"wave_starts":[0,1,2,3,4],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[4],"reads":[0,1,2,3],"wave":4,"output_relevant":true}]}|x};
    {x|and/sequential b=default infoflow nodes=11 widened=false law_failures=0 det=true sound=true ext=[31/16, 31/16] int=[31/4, 31/4] total_mass=1 leaves=[5:1/32 5:1/32 4:1/16 3:1/8 2:1/4 1:1/2]|x};
    {x|and/broadcast-all b=1 absint cost=[1, 4] nodes=1 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[]|x};
    {x|and/broadcast-all b=1 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":1,"players":4,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|and/broadcast-all b=1 infoflow nodes=1 widened=true law_failures=0 det=false sound=false ext=[0, 4] int=[0, 12] total_mass=0 leaves=[]|x};
    {x|and/broadcast-all b=5 absint cost=[1, 4] nodes=5 widenings=4 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0|0|0}]|x};
    {x|and/broadcast-all b=5 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":5,"players":4,"wave_starts":[0,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[],"wave":0,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|and/broadcast-all b=5 infoflow nodes=5 widened=true law_failures=0 det=false sound=false ext=[0, 4] int=[0, 12] total_mass=1/16 leaves=[4:1/16]|x};
    {x|and/broadcast-all b=13 absint cost=[1, 4] nodes=13 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0|0|0} 0{0|0|0|1} 0{0|0|1|0} 0{0|0|1|1} 0{0|1|0|0} 0{0|1|0|1}]|x};
    {x|and/broadcast-all b=13 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":13,"players":4,"wave_starts":[0,3],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[],"wave":0,"output_relevant":false},{"slot":2,"speakers":[],"reads":[],"wave":0,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|and/broadcast-all b=13 infoflow nodes=13 widened=true law_failures=0 det=false sound=false ext=[0, 4] int=[0, 12] total_mass=3/8 leaves=[4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16]|x};
    {x|and/broadcast-all b=40 absint cost=[4, 4] nodes=31 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0|0|0} 0{0|0|0|1} 0{0|0|1|0} 0{0|0|1|1} 0{0|1|0|0} 0{0|1|0|1} 0{0|1|1|0} 0{0|1|1|1} 0{1|0|0|0} 0{1|0|0|1} 0{1|0|1|0} 0{1|0|1|1} 0{1|1|0|0} 0{1|1|0|1} 0{1|1|1|0} 1{1|1|1|1}]|x};
    {x|and/broadcast-all b=40 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":1,"certified":false,"widened":true,"law_failures":0,"nodes":40,"players":4,"wave_starts":[0],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[],"wave":0,"output_relevant":false},{"slot":2,"speakers":[2],"reads":[],"wave":0,"output_relevant":false},{"slot":3,"speakers":[3],"reads":[],"wave":0,"output_relevant":false}]}|x};
    {x|and/broadcast-all b=40 infoflow nodes=31 widened=false law_failures=0 det=true sound=true ext=[4, 4] int=[12, 12] total_mass=1 leaves=[4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16]|x};
    {x|and/broadcast-all b=200 absint cost=[4, 4] nodes=31 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0|0|0} 0{0|0|0|1} 0{0|0|1|0} 0{0|0|1|1} 0{0|1|0|0} 0{0|1|0|1} 0{0|1|1|0} 0{0|1|1|1} 0{1|0|0|0} 0{1|0|0|1} 0{1|0|1|0} 0{1|0|1|1} 0{1|1|0|0} 0{1|1|0|1} 0{1|1|1|0} 1{1|1|1|1}]|x};
    {x|and/broadcast-all b=200 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":1,"certified":true,"widened":false,"law_failures":0,"nodes":80,"players":4,"wave_starts":[0],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[],"wave":0,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[],"wave":0,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[],"wave":0,"output_relevant":true}]}|x};
    {x|and/broadcast-all b=200 infoflow nodes=31 widened=false law_failures=0 det=true sound=true ext=[4, 4] int=[12, 12] total_mass=1 leaves=[4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16]|x};
    {x|and/broadcast-all b=default absint cost=[4, 4] nodes=31 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0|0|0} 0{0|0|0|1} 0{0|0|1|0} 0{0|0|1|1} 0{0|1|0|0} 0{0|1|0|1} 0{0|1|1|0} 0{0|1|1|1} 0{1|0|0|0} 0{1|0|0|1} 0{1|0|1|0} 0{1|0|1|1} 0{1|1|0|0} 0{1|1|0|1} 0{1|1|1|0} 1{1|1|1|1}]|x};
    {x|and/broadcast-all b=default depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":1,"certified":true,"widened":false,"law_failures":0,"nodes":80,"players":4,"wave_starts":[0],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[],"wave":0,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[],"wave":0,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[],"wave":0,"output_relevant":true}]}|x};
    {x|and/broadcast-all b=default infoflow nodes=31 widened=false law_failures=0 det=true sound=true ext=[4, 4] int=[12, 12] total_mass=1 leaves=[4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16 4:1/16]|x};
    {x|and/truncated b=1 absint cost=[1, 3] nodes=1 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[]|x};
    {x|and/truncated b=1 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":1,"players":5,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|and/truncated b=1 infoflow nodes=1 widened=true law_failures=0 det=false sound=false ext=[0, 3] int=[0, 12] total_mass=0 leaves=[]|x};
    {x|and/truncated b=5 absint cost=[1, 3] nodes=5 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0,1|0,1|0,1|0,1} 0{1|0|0,1|0,1|0,1}]|x};
    {x|and/truncated b=5 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":3,"certified":false,"widened":true,"law_failures":0,"nodes":5,"players":5,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false}]}|x};
    {x|and/truncated b=5 infoflow nodes=5 widened=true law_failures=0 det=false sound=false ext=[0, 3] int=[0, 12] total_mass=3/4 leaves=[2:1/4 1:1/2]|x};
    {x|and/truncated b=13 absint cost=[1, 3] nodes=7 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1|0,1|0,1|0,1} 0{1|0|0,1|0,1|0,1} 0{1|1|0|0,1|0,1} 1{1|1|1|0,1|0,1}]|x};
    {x|and/truncated b=13 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":3,"certified":true,"widened":false,"law_failures":0,"nodes":10,"players":5,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true}]}|x};
    {x|and/truncated b=13 infoflow nodes=7 widened=false law_failures=0 det=true sound=true ext=[7/4, 7/4] int=[7, 7] total_mass=1 leaves=[3:1/8 3:1/8 2:1/4 1:1/2]|x};
    {x|and/truncated b=40 absint cost=[1, 3] nodes=7 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1|0,1|0,1|0,1} 0{1|0|0,1|0,1|0,1} 0{1|1|0|0,1|0,1} 1{1|1|1|0,1|0,1}]|x};
    {x|and/truncated b=40 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":3,"certified":true,"widened":false,"law_failures":0,"nodes":10,"players":5,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true}]}|x};
    {x|and/truncated b=40 infoflow nodes=7 widened=false law_failures=0 det=true sound=true ext=[7/4, 7/4] int=[7, 7] total_mass=1 leaves=[3:1/8 3:1/8 2:1/4 1:1/2]|x};
    {x|and/truncated b=200 absint cost=[1, 3] nodes=7 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1|0,1|0,1|0,1} 0{1|0|0,1|0,1|0,1} 0{1|1|0|0,1|0,1} 1{1|1|1|0,1|0,1}]|x};
    {x|and/truncated b=200 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":3,"certified":true,"widened":false,"law_failures":0,"nodes":10,"players":5,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true}]}|x};
    {x|and/truncated b=200 infoflow nodes=7 widened=false law_failures=0 det=true sound=true ext=[7/4, 7/4] int=[7, 7] total_mass=1 leaves=[3:1/8 3:1/8 2:1/4 1:1/2]|x};
    {x|and/truncated b=default absint cost=[1, 3] nodes=7 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1|0,1|0,1|0,1} 0{1|0|0,1|0,1|0,1} 0{1|1|0|0,1|0,1} 1{1|1|1|0,1|0,1}]|x};
    {x|and/truncated b=default depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":3,"certified":true,"widened":false,"law_failures":0,"nodes":10,"players":5,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true}]}|x};
    {x|and/truncated b=default infoflow nodes=7 widened=false law_failures=0 det=true sound=true ext=[7/4, 7/4] int=[7, 7] total_mass=1 leaves=[3:1/8 3:1/8 2:1/4 1:1/2]|x};
    {x|and/noisy b=1 absint cost=[1, 4] nodes=1 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[]|x};
    {x|and/noisy b=1 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":1,"players":4,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|and/noisy b=1 infoflow nodes=1 widened=true law_failures=0 det=false sound=false ext=[0, 4] int=[0, 12] total_mass=0 leaves=[]|x};
    {x|and/noisy b=5 absint cost=[1, 4] nodes=5 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1}]|x};
    {x|and/noisy b=5 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":3,"certified":false,"widened":true,"law_failures":0,"nodes":5,"players":4,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false}]}|x};
    {x|and/noisy b=5 infoflow nodes=5 widened=true law_failures=0 det=false sound=false ext=[0, 4] int=[0, 12] total_mass=3/4 leaves=[2:1/4 1:1/2]|x};
    {x|and/noisy b=13 absint cost=[1, 4] nodes=9 widenings=0 dead=[] det=false law_failures=0 widened=false leaves=[0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1} 1{0,1|0,1|0,1|0,1}]|x};
    {x|and/noisy b=13 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":4,"certified":true,"widened":false,"law_failures":0,"nodes":13,"players":4,"wave_starts":[0,1,2,3],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[0,1,2],"wave":3,"output_relevant":true}]}|x};
    {x|and/noisy b=13 infoflow nodes=9 widened=false law_failures=0 det=false sound=true ext=[260997/262144, 522009/524288] int=[782991/262144, 1566027/524288] total_mass=1 leaves=[4:1/16 4:1/16 3:1/8 2:1/4 1:1/2]|x};
    {x|and/noisy b=40 absint cost=[1, 4] nodes=9 widenings=0 dead=[] det=false law_failures=0 widened=false leaves=[0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1} 1{0,1|0,1|0,1|0,1}]|x};
    {x|and/noisy b=40 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":4,"certified":true,"widened":false,"law_failures":0,"nodes":13,"players":4,"wave_starts":[0,1,2,3],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[0,1,2],"wave":3,"output_relevant":true}]}|x};
    {x|and/noisy b=40 infoflow nodes=9 widened=false law_failures=0 det=false sound=true ext=[260997/262144, 522009/524288] int=[782991/262144, 1566027/524288] total_mass=1 leaves=[4:1/16 4:1/16 3:1/8 2:1/4 1:1/2]|x};
    {x|and/noisy b=200 absint cost=[1, 4] nodes=9 widenings=0 dead=[] det=false law_failures=0 widened=false leaves=[0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1} 1{0,1|0,1|0,1|0,1}]|x};
    {x|and/noisy b=200 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":4,"certified":true,"widened":false,"law_failures":0,"nodes":13,"players":4,"wave_starts":[0,1,2,3],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[0,1,2],"wave":3,"output_relevant":true}]}|x};
    {x|and/noisy b=200 infoflow nodes=9 widened=false law_failures=0 det=false sound=true ext=[260997/262144, 522009/524288] int=[782991/262144, 1566027/524288] total_mass=1 leaves=[4:1/16 4:1/16 3:1/8 2:1/4 1:1/2]|x};
    {x|and/noisy b=default absint cost=[1, 4] nodes=9 widenings=0 dead=[] det=false law_failures=0 widened=false leaves=[0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1} 0{0,1|0,1|0,1|0,1} 1{0,1|0,1|0,1|0,1}]|x};
    {x|and/noisy b=default depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":4,"certified":true,"widened":false,"law_failures":0,"nodes":13,"players":4,"wave_starts":[0,1,2,3],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[0,1,2],"wave":3,"output_relevant":true}]}|x};
    {x|and/noisy b=default infoflow nodes=9 widened=false law_failures=0 det=false sound=true ext=[260997/262144, 522009/524288] int=[782991/262144, 1566027/524288] total_mass=1 leaves=[4:1/16 4:1/16 3:1/8 2:1/4 1:1/2]|x};
    {x|and/two-copy b=1 absint cost=[1, 6] nodes=1 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[]|x};
    {x|and/two-copy b=1 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":1,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":4,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":5,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|and/two-copy b=1 infoflow nodes=1 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=0 leaves=[]|x};
    {x|and/two-copy b=5 absint cost=[1, 6] nodes=5 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0,1,2,3|0,1,2,3} 0{2|0,1|0,1,2,3}]|x};
    {x|and/two-copy b=5 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":3,"certified":false,"widened":true,"law_failures":0,"nodes":5,"players":3,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false},{"slot":4,"speakers":[],"reads":[0],"wave":2,"output_relevant":false},{"slot":5,"speakers":[],"reads":[0],"wave":2,"output_relevant":false}]}|x};
    {x|and/two-copy b=5 infoflow nodes=5 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=3/8 leaves=[3:1/8 2:1/4]|x};
    {x|and/two-copy b=13 absint cost=[2, 6] nodes=13 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0,1,2,3|0,1,2,3} 0{2|0,1|0,1,2,3} 0{2|2,3|0,1} 1{2|2,3|2,3} 0{1|0,2|0,1,2,3} 0{3|0|0,1,2,3}]|x};
    {x|and/two-copy b=13 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":4,"certified":false,"widened":true,"law_failures":0,"nodes":13,"players":3,"wave_starts":[0,1,2,3],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0,1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[1],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[2],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[],"reads":[0,1],"wave":3,"output_relevant":false},{"slot":5,"speakers":[],"reads":[0,1],"wave":3,"output_relevant":false}]}|x};
    {x|and/two-copy b=13 infoflow nodes=13 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=11/16 leaves=[4:1/16 3:1/8 4:1/16 4:1/16 3:1/8 2:1/4]|x};
    {x|and/two-copy b=40 absint cost=[2, 6] nodes=31 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1,2,3|0,1,2,3} 0{2|0,1|0,1,2,3} 0{2|2,3|0,1} 1{2|2,3|2,3} 0{1|0,2|0,1,2,3} 0{3|0|0,1,2,3} 0{3|2|0,1} 1{3|2|2,3} 0{1|1,3|0,2} 0{3|1|0,2} 0{3|3|0} 1{3|3|2} 2{1|1,3|1,3} 2{3|1|1,3} 2{3|3|1} 3{3|3|3}]|x};
    {x|and/two-copy b=40 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":6,"certified":false,"widened":true,"law_failures":0,"nodes":40,"players":3,"wave_starts":[0,1,2,3,4,5],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0,1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[0,1,2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[0,1,2],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[1,2],"reads":[0,1,2,3],"wave":4,"output_relevant":true},{"slot":5,"speakers":[2],"reads":[0,1,3,4],"wave":5,"output_relevant":true}]}|x};
    {x|and/two-copy b=40 infoflow nodes=31 widened=false law_failures=0 det=true sound=true ext=[7/2, 7/2] int=[7, 7] total_mass=1 leaves=[6:1/64 6:1/64 5:1/32 4:1/16 6:1/64 6:1/64 5:1/32 4:1/16 5:1/32 5:1/32 4:1/16 3:1/8 4:1/16 4:1/16 3:1/8 2:1/4]|x};
    {x|and/two-copy b=200 absint cost=[2, 6] nodes=31 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1,2,3|0,1,2,3} 0{2|0,1|0,1,2,3} 0{2|2,3|0,1} 1{2|2,3|2,3} 0{1|0,2|0,1,2,3} 0{3|0|0,1,2,3} 0{3|2|0,1} 1{3|2|2,3} 0{1|1,3|0,2} 0{3|1|0,2} 0{3|3|0} 1{3|3|2} 2{1|1,3|1,3} 2{3|1|1,3} 2{3|3|1} 3{3|3|3}]|x};
    {x|and/two-copy b=200 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":6,"certified":true,"widened":false,"law_failures":0,"nodes":52,"players":3,"wave_starts":[0,1,2,3,4,5],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0,1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[0,1,2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[0,1,2],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[1,2],"reads":[0,1,2,3],"wave":4,"output_relevant":true},{"slot":5,"speakers":[2],"reads":[0,1,3,4],"wave":5,"output_relevant":true}]}|x};
    {x|and/two-copy b=200 infoflow nodes=31 widened=false law_failures=0 det=true sound=true ext=[7/2, 7/2] int=[7, 7] total_mass=1 leaves=[6:1/64 6:1/64 5:1/32 4:1/16 6:1/64 6:1/64 5:1/32 4:1/16 5:1/32 5:1/32 4:1/16 3:1/8 4:1/16 4:1/16 3:1/8 2:1/4]|x};
    {x|and/two-copy b=default absint cost=[2, 6] nodes=31 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1,2,3|0,1,2,3} 0{2|0,1|0,1,2,3} 0{2|2,3|0,1} 1{2|2,3|2,3} 0{1|0,2|0,1,2,3} 0{3|0|0,1,2,3} 0{3|2|0,1} 1{3|2|2,3} 0{1|1,3|0,2} 0{3|1|0,2} 0{3|3|0} 1{3|3|2} 2{1|1,3|1,3} 2{3|1|1,3} 2{3|3|1} 3{3|3|3}]|x};
    {x|and/two-copy b=default depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":6,"certified":true,"widened":false,"law_failures":0,"nodes":52,"players":3,"wave_starts":[0,1,2,3,4,5],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0,1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[0,1,2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[0,1,2],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[1,2],"reads":[0,1,2,3],"wave":4,"output_relevant":true},{"slot":5,"speakers":[2],"reads":[0,1,3,4],"wave":5,"output_relevant":true}]}|x};
    {x|and/two-copy b=default infoflow nodes=31 widened=false law_failures=0 det=true sound=true ext=[7/2, 7/2] int=[7, 7] total_mass=1 leaves=[6:1/64 6:1/64 5:1/32 4:1/16 6:1/64 6:1/64 5:1/32 4:1/16 5:1/32 5:1/32 4:1/16 3:1/8 4:1/16 4:1/16 3:1/8 2:1/4]|x};
    {x|and/constant b=1 absint cost=[0, 0] nodes=1 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[1{0,1|0,1|0,1|0,1}]|x};
    {x|and/constant b=1 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":0,"waves":0,"certified":true,"widened":false,"law_failures":0,"nodes":1,"players":4,"wave_starts":[],"slot_table":[]}|x};
    {x|and/constant b=1 infoflow nodes=1 widened=false law_failures=0 det=true sound=true ext=[0, 0] int=[0, 0] total_mass=1 leaves=[0:1]|x};
    {x|and/constant b=5 absint cost=[0, 0] nodes=1 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[1{0,1|0,1|0,1|0,1}]|x};
    {x|and/constant b=5 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":0,"waves":0,"certified":true,"widened":false,"law_failures":0,"nodes":1,"players":4,"wave_starts":[],"slot_table":[]}|x};
    {x|and/constant b=5 infoflow nodes=1 widened=false law_failures=0 det=true sound=true ext=[0, 0] int=[0, 0] total_mass=1 leaves=[0:1]|x};
    {x|and/constant b=13 absint cost=[0, 0] nodes=1 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[1{0,1|0,1|0,1|0,1}]|x};
    {x|and/constant b=13 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":0,"waves":0,"certified":true,"widened":false,"law_failures":0,"nodes":1,"players":4,"wave_starts":[],"slot_table":[]}|x};
    {x|and/constant b=13 infoflow nodes=1 widened=false law_failures=0 det=true sound=true ext=[0, 0] int=[0, 0] total_mass=1 leaves=[0:1]|x};
    {x|and/constant b=40 absint cost=[0, 0] nodes=1 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[1{0,1|0,1|0,1|0,1}]|x};
    {x|and/constant b=40 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":0,"waves":0,"certified":true,"widened":false,"law_failures":0,"nodes":1,"players":4,"wave_starts":[],"slot_table":[]}|x};
    {x|and/constant b=40 infoflow nodes=1 widened=false law_failures=0 det=true sound=true ext=[0, 0] int=[0, 0] total_mass=1 leaves=[0:1]|x};
    {x|and/constant b=200 absint cost=[0, 0] nodes=1 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[1{0,1|0,1|0,1|0,1}]|x};
    {x|and/constant b=200 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":0,"waves":0,"certified":true,"widened":false,"law_failures":0,"nodes":1,"players":4,"wave_starts":[],"slot_table":[]}|x};
    {x|and/constant b=200 infoflow nodes=1 widened=false law_failures=0 det=true sound=true ext=[0, 0] int=[0, 0] total_mass=1 leaves=[0:1]|x};
    {x|and/constant b=default absint cost=[0, 0] nodes=1 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[1{0,1|0,1|0,1|0,1}]|x};
    {x|and/constant b=default depgraph {"schema":"broadcast-ic/depgraph/v1","slots":0,"waves":0,"certified":true,"widened":false,"law_failures":0,"nodes":1,"players":4,"wave_starts":[],"slot_table":[]}|x};
    {x|and/constant b=default infoflow nodes=1 widened=false law_failures=0 det=true sound=true ext=[0, 0] int=[0, 0] total_mass=1 leaves=[0:1]|x};
    {x|compress/xor-coin-sequential b=1 absint cost=[1, 4] nodes=1 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[]|x};
    {x|compress/xor-coin-sequential b=1 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":1,"players":4,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|compress/xor-coin-sequential b=1 infoflow nodes=1 widened=true law_failures=0 det=false sound=false ext=[0, 4] int=[0, 12] total_mass=0 leaves=[]|x};
    {x|compress/xor-coin-sequential b=5 absint cost=[1, 4] nodes=5 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0,1|0,1|0,1} 1{0|0,1|0,1|0,1}]|x};
    {x|compress/xor-coin-sequential b=5 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":5,"players":4,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|compress/xor-coin-sequential b=5 infoflow nodes=5 widened=true law_failures=0 det=false sound=false ext=[0, 4] int=[0, 12] total_mass=1/2 leaves=[1:1/4 1:1/4]|x};
    {x|compress/xor-coin-sequential b=13 absint cost=[1, 4] nodes=13 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0,1|0,1|0,1} 1{0|0,1|0,1|0,1} 0{1|0|0,1|0,1} 1{1|0|0,1|0,1} 0{1|1|0|0,1} 1{1|1|0|0,1}]|x};
    {x|compress/xor-coin-sequential b=13 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":4,"certified":false,"widened":true,"law_failures":0,"nodes":13,"players":4,"wave_starts":[0,1,2,3],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[],"reads":[0,1,2],"wave":3,"output_relevant":false}]}|x};
    {x|compress/xor-coin-sequential b=13 infoflow nodes=13 widened=true law_failures=0 det=false sound=false ext=[0, 4] int=[0, 12] total_mass=7/8 leaves=[3:1/16 3:1/16 2:1/8 2:1/8 1:1/4 1:1/4]|x};
    {x|compress/xor-coin-sequential b=40 absint cost=[1, 4] nodes=19 widenings=0 dead=[] det=false law_failures=0 widened=false leaves=[0{0|0,1|0,1|0,1} 1{0|0,1|0,1|0,1} 0{1|0|0,1|0,1} 1{1|0|0,1|0,1} 0{1|1|0|0,1} 1{1|1|0|0,1} 0{1|1|1|0} 1{1|1|1|0} 1{1|1|1|1} 0{1|1|1|1}]|x};
    {x|compress/xor-coin-sequential b=40 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":4,"certified":true,"widened":false,"law_failures":0,"nodes":25,"players":4,"wave_starts":[0,1,2,3],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[0,1,2],"wave":3,"output_relevant":true}]}|x};
    {x|compress/xor-coin-sequential b=40 infoflow nodes=19 widened=false law_failures=0 det=false sound=true ext=[15/8, 15/8] int=[45/8, 45/8] total_mass=1 leaves=[4:1/32 4:1/32 4:1/32 4:1/32 3:1/16 3:1/16 2:1/8 2:1/8 1:1/4 1:1/4]|x};
    {x|compress/xor-coin-sequential b=200 absint cost=[1, 4] nodes=19 widenings=0 dead=[] det=false law_failures=0 widened=false leaves=[0{0|0,1|0,1|0,1} 1{0|0,1|0,1|0,1} 0{1|0|0,1|0,1} 1{1|0|0,1|0,1} 0{1|1|0|0,1} 1{1|1|0|0,1} 0{1|1|1|0} 1{1|1|1|0} 1{1|1|1|1} 0{1|1|1|1}]|x};
    {x|compress/xor-coin-sequential b=200 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":4,"certified":true,"widened":false,"law_failures":0,"nodes":25,"players":4,"wave_starts":[0,1,2,3],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[0,1,2],"wave":3,"output_relevant":true}]}|x};
    {x|compress/xor-coin-sequential b=200 infoflow nodes=19 widened=false law_failures=0 det=false sound=true ext=[15/8, 15/8] int=[45/8, 45/8] total_mass=1 leaves=[4:1/32 4:1/32 4:1/32 4:1/32 3:1/16 3:1/16 2:1/8 2:1/8 1:1/4 1:1/4]|x};
    {x|compress/xor-coin-sequential b=default absint cost=[1, 4] nodes=19 widenings=0 dead=[] det=false law_failures=0 widened=false leaves=[0{0|0,1|0,1|0,1} 1{0|0,1|0,1|0,1} 0{1|0|0,1|0,1} 1{1|0|0,1|0,1} 0{1|1|0|0,1} 1{1|1|0|0,1} 0{1|1|1|0} 1{1|1|1|0} 1{1|1|1|1} 0{1|1|1|1}]|x};
    {x|compress/xor-coin-sequential b=default depgraph {"schema":"broadcast-ic/depgraph/v1","slots":4,"waves":4,"certified":true,"widened":false,"law_failures":0,"nodes":25,"players":4,"wave_starts":[0,1,2,3],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[3],"reads":[0,1,2],"wave":3,"output_relevant":true}]}|x};
    {x|compress/xor-coin-sequential b=default infoflow nodes=19 widened=false law_failures=0 det=false sound=true ext=[15/8, 15/8] int=[45/8, 45/8] total_mass=1 leaves=[4:1/32 4:1/32 4:1/32 4:1/32 3:1/16 3:1/16 2:1/8 2:1/8 1:1/4 1:1/4]|x};
    {x|compress/parallel-copies b=1 absint cost=[1, 6] nodes=1 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[]|x};
    {x|compress/parallel-copies b=1 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":1,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":4,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":5,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|compress/parallel-copies b=1 infoflow nodes=1 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=0 leaves=[]|x};
    {x|compress/parallel-copies b=5 absint cost=[1, 6] nodes=5 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0,1,2,3|0,1,2,3} 0{2|0,1|0,1,2,3}]|x};
    {x|compress/parallel-copies b=5 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":3,"certified":false,"widened":true,"law_failures":0,"nodes":5,"players":3,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false},{"slot":4,"speakers":[],"reads":[0],"wave":2,"output_relevant":false},{"slot":5,"speakers":[],"reads":[0],"wave":2,"output_relevant":false}]}|x};
    {x|compress/parallel-copies b=5 infoflow nodes=5 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=3/8 leaves=[3:1/8 2:1/4]|x};
    {x|compress/parallel-copies b=13 absint cost=[2, 6] nodes=13 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0,1,2,3|0,1,2,3} 0{2|0,1|0,1,2,3} 0{2|2,3|0,1} 2{2|2,3|2,3} 0{1|0,2|0,1,2,3} 0{3|0|0,1,2,3}]|x};
    {x|compress/parallel-copies b=13 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":4,"certified":false,"widened":true,"law_failures":0,"nodes":13,"players":3,"wave_starts":[0,1,2,3],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0,1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[1],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[2],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[],"reads":[0,1],"wave":3,"output_relevant":false},{"slot":5,"speakers":[],"reads":[0,1],"wave":3,"output_relevant":false}]}|x};
    {x|compress/parallel-copies b=13 infoflow nodes=13 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=11/16 leaves=[4:1/16 3:1/8 4:1/16 4:1/16 3:1/8 2:1/4]|x};
    {x|compress/parallel-copies b=40 absint cost=[2, 6] nodes=31 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1,2,3|0,1,2,3} 0{2|0,1|0,1,2,3} 0{2|2,3|0,1} 2{2|2,3|2,3} 0{1|0,2|0,1,2,3} 0{3|0|0,1,2,3} 0{3|2|0,1} 2{3|2|2,3} 0{1|1,3|0,2} 0{3|1|0,2} 0{3|3|0} 2{3|3|2} 1{1|1,3|1,3} 1{3|1|1,3} 1{3|3|1} 3{3|3|3}]|x};
    {x|compress/parallel-copies b=40 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":6,"certified":false,"widened":true,"law_failures":0,"nodes":40,"players":3,"wave_starts":[0,1,2,3,4,5],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0,1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[0,1,2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[0,1,2],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[1,2],"reads":[0,1,2,3],"wave":4,"output_relevant":true},{"slot":5,"speakers":[2],"reads":[0,1,3,4],"wave":5,"output_relevant":true}]}|x};
    {x|compress/parallel-copies b=40 infoflow nodes=31 widened=false law_failures=0 det=true sound=true ext=[7/2, 7/2] int=[7, 7] total_mass=1 leaves=[6:1/64 6:1/64 5:1/32 4:1/16 6:1/64 6:1/64 5:1/32 4:1/16 5:1/32 5:1/32 4:1/16 3:1/8 4:1/16 4:1/16 3:1/8 2:1/4]|x};
    {x|compress/parallel-copies b=200 absint cost=[2, 6] nodes=31 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1,2,3|0,1,2,3} 0{2|0,1|0,1,2,3} 0{2|2,3|0,1} 2{2|2,3|2,3} 0{1|0,2|0,1,2,3} 0{3|0|0,1,2,3} 0{3|2|0,1} 2{3|2|2,3} 0{1|1,3|0,2} 0{3|1|0,2} 0{3|3|0} 2{3|3|2} 1{1|1,3|1,3} 1{3|1|1,3} 1{3|3|1} 3{3|3|3}]|x};
    {x|compress/parallel-copies b=200 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":6,"certified":true,"widened":false,"law_failures":0,"nodes":52,"players":3,"wave_starts":[0,1,2,3,4,5],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0,1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[0,1,2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[0,1,2],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[1,2],"reads":[0,1,2,3],"wave":4,"output_relevant":true},{"slot":5,"speakers":[2],"reads":[0,1,3,4],"wave":5,"output_relevant":true}]}|x};
    {x|compress/parallel-copies b=200 infoflow nodes=31 widened=false law_failures=0 det=true sound=true ext=[7/2, 7/2] int=[7, 7] total_mass=1 leaves=[6:1/64 6:1/64 5:1/32 4:1/16 6:1/64 6:1/64 5:1/32 4:1/16 5:1/32 5:1/32 4:1/16 3:1/8 4:1/16 4:1/16 3:1/8 2:1/4]|x};
    {x|compress/parallel-copies b=default absint cost=[2, 6] nodes=31 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0,1,2,3|0,1,2,3} 0{2|0,1|0,1,2,3} 0{2|2,3|0,1} 2{2|2,3|2,3} 0{1|0,2|0,1,2,3} 0{3|0|0,1,2,3} 0{3|2|0,1} 2{3|2|2,3} 0{1|1,3|0,2} 0{3|1|0,2} 0{3|3|0} 2{3|3|2} 1{1|1,3|1,3} 1{3|1|1,3} 1{3|3|1} 3{3|3|3}]|x};
    {x|compress/parallel-copies b=default depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":6,"certified":true,"widened":false,"law_failures":0,"nodes":52,"players":3,"wave_starts":[0,1,2,3,4,5],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0,1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[0,1,2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[0,1,2],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[1,2],"reads":[0,1,2,3],"wave":4,"output_relevant":true},{"slot":5,"speakers":[2],"reads":[0,1,3,4],"wave":5,"output_relevant":true}]}|x};
    {x|compress/parallel-copies b=default infoflow nodes=31 widened=false law_failures=0 det=true sound=true ext=[7/2, 7/2] int=[7, 7] total_mass=1 leaves=[6:1/64 6:1/64 5:1/32 4:1/16 6:1/64 6:1/64 5:1/32 4:1/16 5:1/32 5:1/32 4:1/16 3:1/8 4:1/16 4:1/16 3:1/8 2:1/4]|x};
    {x|disj/trivial-tree b=1 absint cost=[2, 6] nodes=1 widenings=4 dead=[] det=false law_failures=0 widened=true leaves=[]|x};
    {x|disj/trivial-tree b=1 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":1,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|disj/trivial-tree b=1 infoflow nodes=1 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=0 leaves=[]|x};
    {x|disj/trivial-tree b=5 absint cost=[2, 6] nodes=5 widenings=8 dead=[] det=false law_failures=0 widened=true leaves=[1{0|0|0} 1{0|0|2}]|x};
    {x|disj/trivial-tree b=5 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":5,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|disj/trivial-tree b=5 infoflow nodes=5 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=1/32 leaves=[6:1/64 6:1/64]|x};
    {x|disj/trivial-tree b=13 absint cost=[2, 6] nodes=13 widenings=8 dead=[] det=false law_failures=0 widened=true leaves=[1{0|0|0} 1{0|0|2} 1{0|0|1} 1{0|0|3} 1{0|2|0} 1{0|2|2} 1{0|2|1} 1{0|2|3}]|x};
    {x|disj/trivial-tree b=13 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":13,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|disj/trivial-tree b=13 infoflow nodes=13 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=1/8 leaves=[6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64]|x};
    {x|disj/trivial-tree b=40 absint cost=[2, 6] nodes=40 widenings=5 dead=[] det=false law_failures=0 widened=true leaves=[1{0|0|0} 1{0|0|2} 1{0|0|1} 1{0|0|3} 1{0|2|0} 1{0|2|2} 1{0|2|1} 1{0|2|3} 1{0|1|0} 1{0|1|2} 1{0|1|1} 1{0|1|3} 1{0|3|0} 1{0|3|2} 1{0|3|1} 1{0|3|3} 1{2|0|0} 1{2|0|2} 1{2|0|1} 1{2|0|3} 1{2|2|0} 0{2|2|2} 1{2|2|1} 0{2|2|3} 1{2|1|0} 1{2|1|2} 1{2|1|1} 1{2|1|3} 1{2|3|0}]|x};
    {x|disj/trivial-tree b=40 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":40,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|disj/trivial-tree b=40 infoflow nodes=40 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=29/64 leaves=[6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64]|x};
    {x|disj/trivial-tree b=200 absint cost=[6, 6] nodes=85 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[1{0|0|0} 1{0|0|2} 1{0|0|1} 1{0|0|3} 1{0|2|0} 1{0|2|2} 1{0|2|1} 1{0|2|3} 1{0|1|0} 1{0|1|2} 1{0|1|1} 1{0|1|3} 1{0|3|0} 1{0|3|2} 1{0|3|1} 1{0|3|3} 1{2|0|0} 1{2|0|2} 1{2|0|1} 1{2|0|3} 1{2|2|0} 0{2|2|2} 1{2|2|1} 0{2|2|3} 1{2|1|0} 1{2|1|2} 1{2|1|1} 1{2|1|3} 1{2|3|0} 0{2|3|2} 1{2|3|1} 0{2|3|3} 1{1|0|0} 1{1|0|2} 1{1|0|1} 1{1|0|3} 1{1|2|0} 1{1|2|2} 1{1|2|1} 1{1|2|3} 1{1|1|0} 1{1|1|2} 0{1|1|1} 0{1|1|3} 1{1|3|0} 1{1|3|2} 0{1|3|1} 0{1|3|3} 1{3|0|0} 1{3|0|2} 1{3|0|1} 1{3|0|3} 1{3|2|0} 0{3|2|2} 1{3|2|1} 0{3|2|3} 1{3|1|0} 1{3|1|2} 0{3|1|1} 0{3|1|3} 1{3|3|0} 0{3|3|2} 0{3|3|1} 0{3|3|3}]|x};
    {x|disj/trivial-tree b=200 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":1,"certified":false,"widened":true,"law_failures":0,"nodes":200,"players":3,"wave_starts":[0],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[],"wave":0,"output_relevant":false},{"slot":2,"speakers":[2],"reads":[],"wave":0,"output_relevant":false}]}|x};
    {x|disj/trivial-tree b=200 infoflow nodes=85 widened=false law_failures=0 det=true sound=true ext=[6, 6] int=[12, 12] total_mass=1 leaves=[6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64]|x};
    {x|disj/trivial-tree b=default absint cost=[6, 6] nodes=85 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[1{0|0|0} 1{0|0|2} 1{0|0|1} 1{0|0|3} 1{0|2|0} 1{0|2|2} 1{0|2|1} 1{0|2|3} 1{0|1|0} 1{0|1|2} 1{0|1|1} 1{0|1|3} 1{0|3|0} 1{0|3|2} 1{0|3|1} 1{0|3|3} 1{2|0|0} 1{2|0|2} 1{2|0|1} 1{2|0|3} 1{2|2|0} 0{2|2|2} 1{2|2|1} 0{2|2|3} 1{2|1|0} 1{2|1|2} 1{2|1|1} 1{2|1|3} 1{2|3|0} 0{2|3|2} 1{2|3|1} 0{2|3|3} 1{1|0|0} 1{1|0|2} 1{1|0|1} 1{1|0|3} 1{1|2|0} 1{1|2|2} 1{1|2|1} 1{1|2|3} 1{1|1|0} 1{1|1|2} 0{1|1|1} 0{1|1|3} 1{1|3|0} 1{1|3|2} 0{1|3|1} 0{1|3|3} 1{3|0|0} 1{3|0|2} 1{3|0|1} 1{3|0|3} 1{3|2|0} 0{3|2|2} 1{3|2|1} 0{3|2|3} 1{3|1|0} 1{3|1|2} 0{3|1|1} 0{3|1|3} 1{3|3|0} 0{3|3|2} 0{3|3|1} 0{3|3|3}]|x};
    {x|disj/trivial-tree b=default depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":1,"certified":true,"widened":false,"law_failures":0,"nodes":427,"players":3,"wave_starts":[0],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[],"wave":0,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[],"wave":0,"output_relevant":true}]}|x};
    {x|disj/trivial-tree b=default infoflow nodes=85 widened=false law_failures=0 det=true sound=true ext=[6, 6] int=[12, 12] total_mass=1 leaves=[6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64]|x};
    {x|disj/naive-tree b=1 absint cost=[1, 6] nodes=1 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[]|x};
    {x|disj/naive-tree b=1 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":1,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":4,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":5,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|disj/naive-tree b=1 infoflow nodes=1 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=0 leaves=[]|x};
    {x|disj/naive-tree b=5 absint cost=[1, 6] nodes=5 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[1{0|0,1,2,3|0,1,2,3} 1{2|0,1|0,1,2,3}]|x};
    {x|disj/naive-tree b=5 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":3,"certified":false,"widened":true,"law_failures":0,"nodes":5,"players":3,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false},{"slot":3,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false},{"slot":4,"speakers":[],"reads":[0],"wave":2,"output_relevant":false},{"slot":5,"speakers":[],"reads":[0],"wave":2,"output_relevant":false}]}|x};
    {x|disj/naive-tree b=5 infoflow nodes=5 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=3/8 leaves=[3:1/8 2:1/4]|x};
    {x|disj/naive-tree b=13 absint cost=[2, 6] nodes=13 widenings=2 dead=[] det=false law_failures=0 widened=true leaves=[1{0|0,1,2,3|0,1,2,3} 1{2|0,1|0,1,2,3} 1{2|2,3|0,1} 0{2|2,3|2,3} 1{1|0,2|0,1,2,3} 1{3|0|0,1,2,3}]|x};
    {x|disj/naive-tree b=13 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":4,"certified":false,"widened":true,"law_failures":0,"nodes":13,"players":3,"wave_starts":[0,1,2,3],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0,1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[1],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[2],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[],"reads":[0,1],"wave":3,"output_relevant":false},{"slot":5,"speakers":[],"reads":[0,1],"wave":3,"output_relevant":false}]}|x};
    {x|disj/naive-tree b=13 infoflow nodes=13 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=11/16 leaves=[4:1/16 3:1/8 4:1/16 4:1/16 3:1/8 2:1/4]|x};
    {x|disj/naive-tree b=40 absint cost=[2, 6] nodes=25 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[1{0|0,1,2,3|0,1,2,3} 1{2|0,1|0,1,2,3} 1{2|2,3|0,1} 0{2|2,3|2,3} 1{1|0,2|0,1,2,3} 1{3|0|0,1,2,3} 1{3|2|0,1} 0{3|2|2,3} 1{1|1,3|0,2} 1{3|1|0,2} 1{3|3|0} 0{3|3|2} 0{1,3|1,3|1,3}]|x};
    {x|disj/naive-tree b=40 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":6,"certified":true,"widened":false,"law_failures":0,"nodes":37,"players":3,"wave_starts":[0,1,2,3,4,5],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0,1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[0,1,2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[0,1,2],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[1,2],"reads":[0,1,2,3],"wave":4,"output_relevant":true},{"slot":5,"speakers":[2],"reads":[0,1,2,3,4],"wave":5,"output_relevant":true}]}|x};
    {x|disj/naive-tree b=40 infoflow nodes=25 widened=false law_failures=0 det=true sound=true ext=[105/32, 105/32] int=[105/16, 105/16] total_mass=1 leaves=[3:1/8 6:1/64 6:1/64 5:1/32 4:1/16 5:1/32 5:1/32 4:1/16 3:1/8 4:1/16 4:1/16 3:1/8 2:1/4]|x};
    {x|disj/naive-tree b=200 absint cost=[2, 6] nodes=25 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[1{0|0,1,2,3|0,1,2,3} 1{2|0,1|0,1,2,3} 1{2|2,3|0,1} 0{2|2,3|2,3} 1{1|0,2|0,1,2,3} 1{3|0|0,1,2,3} 1{3|2|0,1} 0{3|2|2,3} 1{1|1,3|0,2} 1{3|1|0,2} 1{3|3|0} 0{3|3|2} 0{1,3|1,3|1,3}]|x};
    {x|disj/naive-tree b=200 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":6,"certified":true,"widened":false,"law_failures":0,"nodes":37,"players":3,"wave_starts":[0,1,2,3,4,5],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0,1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[0,1,2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[0,1,2],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[1,2],"reads":[0,1,2,3],"wave":4,"output_relevant":true},{"slot":5,"speakers":[2],"reads":[0,1,2,3,4],"wave":5,"output_relevant":true}]}|x};
    {x|disj/naive-tree b=200 infoflow nodes=25 widened=false law_failures=0 det=true sound=true ext=[105/32, 105/32] int=[105/16, 105/16] total_mass=1 leaves=[3:1/8 6:1/64 6:1/64 5:1/32 4:1/16 5:1/32 5:1/32 4:1/16 3:1/8 4:1/16 4:1/16 3:1/8 2:1/4]|x};
    {x|disj/naive-tree b=default absint cost=[2, 6] nodes=25 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[1{0|0,1,2,3|0,1,2,3} 1{2|0,1|0,1,2,3} 1{2|2,3|0,1} 0{2|2,3|2,3} 1{1|0,2|0,1,2,3} 1{3|0|0,1,2,3} 1{3|2|0,1} 0{3|2|2,3} 1{1|1,3|0,2} 1{3|1|0,2} 1{3|3|0} 0{3|3|2} 0{1,3|1,3|1,3}]|x};
    {x|disj/naive-tree b=default depgraph {"schema":"broadcast-ic/depgraph/v1","slots":6,"waves":6,"certified":true,"widened":false,"law_failures":0,"nodes":37,"players":3,"wave_starts":[0,1,2,3,4,5],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[0,1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[0,1,2],"reads":[0,1],"wave":2,"output_relevant":true},{"slot":3,"speakers":[0,1,2],"reads":[0,1,2],"wave":3,"output_relevant":true},{"slot":4,"speakers":[1,2],"reads":[0,1,2,3],"wave":4,"output_relevant":true},{"slot":5,"speakers":[2],"reads":[0,1,2,3,4],"wave":5,"output_relevant":true}]}|x};
    {x|disj/naive-tree b=default infoflow nodes=25 widened=false law_failures=0 det=true sound=true ext=[105/32, 105/32] int=[105/16, 105/16] total_mass=1 leaves=[3:1/8 6:1/64 6:1/64 5:1/32 4:1/16 5:1/32 5:1/32 4:1/16 3:1/8 4:1/16 4:1/16 3:1/8 2:1/4]|x};
    {x|disj/batched-tree b=1 absint cost=[2, 6] nodes=1 widenings=4 dead=[] det=false law_failures=0 widened=true leaves=[]|x};
    {x|disj/batched-tree b=1 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":1,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|disj/batched-tree b=1 infoflow nodes=1 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=0 leaves=[]|x};
    {x|disj/batched-tree b=5 absint cost=[2, 6] nodes=5 widenings=8 dead=[] det=false law_failures=0 widened=true leaves=[0{3|3|3} 0{3|3|2}]|x};
    {x|disj/batched-tree b=5 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":5,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|disj/batched-tree b=5 infoflow nodes=5 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=1/32 leaves=[6:1/64 6:1/64]|x};
    {x|disj/batched-tree b=13 absint cost=[2, 6] nodes=13 widenings=4 dead=[] det=false law_failures=0 widened=true leaves=[0{3|3|3} 0{3|3|2} 0{3|3|1} 1{3|3|0} 0{3|2|2,3} 1{3|2|0,1} 0{3|1|1,3} 1{3|1|0,2}]|x};
    {x|disj/batched-tree b=13 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":3,"certified":false,"widened":true,"law_failures":0,"nodes":13,"players":3,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[],"reads":[0,1],"wave":2,"output_relevant":false}]}|x};
    {x|disj/batched-tree b=13 infoflow nodes=13 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=3/16 leaves=[5:1/32 5:1/32 5:1/32 5:1/32 6:1/64 6:1/64 6:1/64 6:1/64]|x};
    {x|disj/batched-tree b=40 absint cost=[2, 6] nodes=25 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{3|3|3} 0{3|3|2} 0{3|3|1} 1{3|3|0} 0{3|2|2,3} 1{3|2|0,1} 0{3|1|1,3} 1{3|1|0,2} 1{3|0|0,1,2,3} 0{2|2,3|2,3} 1{2|2,3|0,1} 1{2|0,1|0,1,2,3} 0{1|1,3|1,3} 1{1|1,3|0,2} 1{1|0,2|0,1,2,3} 1{0|0,1,2,3|0,1,2,3}]|x};
    {x|disj/batched-tree b=40 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":3,"certified":false,"widened":true,"law_failures":0,"nodes":40,"players":3,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true}]}|x};
    {x|disj/batched-tree b=40 infoflow nodes=25 widened=false law_failures=0 det=true sound=true ext=[7/2, 7/2] int=[7, 7] total_mass=1 leaves=[2:1/4 3:1/8 4:1/16 4:1/16 3:1/8 4:1/16 4:1/16 4:1/16 5:1/32 5:1/32 5:1/32 5:1/32 6:1/64 6:1/64 6:1/64 6:1/64]|x};
    {x|disj/batched-tree b=200 absint cost=[2, 6] nodes=25 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{3|3|3} 0{3|3|2} 0{3|3|1} 1{3|3|0} 0{3|2|2,3} 1{3|2|0,1} 0{3|1|1,3} 1{3|1|0,2} 1{3|0|0,1,2,3} 0{2|2,3|2,3} 1{2|2,3|0,1} 1{2|0,1|0,1,2,3} 0{1|1,3|1,3} 1{1|1,3|0,2} 1{1|0,2|0,1,2,3} 1{0|0,1,2,3|0,1,2,3}]|x};
    {x|disj/batched-tree b=200 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":3,"certified":true,"widened":false,"law_failures":0,"nodes":49,"players":3,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true}]}|x};
    {x|disj/batched-tree b=200 infoflow nodes=25 widened=false law_failures=0 det=true sound=true ext=[7/2, 7/2] int=[7, 7] total_mass=1 leaves=[2:1/4 3:1/8 4:1/16 4:1/16 3:1/8 4:1/16 4:1/16 4:1/16 5:1/32 5:1/32 5:1/32 5:1/32 6:1/64 6:1/64 6:1/64 6:1/64]|x};
    {x|disj/batched-tree b=default absint cost=[2, 6] nodes=25 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{3|3|3} 0{3|3|2} 0{3|3|1} 1{3|3|0} 0{3|2|2,3} 1{3|2|0,1} 0{3|1|1,3} 1{3|1|0,2} 1{3|0|0,1,2,3} 0{2|2,3|2,3} 1{2|2,3|0,1} 1{2|0,1|0,1,2,3} 0{1|1,3|1,3} 1{1|1,3|0,2} 1{1|0,2|0,1,2,3} 1{0|0,1,2,3|0,1,2,3}]|x};
    {x|disj/batched-tree b=default depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":3,"certified":true,"widened":false,"law_failures":0,"nodes":49,"players":3,"wave_starts":[0,1,2],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[0],"wave":1,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[0,1],"wave":2,"output_relevant":true}]}|x};
    {x|disj/batched-tree b=default infoflow nodes=25 widened=false law_failures=0 det=true sound=true ext=[7/2, 7/2] int=[7, 7] total_mass=1 leaves=[2:1/4 3:1/8 4:1/16 4:1/16 3:1/8 4:1/16 4:1/16 4:1/16 5:1/32 5:1/32 5:1/32 5:1/32 6:1/64 6:1/64 6:1/64 6:1/64]|x};
    {x|or/pointwise-tree b=1 absint cost=[2, 6] nodes=1 widenings=4 dead=[] det=false law_failures=0 widened=true leaves=[]|x};
    {x|or/pointwise-tree b=1 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":1,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|or/pointwise-tree b=1 infoflow nodes=1 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=0 leaves=[]|x};
    {x|or/pointwise-tree b=5 absint cost=[2, 6] nodes=5 widenings=8 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0|0} 1{0|0|2}]|x};
    {x|or/pointwise-tree b=5 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":5,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|or/pointwise-tree b=5 infoflow nodes=5 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=1/32 leaves=[6:1/64 6:1/64]|x};
    {x|or/pointwise-tree b=13 absint cost=[2, 6] nodes=13 widenings=8 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0|0} 1{0|0|2} 2{0|0|1} 3{0|0|3} 1{0|2|0} 1{0|2|2} 3{0|2|1} 3{0|2|3}]|x};
    {x|or/pointwise-tree b=13 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":13,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|or/pointwise-tree b=13 infoflow nodes=13 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=1/8 leaves=[6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64]|x};
    {x|or/pointwise-tree b=40 absint cost=[2, 6] nodes=40 widenings=5 dead=[] det=false law_failures=0 widened=true leaves=[0{0|0|0} 1{0|0|2} 2{0|0|1} 3{0|0|3} 1{0|2|0} 1{0|2|2} 3{0|2|1} 3{0|2|3} 2{0|1|0} 3{0|1|2} 2{0|1|1} 3{0|1|3} 3{0|3|0} 3{0|3|2} 3{0|3|1} 3{0|3|3} 1{2|0|0} 1{2|0|2} 3{2|0|1} 3{2|0|3} 1{2|2|0} 1{2|2|2} 3{2|2|1} 3{2|2|3} 3{2|1|0} 3{2|1|2} 3{2|1|1} 3{2|1|3} 3{2|3|0}]|x};
    {x|or/pointwise-tree b=40 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":2,"certified":false,"widened":true,"law_failures":0,"nodes":40,"players":3,"wave_starts":[0,1],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[],"reads":[0],"wave":1,"output_relevant":false},{"slot":2,"speakers":[],"reads":[0],"wave":1,"output_relevant":false}]}|x};
    {x|or/pointwise-tree b=40 infoflow nodes=40 widened=true law_failures=0 det=false sound=false ext=[0, 6] int=[0, 12] total_mass=29/64 leaves=[6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64]|x};
    {x|or/pointwise-tree b=200 absint cost=[6, 6] nodes=85 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0|0} 1{0|0|2} 2{0|0|1} 3{0|0|3} 1{0|2|0} 1{0|2|2} 3{0|2|1} 3{0|2|3} 2{0|1|0} 3{0|1|2} 2{0|1|1} 3{0|1|3} 3{0|3|0} 3{0|3|2} 3{0|3|1} 3{0|3|3} 1{2|0|0} 1{2|0|2} 3{2|0|1} 3{2|0|3} 1{2|2|0} 1{2|2|2} 3{2|2|1} 3{2|2|3} 3{2|1|0} 3{2|1|2} 3{2|1|1} 3{2|1|3} 3{2|3|0} 3{2|3|2} 3{2|3|1} 3{2|3|3} 2{1|0|0} 3{1|0|2} 2{1|0|1} 3{1|0|3} 3{1|2|0} 3{1|2|2} 3{1|2|1} 3{1|2|3} 2{1|1|0} 3{1|1|2} 2{1|1|1} 3{1|1|3} 3{1|3|0} 3{1|3|2} 3{1|3|1} 3{1|3|3} 3{3|0|0} 3{3|0|2} 3{3|0|1} 3{3|0|3} 3{3|2|0} 3{3|2|2} 3{3|2|1} 3{3|2|3} 3{3|1|0} 3{3|1|2} 3{3|1|1} 3{3|1|3} 3{3|3|0} 3{3|3|2} 3{3|3|1} 3{3|3|3}]|x};
    {x|or/pointwise-tree b=200 depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":1,"certified":false,"widened":true,"law_failures":0,"nodes":200,"players":3,"wave_starts":[0],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[],"wave":0,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[],"wave":0,"output_relevant":true}]}|x};
    {x|or/pointwise-tree b=200 infoflow nodes=85 widened=false law_failures=0 det=true sound=true ext=[6, 6] int=[12, 12] total_mass=1 leaves=[6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64]|x};
    {x|or/pointwise-tree b=default absint cost=[6, 6] nodes=85 widenings=0 dead=[] det=true law_failures=0 widened=false leaves=[0{0|0|0} 1{0|0|2} 2{0|0|1} 3{0|0|3} 1{0|2|0} 1{0|2|2} 3{0|2|1} 3{0|2|3} 2{0|1|0} 3{0|1|2} 2{0|1|1} 3{0|1|3} 3{0|3|0} 3{0|3|2} 3{0|3|1} 3{0|3|3} 1{2|0|0} 1{2|0|2} 3{2|0|1} 3{2|0|3} 1{2|2|0} 1{2|2|2} 3{2|2|1} 3{2|2|3} 3{2|1|0} 3{2|1|2} 3{2|1|1} 3{2|1|3} 3{2|3|0} 3{2|3|2} 3{2|3|1} 3{2|3|3} 2{1|0|0} 3{1|0|2} 2{1|0|1} 3{1|0|3} 3{1|2|0} 3{1|2|2} 3{1|2|1} 3{1|2|3} 2{1|1|0} 3{1|1|2} 2{1|1|1} 3{1|1|3} 3{1|3|0} 3{1|3|2} 3{1|3|1} 3{1|3|3} 3{3|0|0} 3{3|0|2} 3{3|0|1} 3{3|0|3} 3{3|2|0} 3{3|2|2} 3{3|2|1} 3{3|2|3} 3{3|1|0} 3{3|1|2} 3{3|1|1} 3{3|1|3} 3{3|3|0} 3{3|3|2} 3{3|3|1} 3{3|3|3}]|x};
    {x|or/pointwise-tree b=default depgraph {"schema":"broadcast-ic/depgraph/v1","slots":3,"waves":1,"certified":true,"widened":false,"law_failures":0,"nodes":427,"players":3,"wave_starts":[0],"slot_table":[{"slot":0,"speakers":[0],"reads":[],"wave":0,"output_relevant":true},{"slot":1,"speakers":[1],"reads":[],"wave":0,"output_relevant":true},{"slot":2,"speakers":[2],"reads":[],"wave":0,"output_relevant":true}]}|x};
    {x|or/pointwise-tree b=default infoflow nodes=85 widened=false law_failures=0 det=true sound=true ext=[6, 6] int=[12, 12] total_mass=1 leaves=[6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64 6:1/64]|x};
  ]

let random_analyzer_expected =
  [
    ("1", "97b5d781c8e84db462343988791dfa4a");
    ("5", "77949aab6e4fad73bc367cb4f675273c");
    ("13", "4cfeb9e975fafd63111fd5641e46862d");
    ("40", "2c09b3a2ee37bbcca9b53c89ad21f804");
    ("200", "eb90557c858bd794657380f4da08fd9e");
    ("default", "538ae477ffa85690b60653cae00e2aec");
  ]

let t_analyzers_registry_pinned () =
  let got = registry_analyzer_lines () in
  Alcotest.(check int) "one expected line per case"
    (List.length analyzer_expected)
    (List.length got);
  List.iter2
    (fun expected got -> Alcotest.(check string) expected expected got)
    analyzer_expected got

let t_analyzers_random_pinned () =
  List.iter2
    (fun budget (label, expected) ->
      Alcotest.(check string)
        ("200 random trees, budget " ^ label)
        expected
        (random_analyzer_digest budget))
    analyzer_budgets random_analyzer_expected

let suite =
  [
    quick "async emulation without a certificate, all fault kinds"
      t_emu_pinned;
    quick "literal and factored compression runs" t_compress_pinned;
    quick "static analyzers over the registry at six budgets"
      t_analyzers_registry_pinned;
    quick "static analyzers on seeded random trees at six budgets"
      t_analyzers_random_pinned;
  ]
