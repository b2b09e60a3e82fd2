(** Golden outputs for the two round-by-round loops whose internals
    are easy to perturb without any other test noticing:

    - the asynchronous board emulation with no pipelining certificate,
      under every fault kind (crash, drop+delay, equivocation), where a
      change to the per-wave network seed split, the crash-budget
      accounting or the commit order moves the stall point, the
      message counts or the board;
    - the literal and factored Theorem-3 compression runs, where a
      change to the order in which the shared public stream is split
      (chance coins, one split per transmission) moves every bit count.

    Each case renders to one line; the expected lines are the values
    these loops produced when the lines were recorded. *)

module Emu = Netsim.Board_emu
module Fault = Netsim.Fault
module Reg = Protocols.Registry
module B = Blackboard.Board
module Am = Compress.Amortized
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

let render_emu ~pipelined name plan net_seed =
  let (Reg.Entry r as e) = Option.get (Reg.find name) in
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
  Printf.sprintf "%s%s %s net=%d: %s" name
    (if pipelined then " pipelined" else "")
    (if plan = "" then "none" else plan)
    net_seed outcome

(* Every fault kind on four entries, three network seeds each, without
   a certificate; then the same plans once more under each entry's
   certificate. *)
let emu_cases =
  let entries =
    [ "and/sequential"; "and/broadcast-all"; "and/truncated";
      "disj/trivial-tree" ]
  and plans = [ ""; "crash:2@9"; "drop:0.05,delay:8"; "equiv:0" ] in
  let grid ~pipelined nets =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun plan -> List.map (fun net -> (pipelined, name, plan, net)) nets)
          plans)
      entries
  in
  grid ~pipelined:false [ 1; 17; 4242 ] @ grid ~pipelined:true [ 17 ]

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
  ]

let t_emu_pinned () =
  Alcotest.(check int) "one expected line per case" (List.length emu_cases)
    (List.length emu_expected);
  List.iter2
    (fun (pipelined, name, plan, net) expected ->
      Alcotest.(check string) expected expected
        (render_emu ~pipelined name plan net))
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

let suite =
  [
    quick "async emulation without a certificate, all fault kinds"
      t_emu_pinned;
    quick "literal and factored compression runs" t_compress_pinned;
  ]
