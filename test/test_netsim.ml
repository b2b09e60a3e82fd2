(** Tests for the asynchronous faulty-broadcast runtime: the seeded
    discrete-event simulator, the Bracha RBC state machine, the fault
    plans, and — the totality contract — the differential check that
    the fault-free board emulation is byte-identical to the synchronous
    engine for every registry protocol under arbitrary delivery
    orders. *)

module Sim = Netsim.Sim
module Rbc = Netsim.Rbc
module Fault = Netsim.Fault
module Emu = Netsim.Board_emu
module Reg = Protocols.Registry
module B = Blackboard.Board
open Test_util

let vec_of_string = Coding.Bitvec.of_string

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)
(* ------------------------------------------------------------------ *)

(* Flood the network, record the delivery order, and replay. *)
let delivery_order ~seed ~jitter n =
  let sim = Sim.create ~max_jitter:jitter ~seed () in
  for i = 0 to n - 1 do
    ignore (Sim.send sim ~src:0 ~dst:1 ~bits:8 i)
  done;
  let order = ref [] in
  Sim.run sim ~deliver:(fun env -> order := env.Sim.payload :: !order);
  List.rev !order

let t_sim_replays_from_seed () =
  let a = delivery_order ~seed:42 ~jitter:16 64 in
  let b = delivery_order ~seed:42 ~jitter:16 64 in
  Alcotest.(check (list int)) "same seed, same order" a b;
  let c = delivery_order ~seed:43 ~jitter:16 64 in
  Alcotest.(check bool) "jitter actually reorders" true
    (a <> c || a <> List.init 64 Fun.id)

let t_sim_delivers_everything () =
  let sim = Sim.create ~max_jitter:9 ~seed:7 () in
  let n = 100 in
  for i = 0 to n - 1 do
    ignore (Sim.send sim ~src:(i mod 3) ~dst:((i + 1) mod 3) ~bits:i i)
  done;
  let seen = Array.make n false in
  Sim.run sim ~deliver:(fun env -> seen.(env.Sim.payload) <- true);
  Alcotest.(check bool) "every message delivered" true
    (Array.for_all Fun.id seen);
  Alcotest.(check int) "sent" n (Sim.sent sim);
  Alcotest.(check int) "delivered" n (Sim.delivered sim);
  Alcotest.(check int) "dropped" 0 (Sim.dropped sim)

let t_sim_drop_everything () =
  let sim = Sim.create ~drop_prob:1.0 ~seed:1 () in
  for i = 0 to 9 do
    Alcotest.(check bool) "send reports the drop" false
      (Sim.send sim ~src:0 ~dst:1 ~bits:4 i)
  done;
  let delivered = ref 0 in
  Sim.run sim ~deliver:(fun _ -> incr delivered);
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  Alcotest.(check int) "all dropped" 10 (Sim.dropped sim)

let t_sim_causal_sends () =
  (* A delivery handler may send; those messages are delivered too. *)
  let sim = Sim.create ~seed:3 () in
  ignore (Sim.send sim ~src:0 ~dst:1 ~bits:1 0);
  let hops = ref 0 in
  Sim.run sim ~deliver:(fun env ->
      incr hops;
      if env.Sim.payload < 4 then
        ignore
          (Sim.send sim ~src:env.Sim.dst ~dst:env.Sim.src ~bits:1
             (env.Sim.payload + 1)));
  Alcotest.(check int) "ping-pong chain ran to quiescence" 5 !hops

(* Differential oracle for the queue: a plain list of pending messages
   that pops the least (time, seq), drawing [bernoulli] and then [int]
   from the seed in [Sim.send]'s order. *)
module Ref_sim = struct
  type t = {
    rng : Prob.Rng.t;
    drop_prob : float;
    max_jitter : int;
    mutable pending : (int * int * Sim.envelope) list;
    mutable next_seq : int;
    mutable now : int;
    mutable sent : int;
    mutable dropped : int;
    mutable delivered : int;
    mutable bits_sent : int;
  }

  let create ?(drop_prob = 0.) ?(max_jitter = 0) ~seed () =
    { rng = Prob.Rng.of_int_seed seed; drop_prob; max_jitter; pending = [];
      next_seq = 0; now = 0; sent = 0; dropped = 0; delivered = 0;
      bits_sent = 0 }

  let send t ~src ~dst ~bits payload =
    if t.drop_prob > 0. && Prob.Rng.bernoulli t.rng t.drop_prob then begin
      t.dropped <- t.dropped + 1;
      false
    end
    else begin
      let jitter =
        if t.max_jitter = 0 then 0 else Prob.Rng.int t.rng (t.max_jitter + 1)
      in
      t.pending <-
        (t.now + 1 + jitter, t.next_seq, { Sim.src; dst; payload; bits })
        :: t.pending;
      t.next_seq <- t.next_seq + 1;
      t.sent <- t.sent + 1;
      t.bits_sent <- t.bits_sent + bits;
      true
    end

  let rec run t ~deliver =
    match t.pending with
    | [] -> ()
    | first :: _ ->
        let time, seq, env =
          List.fold_left
            (fun ((ta, sa, _) as a) ((tb, sb, _) as b) ->
              if tb < ta || (tb = ta && sb < sa) then b else a)
            first t.pending
        in
        t.pending <- List.filter (fun (_, s, _) -> s <> seq) t.pending;
        t.now <- time;
        t.delivered <- t.delivered + 1;
        deliver env;
        run t ~deliver

  let now t = t.now
  let sent t = t.sent
  let dropped t = t.dropped
  let delivered t = t.delivered
  let bits_sent t = t.bits_sent
end

module type NET = sig
  type t

  val create : ?drop_prob:float -> ?max_jitter:int -> seed:int -> unit -> t
  val send : t -> src:int -> dst:int -> bits:int -> int -> bool
  val run : t -> deliver:(Sim.envelope -> unit) -> unit
  val now : t -> int
  val sent : t -> int
  val dropped : t -> int
  val delivered : t -> int
  val bits_sent : t -> int
end

type net_program = {
  seed : int;
  drop_prob : float;
  max_jitter : int;
  first : (int * int) list;  (* (src, dst) sends before any run *)
  fanout : int array;  (* sends a delivery makes, by its handle *)
  second : (int * int) list;  (* sends after both networks drained *)
}

let show_program p =
  let pairs l =
    String.concat ";" (List.map (fun (s, d) -> Printf.sprintf "%d>%d" s d) l)
  in
  Printf.sprintf "seed=%d drop=%g jitter=%d first=[%s] fanout=[%s] second=[%s]"
    p.seed p.drop_prob p.max_jitter (pairs p.first)
    (String.concat ";" (Array.to_list (Array.map string_of_int p.fanout)))
    (pairs p.second)

let program_gen =
  QCheck.Gen.(
    let pair = pair (int_bound 6) (int_bound 6) in
    let* seed = int_bound 100_000 in
    let* drop_prob = oneofl [ 0.; 0.05; 0.5; 1. ] in
    let* max_jitter =
      frequency [ (6, int_range 0 64); (1, return Sim.max_jitter_bound) ]
    in
    let* first = list_size (int_range 0 40) pair in
    let* fanout = array_size (int_range 1 8) (int_bound 3) in
    let* second = list_size (int_range 0 20) pair in
    return { seed; drop_prob; max_jitter; first; fanout; second })

type net_event = Sent of char * int * bool | Got of char * Sim.envelope * int

(* Two networks alive at once: the first batch alternates between them,
   a delivery may send into its own network or (every third send) into
   the other one, even after that one drained; both drain, take a
   second batch and drain again. Returns every send outcome and every
   delivery with its time, in order, and both networks' counters. *)
let exec_program (module N : NET) p =
  let make seed =
    N.create ~drop_prob:p.drop_prob ~max_jitter:p.max_jitter ~seed ()
  in
  let a = make p.seed and b = make (p.seed + 1) in
  let log = ref [] and next = ref 0 in
  let send net tag (src, dst) =
    let h = !next in
    incr next;
    log := Sent (tag, h, N.send net ~src ~dst ~bits:(h mod 13) h) :: !log
  in
  let deliver net tag other other_tag env =
    log := Got (tag, env, N.now net) :: !log;
    for j = 1 to p.fanout.(env.Sim.payload mod Array.length p.fanout) do
      if !next < 400 then
        if j = 3 then send other other_tag (env.Sim.dst, env.Sim.src)
        else send net tag (env.Sim.dst, (env.Sim.src + j) mod 7)
    done
  in
  let batch = List.iteri (fun i s -> if i mod 2 = 0 then send a 'a' s else send b 'b' s) in
  let run_a () = N.run a ~deliver:(deliver a 'a' b 'b') in
  let run_b () = N.run b ~deliver:(deliver b 'b' a 'a') in
  batch p.first;
  run_a ();
  run_b ();
  batch p.second;
  run_a ();
  run_b ();
  run_a ();
  let counters n = (N.sent n, N.dropped n, N.delivered n, N.bits_sent n, N.now n) in
  (List.rev !log, counters a, counters b)

let t_sim_matches_reference =
  qtest ~count:150 "sim: radix heap = list reference, on one domain and two"
    (QCheck.make ~print:show_program program_gen)
    (fun p ->
      let want = exec_program (module Ref_sim) p in
      exec_program (module Sim) p = want
      && List.for_all (( = ) want)
           (Par.parallel_map ~domains:2 (exec_program (module Sim)) [ p; p ]))

(* ------------------------------------------------------------------ *)
(* Rbc                                                                 *)
(* ------------------------------------------------------------------ *)

let t_rbc_thresholds () =
  Alcotest.(check int) "echo n=4 f=1" 3 (Rbc.echo_threshold ~n:4 ~f:1);
  Alcotest.(check int) "echo n=7 f=2" 5 (Rbc.echo_threshold ~n:7 ~f:2);
  Alcotest.(check int) "amplify f=2" 3 (Rbc.ready_amplify ~f:2);
  Alcotest.(check int) "deliver f=1" 3 (Rbc.deliver_threshold ~f:1);
  Alcotest.check_raises "n <= 3f refused"
    (Invalid_argument "Rbc.create: need n > 3f") (fun () ->
      ignore (Rbc.create ~n:3 ~f:1 ~speaker:0 ()));
  Alcotest.check_raises "speaker outside the players refused"
    (Invalid_argument "Rbc.create: bad speaker") (fun () ->
      ignore (Rbc.create ~n:4 ~f:1 ~speaker:4 ()))

let t_rbc_happy_path () =
  (* One player's machine in an n=4, f=1 instance, fed by hand. *)
  let m = Rbc.create ~n:4 ~f:1 ~speaker:0 () in
  let v = vec_of_string "1011" in
  (match Rbc.handle m ~from:0 Rbc.Send v with
  | [ Rbc.Broadcast (Rbc.Echo, v') ] ->
      Alcotest.(check bool) "echoes the payload" true (Coding.Bitvec.equal v v')
  | _ -> Alcotest.fail "SEND must trigger exactly one ECHO");
  (* Echo quorum is 3: two more echoes after our own... we never fed our
     own echo back, so feed three distinct echoers. *)
  Alcotest.(check (list bool)) "echo 1 of 3: silent" []
    (List.map (fun _ -> true) (Rbc.handle m ~from:1 Rbc.Echo v));
  Alcotest.(check (list bool)) "echo 2 of 3: silent" []
    (List.map (fun _ -> true) (Rbc.handle m ~from:2 Rbc.Echo v));
  (match Rbc.handle m ~from:3 Rbc.Echo v with
  | [ Rbc.Broadcast (Rbc.Ready, _) ] -> ()
  | _ -> Alcotest.fail "echo quorum must trigger READY");
  Alcotest.(check bool) "not delivered yet" true (Rbc.delivered m = None);
  ignore (Rbc.handle m ~from:1 Rbc.Ready v);
  ignore (Rbc.handle m ~from:2 Rbc.Ready v);
  (match Rbc.handle m ~from:3 Rbc.Ready v with
  | [ Rbc.Deliver v' ] ->
      Alcotest.(check bool) "delivers the value" true (Coding.Bitvec.equal v v')
  | _ -> Alcotest.fail "2f+1 READYs must deliver");
  match Rbc.delivered m with
  | Some v' -> Alcotest.(check bool) "sticky" true (Coding.Bitvec.equal v v')
  | None -> Alcotest.fail "delivered lost"

let t_rbc_dedup_and_equivocation () =
  let m = Rbc.create ~n:4 ~f:1 ~speaker:0 () in
  let a = vec_of_string "0000" and b = vec_of_string "1111" in
  ignore (Rbc.handle m ~from:0 Rbc.Send a);
  (* The same sender echoing twice counts once; a conflicting later
     vote from the same sender is inert. *)
  ignore (Rbc.handle m ~from:1 Rbc.Echo a);
  Alcotest.(check (list bool)) "duplicate echo ignored" []
    (List.map (fun _ -> true) (Rbc.handle m ~from:1 Rbc.Echo a));
  Alcotest.(check (list bool)) "conflicting echo from same sender inert" []
    (List.map (fun _ -> true) (Rbc.handle m ~from:1 Rbc.Echo b));
  (* Split echoes 2/2 between two values: neither reaches quorum 3. *)
  ignore (Rbc.handle m ~from:2 Rbc.Echo b);
  ignore (Rbc.handle m ~from:3 Rbc.Echo b);
  Alcotest.(check bool) "no delivery under a split" true
    (Rbc.delivered m = None)

let t_rbc_ready_amplification () =
  (* f+1 READYs force READY even with no echo quorum at all. *)
  let m = Rbc.create ~n:4 ~f:1 ~speaker:0 () in
  let v = vec_of_string "10" in
  ignore (Rbc.handle m ~from:1 Rbc.Ready v);
  match Rbc.handle m ~from:2 Rbc.Ready v with
  | [ Rbc.Broadcast (Rbc.Ready, _); Rbc.Deliver _ ] ->
      (* 2 readies = f+1 amplification; with ours that's 2f+1 → the
         amplified READY precedes the Deliver it enables. *)
      ()
  | [ Rbc.Broadcast (Rbc.Ready, _) ] -> ()
  | _ -> Alcotest.fail "f+1 READYs must amplify"

let t_rbc_forged_send () =
  (* n = 4, f = 1, honest speaker 0 broadcasting [a]. Byzantine player 3
     gets a SEND of [b] to players 1 and 2 before the speaker's SEND
     reaches them, then sends ECHO [b] and READY [b] to everyone. If the
     forged SEND were echoed, players 1, 2 and 3 would make the echo
     quorum for [b] and every honest player would deliver it. *)
  let a = vec_of_string "0" and b = vec_of_string "1" in
  let honest = [ 0; 1; 2 ] in
  let m = Array.init 3 (fun _ -> Rbc.create ~n:4 ~f:1 ~speaker:0 ()) in
  let queue = Queue.create () in
  (* A player handles its own broadcast at once and queues it for the
     other honest players, as Board_emu does. *)
  let rec act p = function
    | Rbc.Broadcast (phase, v) ->
        List.iter (act p) (Rbc.handle m.(p) ~from:p phase v);
        List.iter
          (fun q -> if q <> p then Queue.add (p, q, phase, v) queue)
          honest
    | Rbc.Deliver _ -> ()
  in
  let deliver (src, dst, phase, v) =
    List.iter (act dst) (Rbc.handle m.(dst) ~from:src phase v)
  in
  act 0 (Rbc.Broadcast (Rbc.Send, a));
  deliver (3, 1, Rbc.Send, b);
  deliver (3, 2, Rbc.Send, b);
  List.iter
    (fun q ->
      deliver (3, q, Rbc.Echo, b);
      deliver (3, q, Rbc.Ready, b))
    honest;
  while not (Queue.is_empty queue) do
    deliver (Queue.pop queue)
  done;
  List.iter
    (fun p ->
      match Rbc.delivered m.(p) with
      | Some v when Coding.Bitvec.equal v a -> ()
      | Some v ->
          Alcotest.failf "player %d delivered %s, which the speaker never sent"
            p (Coding.Bitvec.to_string v)
      | None -> Alcotest.failf "player %d delivered nothing" p)
    honest

(* Reference machine for the differential property below: votes keyed
   by the value's '0'/'1' rendering in a string-hashed table, one
   record per distinct value, one bool per sender and phase; only the
   speaker's SEND counts. *)
module Ref_rbc = struct
  type votes = {
    value : Coding.Bitvec.t;
    mutable echoes : int;
    mutable readies : int;
  }

  type t = {
    n : int;
    f : int;
    speaker : int;
    votes : (string, votes) Hashtbl.t;
    echoed_from : bool array;
    readied_from : bool array;
    mutable sent_echo : bool;
    mutable sent_ready : bool;
    mutable delivered : Coding.Bitvec.t option;
  }

  let create ~n ~f ~speaker =
    { n; f; speaker; votes = Hashtbl.create 4;
      echoed_from = Array.make n false; readied_from = Array.make n false;
      sent_echo = false; sent_ready = false; delivered = None }

  let votes_for t value =
    let key = Coding.Bitvec.to_string value in
    match Hashtbl.find_opt t.votes key with
    | Some v -> v
    | None ->
        let v = { value; echoes = 0; readies = 0 } in
        Hashtbl.add t.votes key v;
        v

  let react t v =
    let acts = ref [] in
    if
      (not t.sent_ready)
      && (v.echoes >= Rbc.echo_threshold ~n:t.n ~f:t.f
         || v.readies >= Rbc.ready_amplify ~f:t.f)
    then begin
      t.sent_ready <- true;
      acts := Rbc.Broadcast (Rbc.Ready, v.value) :: !acts
    end;
    if t.delivered = None && v.readies >= Rbc.deliver_threshold ~f:t.f then begin
      t.delivered <- Some v.value;
      acts := Rbc.Deliver v.value :: !acts
    end;
    List.rev !acts

  let handle t ~from phase value =
    match phase with
    | Rbc.Send ->
        if t.sent_echo || from <> t.speaker then []
        else begin
          t.sent_echo <- true;
          [ Rbc.Broadcast (Rbc.Echo, value) ]
        end
    | Rbc.Echo ->
        if t.echoed_from.(from) then []
        else begin
          t.echoed_from.(from) <- true;
          let v = votes_for t value in
          v.echoes <- v.echoes + 1;
          react t v
        end
    | Rbc.Ready ->
        if t.readied_from.(from) then []
        else begin
          t.readied_from.(from) <- true;
          let v = votes_for t value in
          v.readies <- v.readies + 1;
          react t v
        end
end

type rbc_case = {
  n : int;
  f : int;
  speaker : int;
  values : string array;  (* 1-3 values as '0'/'1' strings *)
  msgs : (int * Rbc.phase * int) list;  (* sender, phase, value index *)
}

let show_rbc_case c =
  Printf.sprintf "n=%d f=%d speaker=%d values=[%s] msgs=[%s]" c.n c.f
    c.speaker
    (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%S") c.values)))
    (String.concat ";"
       (List.map
          (fun (s, ph, v) -> Printf.sprintf "%d:%s:%d" s (Rbc.phase_to_string ph) v)
          c.msgs))

(* Values draw their lengths from a few sizes (0 bits included), so
   equal lengths with different bits, and equal values, are common; an
   equivocator's second value is often the first with one bit flipped,
   anywhere in it. Value 0 is the most frequent, so thresholds get
   crossed, and values 1-2 play the second value. Half the SENDs come
   from the speaker, the rest from anyone. *)
let rbc_case_gen =
  QCheck.Gen.(
    let* n = int_range 4 10 in
    let* f = int_range 0 ((n - 1) / 3) in
    let* speaker = int_bound (n - 1) in
    let* nvals = int_range 1 3 in
    let random =
      let* len = oneofl [ 0; 1; 3; 8; 9; 17 ] in
      string_size ~gen:(oneofl [ '0'; '1' ]) (return len)
    in
    let flip s =
      if s = "" then return s
      else
        let+ i = int_bound (String.length s - 1) in
        String.mapi (fun j c -> if j <> i then c else if c = '0' then '1' else '0') s
    in
    let* first = random in
    let* rest =
      list_repeat (nvals - 1) (frequency [ (1, random); (1, flip first) ])
    in
    let values = Array.of_list (first :: rest) in
    let msg =
      let* phase =
        frequency
          [ (1, return Rbc.Send); (3, return Rbc.Echo); (3, return Rbc.Ready) ]
      in
      let* from =
        if phase = Rbc.Send then
          frequency [ (1, return speaker); (1, int_bound (n - 1)) ]
        else int_bound (n - 1)
      in
      let+ v =
        map (fun i -> i mod nvals)
          (frequency [ (6, return 0); (2, return 1); (1, return 2) ])
      in
      (from, phase, v)
    in
    let* msgs = list_size (int_range 0 (6 * n)) msg in
    return { n; f; speaker; values; msgs })

(* Each message carries a fresh vector, so no lookup can lean on
   physical equality; every other one comes from a frozen writer, whose
   buffer is longer than the bits it holds. *)
let fresh_value s i =
  if i mod 2 = 0 then vec_of_string s
  else begin
    let w = Coding.Bitbuf.Writer.create () in
    String.iter (fun c -> Coding.Bitbuf.Writer.add_bit w (c = '1')) s;
    Coding.Bitbuf.Writer.freeze w
  end

let render_actions acts =
  List.map
    (function
      | Rbc.Broadcast (ph, v) ->
          Rbc.phase_to_string ph ^ ":" ^ Coding.Bitvec.to_string v
      | Rbc.Deliver v -> "deliver:" ^ Coding.Bitvec.to_string v)
    acts

let t_rbc_matches_reference =
  qtest ~count:500 "rbc: vote cells = string-keyed reference"
    (QCheck.make ~print:show_rbc_case rbc_case_gen)
    (fun c ->
      let m = Rbc.create ~n:c.n ~f:c.f ~speaker:c.speaker ()
      and r = Ref_rbc.create ~n:c.n ~f:c.f ~speaker:c.speaker in
      List.for_all
        (fun (i, (from, phase, v)) ->
          let s = c.values.(v) in
          let got = Rbc.handle m ~from phase (fresh_value s i) in
          let want = Ref_rbc.handle r ~from phase (fresh_value s (i + 1)) in
          render_actions got = render_actions want
          && Option.map Coding.Bitvec.to_string (Rbc.delivered m)
             = Option.map Coding.Bitvec.to_string r.Ref_rbc.delivered)
        (List.mapi (fun i msg -> (i, msg)) c.msgs))

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let t_fault_parse_roundtrip () =
  List.iter
    (fun s ->
      match Fault.parse s with
      | Ok p -> Alcotest.(check string) ("canonical " ^ s) s (Fault.to_string p)
      | Error e -> Alcotest.failf "parse %S: %s" s e)
    [ ""; "crash:2"; "crash:0@5"; "drop:0.25"; "delay:8"; "equiv:1";
      "crash:1,drop:0.5,delay:3,equiv:0" ];
  List.iter
    (fun s ->
      match Fault.parse s with
      | Ok _ -> Alcotest.failf "parse %S should fail" s
      | Error _ -> ())
    [ "crash"; "crash:x"; "drop:1.5"; "drop:-0.1"; "delay:-1"; "bogus:3" ]

let t_fault_duplicates_rejected () =
  List.iter
    (fun s ->
      match Fault.parse s with
      | Ok _ -> Alcotest.failf "parse %S should reject the duplicate" s
      | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: error names the duplicate (%s)" s m)
            true
            (let has needle =
               let n = String.length needle and l = String.length m in
               let rec go i = i + n <= l && (String.sub m i n = needle || go (i + 1)) in
               go 0
             in
             has "duplicate"))
    [ "crash:1,crash:1"; "equiv:2,equiv:2"; "crash:1@3,crash:1@5";
      "crash:0,drop:0.1,crash:0" ];
  (* Same player, different kinds: legal (crash an equivocator). *)
  (match Fault.parse "crash:1,equiv:1" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "crash+equiv on one player must parse: %s" m);
  (* Repeated drop/delay stay last-wins, not rejected. *)
  match Fault.parse "drop:0.1,drop:0.2,delay:3,delay:5" with
  | Ok p ->
      Alcotest.(check (float 1e-12)) "last drop wins" 0.2 (Fault.drop_prob p);
      Alcotest.(check int) "last delay wins" 5 (Fault.max_jitter p)
  | Error m -> Alcotest.failf "repeated drop/delay must stay legal: %s" m

let t_fault_roundtrip_q =
  qtest ~count:150 "random fault plans survive print/parse/print"
    QCheck.(
      quad
        (option (pair (int_range 0 9) (int_range 0 20)))
        (option (int_range 0 9))
        (option (int_range 0 100))
        (option (int_range 0 16)))
    (fun (c, e, d, j) ->
      let plan =
        (match c with
        | Some (p, s) -> [ Fault.Crash { player = p; after_sends = s } ]
        | None -> [])
        @ (match e with
          | Some p -> [ Fault.Equivocate { player = p } ]
          | None -> [])
        @ (match d with
          | Some k -> [ Fault.Drop { prob = float_of_int k /. 100. } ]
          | None -> [])
        @
        match j with
        | Some m -> [ Fault.Delay { max_jitter = m } ]
        | None -> []
      in
      let s = Fault.to_string plan in
      match Fault.parse s with
      | Ok p -> Fault.to_string p = s
      | Error m -> QCheck.Test.fail_reportf "parse %S: %s" s m)

let t_fault_budgets () =
  let plan =
    match Fault.parse "crash:1@4,equiv:2" with Ok p -> p | Error e -> failwith e
  in
  let budget = Fault.crash_budget plan ~k:4 in
  Alcotest.(check int) "healthy budget" max_int budget.(0);
  Alcotest.(check int) "crash budget" 4 budget.(1);
  let eq = Fault.equivocators plan ~k:4 in
  Alcotest.(check (list bool)) "equivocators" [ false; false; true; false ]
    (Array.to_list eq);
  Alcotest.(check bool) "out of range rejected" true
    (try
       ignore (Fault.crash_budget plan ~k:2);
       false
     with Invalid_argument _ -> true)

let t_fault_check () =
  let plan s =
    match Fault.parse s with Ok p -> p | Error e -> failwith e
  in
  Alcotest.(check (result unit string)) "in range" (Ok ())
    (Fault.check (plan "crash:3@2,drop:0.1,equiv:0") ~k:4);
  Alcotest.(check (result unit string)) "the first bad spec is named"
    (Error "equiv:7: player 7 out of range [0, 4)")
    (Fault.check (plan "drop:0.5,equiv:7,crash:9") ~k:4);
  Alcotest.(check (result unit string)) "k itself is out of range"
    (Error "crash:4: player 4 out of range [0, 4)")
    (Fault.check (plan "crash:4") ~k:4);
  Alcotest.check_raises "crash_budget raises check's message"
    (Invalid_argument "Fault: crash:9: player 9 out of range [0, 4)")
    (fun () -> ignore (Fault.crash_budget (plan "crash:9") ~k:4))

let t_fault_jitter_bound () =
  (match Fault.parse "delay:1073741824" with
  | Ok p -> Alcotest.(check int) "delay:2^30 parses" (1 lsl 30) (Fault.max_jitter p)
  | Error m -> Alcotest.failf "delay:2^30 must parse: %s" m);
  List.iter
    (fun s ->
      match Fault.parse s with
      | Ok _ -> Alcotest.failf "parse %S should fail" s
      | Error _ -> ())
    [ "delay:1073741825"; "delay:4611686018427387903" ];
  Alcotest.check_raises "Sim.create refuses a jitter above 2^30"
    (Invalid_argument "Sim.create: max_jitter above 2^30") (fun () ->
      ignore (Sim.create ~max_jitter:(Sim.max_jitter_bound + 1) ~seed:0 ()))

(* ------------------------------------------------------------------ *)
(* Board_emu: the totality contract                                    *)
(* ------------------------------------------------------------------ *)

let f_for_entry e = if Reg.players e > 3 then 1 else 0

let run_sync e ~seed =
  let h = Reg.hosted e ~seed in
  match
    Blackboard.Engine.run_result ~k:h.Reg.k ~schedule:h.Reg.schedule
      ~players:h.Reg.players ()
  with
  | Ok o -> (o.Blackboard.Engine.board, h)
  | Error err -> Alcotest.failf "sync engine: %s" (Blackboard.Engine.error_message err)

let run_async e ~seed ~net_seed ~faults ~f =
  let h = Reg.hosted e ~seed in
  (Emu.run ~k:h.Reg.k ~schedule:h.Reg.schedule ~players:h.Reg.players
     ~config:{ Emu.f; seed = net_seed; faults }
     (),
   h)

(* The headline qcheck property: for every registry entry, any input
   seed and any delivery-order seed, the fault-free emulation delivers
   a board byte-identical to the sync engine's, and the replayed output
   matches. *)
let t_faultfree_byte_identical =
  qtest ~count:60 "fault-free emulation is byte-identical to the engine"
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, net_seed) ->
      List.for_all
        (fun e ->
          let sync_board, _ = run_sync e ~seed in
          match
            run_async e ~seed ~net_seed ~faults:Fault.none ~f:(f_for_entry e)
          with
          | Ok (Emu.Delivered { board; _ }), h ->
              B.equal sync_board board
              && h.Reg.output_of board = h.Reg.output_of sync_board
          | Ok (Emu.Stalled _), _ ->
              QCheck.Test.fail_reportf "%s stalled fault-free" (Reg.name e)
          | Error err, _ ->
              QCheck.Test.fail_reportf "%s: %s" (Reg.name e)
                (Emu.error_message err))
        (Reg.all ()))

(* Delivery jitter shuffles the network hard; the delivered board must
   not notice. *)
let t_jitter_invariance =
  qtest ~count:40 "delivery order never changes the delivered board"
    QCheck.(pair (int_range 0 1000) (int_range 0 64))
    (fun (net_seed, jitter) ->
      let e = Option.get (Reg.find "and/broadcast-all") in
      let faults =
        match Fault.parse (Printf.sprintf "delay:%d" jitter) with
        | Ok p -> p
        | Error err -> failwith err
      in
      let sync_board, _ = run_sync e ~seed:5 in
      match run_async e ~seed:5 ~net_seed ~faults ~f:1 with
      | Ok (Emu.Delivered { board; _ }), _ -> B.equal sync_board board
      | _ -> false)

let t_crash_of_bystander_still_delivers () =
  (* and/truncated: only players 0..2 of k=5 speak. Crashing the silent
     player 4 leaves 4 live players — above every Bracha threshold for
     f=1 — so the run completes and matches the sync board exactly. *)
  let e = Option.get (Reg.find "and/truncated") in
  let faults = match Fault.parse "crash:4" with Ok p -> p | Error e -> failwith e in
  for seed = 0 to 9 do
    let sync_board, _ = run_sync e ~seed in
    match run_async e ~seed ~net_seed:(97 * seed) ~faults ~f:1 with
    | Ok (Emu.Delivered { board; stats; _ }), h ->
        Alcotest.(check bool) "board identical despite the crash" true
          (B.equal sync_board board);
        Alcotest.(check int) "one crashed player" 1 stats.Emu.crashed;
        Alcotest.(check bool) "output recovered" true
          (h.Reg.output_of board
          = Reg.spec_output e ~input_indices:h.Reg.input_indices)
    | Ok (Emu.Stalled _), _ -> Alcotest.failf "seed %d stalled" seed
    | Error err, _ -> Alcotest.fail (Emu.error_message err)
  done

let t_crashed_speaker_stalls () =
  let e = Option.get (Reg.find "and/sequential") in
  let faults = match Fault.parse "crash:0" with Ok p -> p | Error e -> failwith e in
  match run_async e ~seed:1 ~net_seed:1 ~faults ~f:1 with
  | Ok (Emu.Stalled { delivered_slots; speaker; reason; _ }), _ ->
      Alcotest.(check int) "stalls at slot 0" 0 delivered_slots;
      Alcotest.(check int) "on the dead speaker" 0 speaker;
      Alcotest.(check bool) "speaker-crashed reason" true
        (reason = Emu.Speaker_crashed)
  | _ -> Alcotest.fail "expected a stall"

let t_insufficient_honest_refused () =
  let e = Option.get (Reg.find "disj/naive-tree") in
  match run_async e ~seed:1 ~net_seed:1 ~faults:Fault.none ~f:1 with
  | Error (Emu.Insufficient_honest { k; f }), _ ->
      Alcotest.(check int) "k" 3 k;
      Alcotest.(check int) "f" 1 f;
      Alcotest.(check bool) "message mentions the bound" true
        (let m = Emu.error_message (Emu.Insufficient_honest { k; f }) in
         String.length m > 0)
  | _ -> Alcotest.fail "k <= 3f must be refused, typed"

let t_equivocation_preserves_agreement =
  (* A Byzantine speaker splits its SEND between two values. Whatever
     the delivery order, honest players never deliver two different
     values: the run either completes (one value won) or stalls — it
     must not raise the agreement-violation failure. *)
  qtest ~count:60 "equivocation never splits the honest players"
    QCheck.(int_range 0 5000)
    (fun net_seed ->
      let e = Option.get (Reg.find "and/broadcast-all") in
      let faults =
        match Fault.parse "equiv:0" with Ok p -> p | Error e -> failwith e
      in
      match run_async e ~seed:3 ~net_seed ~faults ~f:1 with
      | Ok _, _ -> true
      | Error err, _ -> failwith (Emu.error_message err))

let t_runaway_maps_to_typed_error () =
  let e = Option.get (Reg.find "and/sequential") in
  let h = Reg.hosted e ~seed:1 in
  (match
     Emu.run ~k:h.Reg.k ~schedule:h.Reg.schedule ~players:h.Reg.players
       ~max_writes:0
       ~config:{ Emu.f = 1; seed = 1; faults = Fault.none }
       ()
   with
  | Error (Emu.Engine_error (Blackboard.Engine.Runaway { max_writes })) ->
      Alcotest.(check int) "budget surfaced" 0 max_writes
  | _ -> Alcotest.fail "async runaway must be typed");
  let h = Reg.hosted e ~seed:1 in
  match
    Blackboard.Engine.run_result ~k:h.Reg.k ~schedule:h.Reg.schedule
      ~players:h.Reg.players ~max_writes:0 ()
  with
  | Error (Blackboard.Engine.Runaway _) -> ()
  | _ -> Alcotest.fail "sync runaway must be typed"

(* ------------------------------------------------------------------ *)
(* Pipelined mode: certificate-driven wave batching                    *)
(* ------------------------------------------------------------------ *)

(* The pipelining certificate the analysis computes for an entry, in
   the plain-array form [Emu.run] consumes. *)
let cert_for (Reg.Entry e) =
  Protocols.Verify_registry.sched_cert
    (Analysis.Depgraph.analyze ~players:e.players ~domain:e.domain
       (Lazy.force e.tree))

let run_async_pipe e ~seed ~net_seed ~faults ~f ~cert =
  let h = Reg.hosted e ~seed in
  ( Emu.run ~k:h.Reg.k ~schedule:h.Reg.schedule ~players:h.Reg.players ?cert
      ~config:{ Emu.f; seed = net_seed; faults }
      (),
    h )

(* The pipelined totality contract: for every registry entry the
   certificate-driven wave batching delivers a board byte-identical to
   the sync engine, for any input seed and delivery-order seed — and
   since [Emu.run] hard-errors on a happens-before race, success also
   means the oracle stayed silent throughout. *)
let t_pipelined_byte_identical =
  qtest ~count:40 "pipelined fault-free emulation is byte-identical too"
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, net_seed) ->
      List.for_all
        (fun e ->
          let cert = cert_for e in
          if cert = None then
            QCheck.Test.fail_reportf "%s: no certificate" (Reg.name e);
          let sync_board, _ = run_sync e ~seed in
          match
            run_async_pipe e ~seed ~net_seed ~faults:Fault.none
              ~f:(f_for_entry e) ~cert
          with
          | Ok (Emu.Delivered { board; stats; _ }), h ->
              B.equal sync_board board
              && h.Reg.output_of board = h.Reg.output_of sync_board
              && stats.Emu.waves <= B.write_count board
          | Ok (Emu.Stalled _), _ ->
              QCheck.Test.fail_reportf "%s stalled fault-free" (Reg.name e)
          | Error err, _ ->
              QCheck.Test.fail_reportf "%s: %s" (Reg.name e)
                (Emu.error_message err))
        (Reg.all ()))

let t_pipelined_fewer_barriers () =
  (* and/broadcast-all: 4 independent slots. Sequentially that is four
     network-quiescence barriers; under its certificate, one. *)
  let e = Option.get (Reg.find "and/broadcast-all") in
  let cert = cert_for e in
  (match
     run_async e ~seed:3 ~net_seed:17 ~faults:Fault.none ~f:(f_for_entry e)
   with
  | Ok (Emu.Delivered { stats; _ }), _ ->
      Alcotest.(check int) "sequential: one barrier per slot" 4
        stats.Emu.waves
  | _ -> Alcotest.fail "sequential run failed");
  match
    run_async_pipe e ~seed:3 ~net_seed:17 ~faults:Fault.none
      ~f:(f_for_entry e) ~cert
  with
  | Ok (Emu.Delivered { stats; _ }), _ ->
      Alcotest.(check int) "pipelined: one barrier total" 1 stats.Emu.waves
  | _ -> Alcotest.fail "pipelined run failed"

let t_pipelined_crash_stall_matches_sequential () =
  (* Crash a mid-wave speaker: the pipelined run must stall with the
     same typed outcome as the sequential mode — earlier slots of the
     wave committed, same delivered_slots/speaker/reason — and the two
     stalled boards must be byte-identical prefixes. *)
  let e = Option.get (Reg.find "and/broadcast-all") in
  let cert = cert_for e in
  let faults =
    match Fault.parse "crash:2" with Ok p -> p | Error m -> failwith m
  in
  let seq_board, seq_slots, seq_speaker, seq_reason =
    match run_async e ~seed:7 ~net_seed:23 ~faults ~f:1 with
    | Ok (Emu.Stalled { board; delivered_slots; speaker; reason; _ }), _ ->
        (board, delivered_slots, speaker, reason)
    | _ -> Alcotest.fail "sequential run must stall on the dead speaker"
  in
  match run_async_pipe e ~seed:7 ~net_seed:23 ~faults ~f:1 ~cert with
  | Ok (Emu.Stalled { board; delivered_slots; speaker; reason; _ }), _ ->
      Alcotest.(check int) "same delivered prefix" seq_slots delivered_slots;
      Alcotest.(check int) "slots before the crash committed" 2
        delivered_slots;
      Alcotest.(check int) "same stalled speaker" 2 speaker;
      Alcotest.(check int) "sequential agrees on the speaker" 2 seq_speaker;
      Alcotest.(check bool) "same typed reason" true
        (reason = Emu.Speaker_crashed && seq_reason = Emu.Speaker_crashed);
      Alcotest.(check bool) "same committed board" true
        (B.equal seq_board board)
  | _ -> Alcotest.fail "pipelined run must stall on the dead speaker"

let t_pipelined_invalid_cert_refused () =
  (* Correct chain read-sets squeezed into a single wave: structurally
     unsound (a read inside its reader's own wave), refused up front. *)
  let e = Option.get (Reg.find "and/sequential") in
  let bad =
    {
      Netsim.Hbcheck.slots = 3;
      reads = [| [||]; [| 0 |]; [| 0; 1 |] |];
      waves = [| 0 |];
    }
  in
  Alcotest.(check bool) "validate_cert rejects" true
    (Result.is_error (Netsim.Hbcheck.validate_cert bad));
  match
    run_async_pipe e ~seed:1 ~net_seed:1 ~faults:Fault.none ~f:0
      ~cert:(Some bad)
  with
  | exception Invalid_argument m ->
      Alcotest.(check bool) "message names the certificate" true
        (let has needle =
           let n = String.length needle and l = String.length m in
           let rec go i = i + n <= l && (String.sub m i n = needle || go (i + 1)) in
           go 0
         in
         has "certificate")
  | _ -> Alcotest.fail "an unsound certificate must be refused up front"

let t_hbcheck_observe_replay () =
  (* Record a pipelined broadcast-all run and audit the event stream
     post-hoc: under the true certificate the replay is clean; under a
     certificate claiming chain dependencies the very same stream shows
     races (all four launches precede every delivery), proving the
     recorded events carry enough ordering to re-judge a run. *)
  let e = Option.get (Reg.find "and/broadcast-all") in
  let cert = Option.get (cert_for e) in
  let events = ref [] and wave_starts = ref 0 in
  let sink =
    Obs.Sink.custom (fun ev ->
        (match ev.Obs.Event.payload with
        | Obs.Event.Wave_start _ -> incr wave_starts
        | _ -> ());
        events := ev.Obs.Event.payload :: !events)
  in
  (match
     Obs.Trace.with_sink sink (fun () ->
         run_async_pipe e ~seed:5 ~net_seed:41 ~faults:Fault.none ~f:1
           ~cert:(Some cert))
   with
  | Ok (Emu.Delivered _), _ -> ()
  | _ -> Alcotest.fail "traced pipelined run failed");
  let events = List.rev !events in
  Alcotest.(check int) "one wave traced" 1 !wave_starts;
  let replay cert =
    let hb = Netsim.Hbcheck.create cert ~k:4 in
    List.iter (Netsim.Hbcheck.observe hb) events;
    hb
  in
  Alcotest.(check bool) "true certificate: replay is clean" true
    (Netsim.Hbcheck.ok (replay cert));
  Alcotest.(check bool) "chain certificate: same stream shows races" false
    (Netsim.Hbcheck.ok (replay (Netsim.Hbcheck.sequential_cert ~slots:4)))

(* ------------------------------------------------------------------ *)
(* Obs accounting                                                      *)
(* ------------------------------------------------------------------ *)

let t_obs_event_accounting () =
  (* With a trace sink installed, the per-message events reproduce the
     run's aggregate stats exactly: summed send/echo/ready bits equal
     net_bits, drop events equal the drop count, and every live player
     delivers every slot. *)
  let e = Option.get (Reg.find "and/broadcast-all") in
  let faults =
    match Fault.parse "drop:0.15,delay:4" with Ok p -> p | Error e -> failwith e
  in
  let wire_bits = ref 0 and msgs = ref 0 and drops = ref 0 and delivers = ref 0 in
  let sink =
    Obs.Sink.custom (fun ev ->
        match ev.Obs.Event.payload with
        | Obs.Event.Rbc_send { bits; _ }
        | Obs.Event.Rbc_echo { bits; _ }
        | Obs.Event.Rbc_ready { bits; _ } ->
            incr msgs;
            wire_bits := !wire_bits + bits
        | Obs.Event.Net_drop _ -> incr drops
        | Obs.Event.Rbc_deliver _ -> incr delivers
        | _ -> ())
  in
  let result =
    Obs.Trace.with_sink sink (fun () ->
        run_async e ~seed:2 ~net_seed:11 ~faults ~f:1)
  in
  match result with
  | Ok (Emu.Delivered { board; stats; _ }), _ ->
      Alcotest.(check int) "event bits = net_bits" stats.Emu.net_bits !wire_bits;
      Alcotest.(check int) "event count = net_messages" stats.Emu.net_messages
        !msgs;
      Alcotest.(check int) "drop events = drops" stats.Emu.drops !drops;
      Alcotest.(check int) "k delivers per slot"
        (B.players board * B.write_count board)
        !delivers
  | Ok (Emu.Stalled _), _ -> Alcotest.fail "unexpected stall"
  | Error err, _ -> Alcotest.fail (Emu.error_message err)

let t_obs_board_accounting () =
  (* The "board.*" counters and the Broadcast events charge every
     delivered write exactly once, with or without a certificate:
     payloads a wave computes ahead of its commit are not board
     writes. *)
  List.iter
    (fun e ->
      List.iter
        (fun (mode, cert) ->
          let label what = Printf.sprintf "%s %s: %s" (Reg.name e) mode what in
          let metrics = Obs.Metrics.create () in
          let events = ref 0 and event_bits = ref 0 in
          let sink =
            Obs.Sink.custom (fun ev ->
                match ev.Obs.Event.payload with
                | Obs.Event.Broadcast { bits; _ } ->
                    incr events;
                    event_bits := !event_bits + bits
                | _ -> ())
          in
          Obs.Metrics.install metrics;
          let result =
            Fun.protect ~finally:Obs.Metrics.uninstall (fun () ->
                Obs.Trace.with_sink sink (fun () ->
                    run_async_pipe e ~seed:3 ~net_seed:17 ~faults:Fault.none
                      ~f:(f_for_entry e) ~cert))
          in
          match result with
          | Ok (Emu.Delivered { board; _ }), _ ->
              let snap = Obs.Metrics.snapshot metrics in
              let counter = Obs.Metrics.counter_value snap in
              Alcotest.(check int) (label "board.bits") (B.total_bits board)
                (counter "board.bits");
              Alcotest.(check int) (label "board.messages")
                (B.write_count board)
                (counter "board.messages");
              Alcotest.(check int) (label "Broadcast event bits")
                (B.total_bits board) !event_bits;
              Alcotest.(check int) (label "Broadcast events")
                (B.write_count board) !events
          | _ -> Alcotest.fail (label "the fault-free run must deliver"))
        [ ("uncertified", None); ("certified", cert_for e) ])
    (Reg.all ())

let t_obs_silent_when_disabled () =
  (* No sink, no metrics: a faulty run emits nothing and still works. *)
  let e = Option.get (Reg.find "and/sequential") in
  let faults = match Fault.parse "drop:0.1" with Ok p -> p | Error e -> failwith e in
  match run_async e ~seed:4 ~net_seed:9 ~faults ~f:1 with
  | Ok _, _ -> ()
  | Error err, _ -> Alcotest.fail (Emu.error_message err)

let suite =
  [
    quick "sim: replays exactly from its seed" t_sim_replays_from_seed;
    quick "sim: fair — every message delivered" t_sim_delivers_everything;
    quick "sim: drop_prob 1 eats everything" t_sim_drop_everything;
    quick "sim: deliveries may send (causal chains)" t_sim_causal_sends;
    t_sim_matches_reference;
    quick "rbc: thresholds" t_rbc_thresholds;
    quick "rbc: SEND -> ECHO -> READY -> deliver" t_rbc_happy_path;
    quick "rbc: dedup and split votes" t_rbc_dedup_and_equivocation;
    quick "rbc: f+1 READY amplification" t_rbc_ready_amplification;
    quick "rbc: a forged SEND is not echoed" t_rbc_forged_send;
    t_rbc_matches_reference;
    quick "fault: parse/to_string round trip" t_fault_parse_roundtrip;
    quick "fault: duplicate crash/equiv specs rejected"
      t_fault_duplicates_rejected;
    t_fault_roundtrip_q;
    quick "fault: budgets and equivocators" t_fault_budgets;
    quick "fault: check against the player count" t_fault_check;
    quick "fault: delay is bounded at 2^30" t_fault_jitter_bound;
    t_faultfree_byte_identical;
    t_jitter_invariance;
    quick "crash of a silent player still delivers"
      t_crash_of_bystander_still_delivers;
    quick "crashed speaker stalls cleanly" t_crashed_speaker_stalls;
    quick "k <= 3f is refused, typed" t_insufficient_honest_refused;
    t_equivocation_preserves_agreement;
    quick "runaway maps to a typed error on both runtimes"
      t_runaway_maps_to_typed_error;
    t_pipelined_byte_identical;
    quick "pipelined: fewer network barriers" t_pipelined_fewer_barriers;
    quick "pipelined: crash-stall matches the sequential mode"
      t_pipelined_crash_stall_matches_sequential;
    quick "pipelined: unsound certificate refused up front"
      t_pipelined_invalid_cert_refused;
    quick "hbcheck: recorded event streams replay and re-judge"
      t_hbcheck_observe_replay;
    quick "obs: per-message events reproduce the stats"
      t_obs_event_accounting;
    quick "obs: board counters charge delivered writes once"
      t_obs_board_accounting;
    quick "obs: silent when disabled" t_obs_silent_when_disabled;
  ]
