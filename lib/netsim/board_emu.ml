module Board = Blackboard.Board
module Engine = Blackboard.Engine

type config = { f : int; seed : int; faults : Fault.plan }

type stats = {
  net_bits : int;
  net_messages : int;
  sends : int;
  echoes : int;
  readies : int;
  drops : int;
  crashed : int;
  waves : int;
}

type stall_reason = Speaker_crashed | No_quorum

type outcome =
  | Delivered of { board : Board.t; writes : int; stats : stats }
  | Stalled of {
      board : Board.t;
      delivered_slots : int;
      speaker : int;
      reason : stall_reason;
      stats : stats;
    }

type error =
  | Insufficient_honest of { k : int; f : int }
  | Engine_error of Engine.error

let error_message = function
  | Insufficient_honest { k; f } ->
      Printf.sprintf
        "insufficient honest players: k = %d <= 3f = %d (Bracha reliable \
         broadcast needs k > 3f)"
        k (3 * f)
  | Engine_error e -> Engine.error_message e

(* ------------------------------------------------------------------ *)
(* Wire format: every point-to-point message is a real packed bit      *)
(* string — 2-bit phase tag, gamma0 slot number, gamma0 payload        *)
(* length, payload — so the measured overhead is the length of an      *)
(* actual self-delimiting encoding. Within a wave, each distinct       *)
(* (slot, phase, value) is encoded once, at its first fan-out; later   *)
(* fan-outs of the same value send that wire again. Each distinct wire *)
(* is decoded once, on the receive path, by its first delivery.        *)
(* ------------------------------------------------------------------ *)

let encode ~slot phase value =
  let w = Coding.Bitbuf.Writer.create () in
  let tag = match phase with Rbc.Send -> 0 | Rbc.Echo -> 1 | Rbc.Ready -> 2 in
  Coding.Bitbuf.Writer.add_bits w tag 2;
  Coding.Intcode.write_gamma0 w slot;
  Coding.Intcode.write_gamma0 w (Coding.Bitvec.length value);
  Coding.Bitbuf.Writer.add_vec w value;
  Coding.Bitbuf.Writer.freeze w

let decode wire =
  let r = Coding.Bitbuf.Reader.of_vec wire in
  let tag = Coding.Bitbuf.Reader.read_bits r 2 in
  let slot = Coding.Intcode.read_gamma0 r in
  let len = Coding.Intcode.read_gamma0 r in
  let value = Coding.Bitvec.extract wire ~pos:(Coding.Bitbuf.Reader.pos r) ~len in
  let phase =
    match tag with
    | 0 -> Rbc.Send
    | 1 -> Rbc.Echo
    | 2 -> Rbc.Ready
    | _ -> invalid_arg "Board_emu.decode: bad phase tag"
  in
  (phase, slot, value)

(* An equivocator's second personality: same length, first bit flipped
   (a 0-bit payload has a single possible value — nothing to equivocate
   about). *)
let corrupt v =
  let n = Coding.Bitvec.length v in
  if n = 0 then v
  else begin
    let w = Coding.Bitbuf.Writer.create () in
    Coding.Bitbuf.Writer.add_bit w (not (Coding.Bitvec.get v 0));
    for i = 1 to n - 1 do
      Coding.Bitbuf.Writer.add_bit w (Coding.Bitvec.get v i)
    done;
    Coding.Bitbuf.Writer.freeze w
  end

(* Why a wave's payload collection stopped. *)
type stop = Wave_full | Schedule_done | Speaker_down of int

let run ~k ~schedule ~players ?(max_writes = 1_000_000) ?cert ~config () =
  if k <= 3 * config.f then
    Error (Insufficient_honest { k; f = config.f })
  else if Array.length players <> k then
    Error
      (Engine_error
         (Engine.Size_mismatch { expected = k; got = Array.length players }))
  else begin
    (* No certificate: the empty one, under which every slot is its own
       wave. *)
    let cert = Option.value cert ~default:(Hbcheck.sequential_cert ~slots:0) in
    (match Hbcheck.validate_cert cert with
    | Ok () -> ()
    | Error m ->
        invalid_arg ("Board_emu.run: invalid pipelining certificate: " ^ m));
    let crash_budget = Fault.crash_budget config.faults ~k in
    let equivocator = Fault.equivocators config.faults ~k in
    let drop_prob = Fault.drop_prob config.faults in
    let max_jitter = Fault.max_jitter config.faults in
    let crashed = Array.make k false in
    let sends_by = Array.make k 0 in
    Array.iteri (fun p b -> if b <= 0 then crashed.(p) <- true) crash_budget;
    let board = Board.create ~k in
    (* Per-wave network seeds split deterministically off the run seed,
       so the whole execution replays from [config.seed] alone. *)
    let seed_master = Prob.Rng.of_int_seed config.seed in
    let sends = ref 0 and echoes = ref 0 and readies = ref 0 in
    let net_bits = ref 0 and drops = ref 0 in
    let waves_run = ref 0 in
    let stats () =
      {
        net_bits = !net_bits;
        net_messages = !sends + !echoes + !readies;
        sends = !sends;
        echoes = !echoes;
        readies = !readies;
        drops = !drops;
        crashed =
          Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 crashed;
        waves = !waves_run;
      }
    in
    let publish_metrics () =
      if Obs.Metrics.enabled () then begin
        let s = stats () in
        Obs.Metrics.bump "netsim.bits" s.net_bits;
        Obs.Metrics.bump "netsim.messages" s.net_messages;
        Obs.Metrics.bump "netsim.sends" s.sends;
        Obs.Metrics.bump "netsim.echoes" s.echoes;
        Obs.Metrics.bump "netsim.readies" s.readies;
        Obs.Metrics.bump "netsim.drops" s.drops;
        Obs.Metrics.bump "netsim.slots" (Board.write_count board)
      end
    in
    let stalled ~slot ~speaker reason =
      publish_metrics ();
      Ok
        (Stalled
           { board; delivered_slots = slot; speaker; reason; stats = stats () })
    in
    let hb = Hbcheck.create cert ~k in
    (* End of the wave starting at [w]: the next boundary, the end of
       the analyzed range, or a singleton past it. *)
    let wave_end w =
      if w >= cert.Hbcheck.slots then w + 1
      else
        Array.fold_left
          (fun e b -> if b > w && b < e then b else e)
          cert.Hbcheck.slots cert.Hbcheck.waves
    in
    (* Speculative payloads for the slots [wstart, wend), computed in
       slot order on an uncharged scratch copy of the committed board:
       each slot's [speak] runs exactly once, against the board the sync
       engine would show it if the wave's earlier slots deliver their
       payloads — so hosted schedules sample identically and fault-free
       runs stay byte-identical to {!Engine.run}. Returns the wave's
       (speaker, payload) launches, slot [wstart] first, and why
       scheduling stopped. *)
    let collect wstart wend =
      let scratch = Board.scratch board in
      let rec go t acc =
        let stop why = Ok (Array.of_list (List.rev acc), why) in
        if t >= wend then stop Wave_full
        else
          match schedule scratch with
          | None -> stop Schedule_done
          | Some i when i < 0 || i >= k ->
              Error
                (Engine_error (Engine.Bad_speaker { index = i; k; at_write = t }))
          | Some _ when t >= max_writes ->
              Error (Engine_error (Engine.Runaway { max_writes }))
          | Some i when crashed.(i) -> stop (Speaker_down i)
          | Some i ->
              let payload =
                Coding.Bitbuf.Writer.freeze (players.(i).Engine.speak scratch)
              in
              Board.post_vec scratch ~player:i payload;
              go (t + 1) ((i, payload) :: acc)
      in
      go wstart []
    in
    (* One Bracha instance per slot of the wave, all in flight over one
       shared network and run to quiescence — the barrier that makes "a
       later wave may depend on this one" well defined on an
       asynchronous substrate. Returns the per-slot, per-player RBC
       machines. *)
    let run_wave wstart launches =
      let sim =
        Sim.create ~drop_prob ~max_jitter
          ~seed:(Prob.Rng.bits62 (Prob.Rng.split seed_master))
          ()
      in
      let machines =
        Array.map
          (fun (speaker, _) ->
            Array.init k (fun _ -> Rbc.create ~n:k ~f:config.f ~speaker ()))
          launches
      in
      (* The wave's distinct wires. Each slot and phase keeps its values
         as (value, (wire, handle)) in a short list scanned with
         [Bitvec.equal], as [Rbc]'s vote cells are: an honest slot
         carries one value and an equivocating speaker two. A value is
         encoded and given a handle at its first fan-out; a message
         carries the handle, and [decoded] decodes each wire when it is
         first delivered. *)
      let wires = Array.make (3 * Array.length launches) [] in
      let decoded = ref [||] and n_wires = ref 0 in
      let rec wire_in ~cell ~slot phase v = function
        | (v', hit) :: rest ->
            if Coding.Bitvec.equal v v' then hit
            else wire_in ~cell ~slot phase v rest
        | [] ->
            let wire = encode ~slot phase v and h = !n_wires in
            let d = lazy (decode wire) in
            if h = Array.length !decoded then begin
              let grown = Array.make (max 16 (2 * h)) d in
              Array.blit !decoded 0 grown 0 h;
              decoded := grown
            end;
            !decoded.(h) <- d;
            n_wires := h + 1;
            let hit = (wire, h) in
            wires.(cell) <- (v, hit) :: wires.(cell);
            hit
      in
      let wire_of ~slot phase v =
        let cell =
          (3 * (slot - wstart))
          + match phase with Rbc.Send -> 0 | Rbc.Echo -> 1 | Rbc.Ready -> 2
        in
        wire_in ~cell ~slot phase v wires.(cell)
      in
      let traced = Obs.Trace.enabled () in
      (* Direct recursion: [List.iter] would take a closure over [slot]
         and [p], allocated on every delivery. *)
      let rec do_actions ~slot p = function
        | [] -> ()
        | Rbc.Deliver v :: rest ->
            Hbcheck.note_deliver hb ~slot ~player:p;
            if traced then
              Obs.Trace.emit
                (Obs.Event.Rbc_deliver
                   { slot; player = p; bits = Coding.Bitvec.length v });
            do_actions ~slot p rest
        | Rbc.Broadcast (phase, v) :: rest ->
            broadcast_from ~slot p phase v;
            do_actions ~slot p rest
      and broadcast_from ~slot p phase v =
        if not crashed.(p) then begin
          (* A player processes its own message locally, free of charge
             (loopback); only cross-player traffic hits the wire. *)
          do_actions ~slot p
            (Rbc.handle machines.(slot - wstart).(p) ~from:p phase v);
          let even = wire_of ~slot phase v in
          (* An equivocator's odd-indexed peers get a second wire. *)
          let odd =
            if phase = Rbc.Send && equivocator.(p) then
              wire_of ~slot phase (corrupt v)
            else even
          in
          let dst = ref 0 in
          while !dst < k && not crashed.(p) do
            if !dst <> p then begin
              if sends_by.(p) >= crash_budget.(p) then crashed.(p) <- true
              else begin
                sends_by.(p) <- sends_by.(p) + 1;
                let wire, h = if !dst mod 2 = 1 then odd else even in
                let bits = Coding.Bitvec.length wire in
                if Sim.send sim ~src:p ~dst:!dst ~bits h then begin
                  net_bits := !net_bits + bits;
                  incr
                    (match phase with
                    | Rbc.Send -> sends
                    | Rbc.Echo -> echoes
                    | Rbc.Ready -> readies);
                  if traced then
                    let src = p and dst = !dst in
                    Obs.Trace.emit
                      (match phase with
                      | Rbc.Send -> Obs.Event.Rbc_send { slot; src; dst; bits }
                      | Rbc.Echo -> Obs.Event.Rbc_echo { slot; src; dst; bits }
                      | Rbc.Ready -> Obs.Event.Rbc_ready { slot; src; dst; bits })
                end
                else begin
                  incr drops;
                  if traced then
                    Obs.Trace.emit
                      (Obs.Event.Net_drop { slot; src = p; dst = !dst })
                end
              end
            end;
            incr dst
          done
        end
      in
      Array.iteri
        (fun i (speaker, payload) ->
          let slot = wstart + i in
          Hbcheck.note_launch hb ~slot ~speaker;
          broadcast_from ~slot speaker Rbc.Send payload)
        launches;
      Sim.run sim ~deliver:(fun env ->
          let dst = env.Sim.dst in
          if not crashed.(dst) then begin
            let phase, slot, value = Lazy.force !decoded.(env.Sim.payload) in
            let i = slot - wstart in
            if i >= 0 && i < Array.length launches then
              do_actions ~slot dst
                (Rbc.handle machines.(i).(dst) ~from:env.Sim.src phase value)
          end);
      machines
    in
    (* Slot verdict: every live player must have delivered, and — the
       Bracha agreement property, enforced rather than assumed — all
       delivered values must coincide. *)
    let verdict ~slot machines =
      let value = ref None in
      let complete = ref true in
      for p = 0 to k - 1 do
        if not crashed.(p) then
          match (Rbc.delivered machines.(p), !value) with
          | None, _ -> complete := false
          | Some v, None -> value := Some v
          | Some v, Some v0 ->
              if not (Coding.Bitvec.equal v v0) then
                failwith
                  (Printf.sprintf
                     "Board_emu: agreement violation in slot %d (n > 3f \
                      should make this unreachable)"
                     slot)
      done;
      if !complete then !value else None
    in
    let traced = Obs.Trace.enabled () in
    let rec waves_loop wstart =
      match collect wstart (wave_end wstart) with
      | Error e -> Error e
      (* An empty wave stopped on the schedule, never on its length. *)
      | Ok ([||], Speaker_down i) ->
          stalled ~slot:wstart ~speaker:i Speaker_crashed
      | Ok ([||], (Schedule_done | Wave_full)) ->
          publish_metrics ();
          Ok (Delivered { board; writes = wstart; stats = stats () })
      | Ok (launches, _) ->
          let n = Array.length launches in
          let wave_ix = !waves_run in
          incr waves_run;
          if traced then
            Obs.Trace.emit
              (Obs.Event.Wave_start
                 { wave = wave_ix; first_slot = wstart; slots = n });
          let machines = run_wave wstart launches in
          (* Commit delivered slots in order; the first incomplete slot
             stalls the run there (later deliveries are dropped so the
             committed board stays a prefix of the sync board). *)
          let rec commit i =
            if i = n then n
            else
              let slot = wstart + i and speaker, _ = launches.(i) in
              match verdict ~slot machines.(i) with
              | None -> i
              | Some value ->
                  if traced then
                    Obs.Trace.emit (Obs.Event.Round_start { round = slot });
                  Board.post_vec board ~player:speaker value;
                  if traced then
                    Obs.Trace.emit
                      (Obs.Event.Round_end
                         { round = slot; bits = Coding.Bitvec.length value });
                  Array.iteri
                    (fun p pl -> if not crashed.(p) then pl.Engine.observe board)
                    players;
                  commit (i + 1)
          in
          let committed = commit 0 in
          if traced then
            Obs.Trace.emit
              (Obs.Event.Wave_end
                 { wave = wave_ix; first_slot = wstart;
                   delivered = committed });
          (* The oracle's verdict on this wave: a race here means the
             certificate allowed a slot in flight before its reads
             were delivered — a bug worth a hard stop, not a result. *)
          Hbcheck.check hb;
          if committed < n then
            stalled ~slot:(wstart + committed)
              ~speaker:(fst launches.(committed))
              No_quorum
          else waves_loop (wstart + n)
    in
    Obs.Trace.with_span "netsim.run" (fun () -> waves_loop 0)
  end
