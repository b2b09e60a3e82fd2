(** The shared blackboard, emulated on a faulty asynchronous network.

    [run] has the same shape as {!Blackboard.Engine.run} — a
    board-driven [schedule] and an array of [speak]/[observe] players —
    so every engine-hosted protocol runs {e unchanged}; only the
    substrate differs. Each scheduled write becomes one Bracha
    ECHO/READY reliable-broadcast slot ({!Rbc}) over the seeded
    discrete-event network ({!Sim}): the speaker SENDs its packed
    message point-to-point to all [k] players, everyone echoes and
    readies, and the slot's delivered value is appended to the
    (canonical) delivered board that all honest players share — Bracha
    agreement with [k > 3f] is exactly what makes one shared log a
    faithful replica of every honest player's view.

    Totality contract: with no injected faults the delivered board is
    byte-identical to the board {!Blackboard.Engine.run} builds from the
    same schedule and players (same writes, same packed payloads, same
    labels), for {e any} delivery order the seed produces. The emulation
    {e cost} is everything the blackboard abstraction hides: [O(k^2)]
    point-to-point messages per write, each re-carrying the payload —
    measured exactly in {!stats} and reported by the E14 experiment.

    Determinism/replay: a run is a pure function of [(k, schedule,
    players, config)]. All randomness — delivery jitter, drop faults —
    is drawn from streams split off [config.seed]; re-running with the
    same seed replays the identical execution, message for message. *)

type config = {
  f : int;  (** fault tolerance the RBC thresholds assume; needs [k > 3f] *)
  seed : int;  (** delivery-ordering and fault randomness *)
  faults : Fault.plan;
}

type stats = {
  net_bits : int;  (** exact wire bits of all accepted messages *)
  net_messages : int;
  sends : int;  (** point-to-point SEND messages accepted *)
  echoes : int;
  readies : int;
  drops : int;  (** messages eaten by the drop fault *)
  crashed : int;  (** players dead by the end of the run *)
  waves : int;
      (** network barriers paid: quiescence waits, one per wave (one
          per slot without a certificate) — the simulated-network-depth
          measure E15 reports *)
}

type stall_reason =
  | Speaker_crashed  (** the scheduled speaker was already dead *)
  | No_quorum
      (** the network went quiescent before every live player delivered
          (crash mid-broadcast, drops, or an equivocation split) *)

type outcome =
  | Delivered of { board : Blackboard.Board.t; writes : int; stats : stats }
      (** the schedule completed: every slot delivered at every live
          player *)
  | Stalled of {
      board : Blackboard.Board.t;  (** slots delivered before the stall *)
      delivered_slots : int;
      speaker : int;  (** the stalled slot's scheduled speaker *)
      reason : stall_reason;
      stats : stats;
    }

type error =
  | Insufficient_honest of { k : int; f : int }
      (** [k <= 3f]: Bracha cannot guarantee agreement; refusing to run
          (rather than hanging or equivocating) is the contract *)
  | Engine_error of Blackboard.Engine.error
      (** schedule bugs, surfaced exactly as the sync engine types them *)

val error_message : error -> string

val run :
  k:int ->
  schedule:(Blackboard.Board.t -> int option) ->
  players:Blackboard.Engine.player array ->
  ?max_writes:int ->
  ?cert:Hbcheck.cert ->
  config:config ->
  unit ->
  (outcome, error) result
(** Drive the async runtime to completion or stall. Every point-to-point
    message is a real packed {!Coding.Bitvec.t} (2-bit phase tag, gamma
    slot number, length-prefixed payload), so [stats.net_bits] is the
    length of a real encoding, not a formula. With a trace sink
    installed, typed [Rbc_send]/[Rbc_echo]/[Rbc_ready]/[Rbc_deliver]/
    [Net_drop] events stream out per message, and metrics land under the
    ["netsim.*"] prefix — both zero-cost when disabled.

    Slots run in {e waves}: all RBC instances of a wave go in flight
    concurrently over one shared network, with a quiescence barrier
    only between waves ([stats.waves] counts them). [cert] gives the
    waves (slots past its analyzed range run as singleton waves); an
    absent [cert] means every slot is its own wave, one barrier per
    write. Payloads are computed in slot order, one [speak] per slot,
    against an uncharged scratch copy of the committed board (only
    committed writes reach the board's [Broadcast] events and
    ["board.*"] counters), so {e fault-free} runs are byte-identical to {!Blackboard.Engine.run}
    with or without a certificate; the {!Hbcheck} oracle watches the
    actual launch/deliver order and the run hard-errors ([Failure]) if
    the certificate let a slot launch before a slot it reads was
    delivered at its speaker. A crashed speaker stalls its wave at its
    slot with a typed [Stalled]; slots of the wave before it are still
    committed. Under fault injection different wave partitions may
    diverge (crash budgets and drops hit a different interleaving);
    byte-identity is only contracted fault-free. With tracing on, every
    run emits [Wave_start]/[Wave_end] around each wave and
    [Round_start]/[Round_end] around each slot's commit, after that
    wave's RBC events.
    @raise Invalid_argument if [cert] fails {!Hbcheck.validate_cert}. *)
