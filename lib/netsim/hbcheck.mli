(** Dynamic happens-before checker: the runtime oracle for the
    pipelining certificate.

    [Analysis.Depgraph] claims which earlier slots each slot may read
    and which slots may share a wave; this module replays the actual
    RBC lifecycle (launches and per-player deliveries, either fed
    directly by {!Board_emu} or replayed from recorded {!Obs.Event}
    streams) and records a {e race} whenever a slot is launched while a
    slot it reads is undelivered at the launching speaker. The
    emulation computes payloads sequentially, so a race never corrupts
    a board — but it means a faithful distributed deployment could not
    have produced that payload, i.e. the certificate was wrong.
    {!check} hard-errors in that case. *)

type cert = {
  slots : int;  (** slots covered by the analysis *)
  reads : int array array;
      (** per covered slot, the earlier slots it may read *)
  waves : int array;
      (** ascending wave-start boundaries, first is 0 when [slots > 0] *)
}
(** A pipelining certificate in plain arrays (the netsim layer does not
    depend on the analysis library; see
    [Protocols.Verify_registry.sched_cert] for the conversion). Slots
    at or past [slots] are treated as reading every earlier slot. *)

val sequential_cert : slots:int -> cert
(** The trivial certificate: every slot its own wave, reading the full
    prefix. Always valid; pipelines nothing. *)

val validate_cert : cert -> (unit, string) result
(** Structural soundness: boundaries strictly ascending from 0, every
    read strictly earlier than the reader, and no read inside the
    reader's own wave. A certificate passing this check cannot race
    under between-wave barriers. *)

type race = { slot : int; speaker : int; missing : int }
(** [slot] was launched by [speaker] before [missing] (a slot it
    reads) was delivered at that speaker. *)

val race_message : race -> string

type t

val create : cert -> k:int -> t
(** A checker for [k] players: every [speaker] and [player] fed to it
    lies in [0, k), and every slot is non-negative. *)

val note_launch : t -> slot:int -> speaker:int -> unit
(** Record the initial SEND fan-out of a slot's RBC instance
    (idempotent per slot); checks the slot's read-set at this moment. *)

val note_deliver : t -> slot:int -> player:int -> unit

val observe : t -> Obs.Event.payload -> unit
(** Replay a recorded event: [Rbc_send] (first one per slot counts as
    its launch), [Rbc_deliver]; everything else is ignored. *)

val races : t -> race list
(** Races in the order they were detected. *)

val ok : t -> bool

val check : t -> unit
(** @raise Failure describing the first race, if any were recorded. *)
