(** The process-global trace: a current sink and a monotonic sequence
    counter.

    Library code calls [if Trace.enabled () then Trace.emit (...)] —
    the guard comes first so a disabled trace never even allocates the
    payload (the overhead policy of DESIGN.md section 8). {!emit}
    itself re-checks, so an unguarded emit on a null sink is still a
    no-op, just not an allocation-free one. Sequence numbers increase
    only while a sink is installed, so [seq] gaps never occur within
    one trace. *)

val sink : unit -> Sink.t

val enabled : unit -> bool
(** One load + one branch; the hot-path guard. *)

val reset : unit -> unit
(** Null sink, sequence counter back to 0. *)

val emit : Event.payload -> unit
(** Stamp with the next sequence number and send to the current sink;
    no-op (without stamping) when the null sink is installed. *)

val next_seq : unit -> int
(** Sequence number of the last emitted event (0 if none). *)

val with_span : string -> (unit -> 'a) -> 'a
(** Bracket [f] in [Span_start]/[Span_end] events (CPU-second
    duration); transparent when tracing is disabled. The end event is
    emitted even if [f] raises. *)

val with_sink : Sink.t -> (unit -> 'a) -> 'a
(** Install a sink for the extent of [f], flushing it and restoring the
    previous sink on the way out (also on exceptions). *)
