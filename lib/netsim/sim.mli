(** Deterministic seeded discrete-event network simulator.

    The asynchronous counterpart of the free-read blackboard: players
    exchange explicit point-to-point messages through a pending-message
    queue. Delivery order is {e adversarial but fair}: each message's
    delivery time is its (causal) send time plus one plus a seeded
    uniform jitter, ties broken by send sequence — so orderings are
    arbitrary within the jitter window, every queued message is
    eventually delivered, and the whole execution (including the drop
    fault) replays exactly from the creation seed.

    A message carries an int handle that the caller maps to its
    payload; the simulator knows nothing about RBC or faults beyond
    message drop/delay. Crash and equivocation are semantics of the
    {e senders} and live in {!Board_emu}.

    The queue is a radix heap on delivery time over int columns. A
    drained network hands its columns to the next network that sends on
    the same domain, so a warm network's queue allocates only the
    envelopes it delivers. *)

type t

type envelope = { src : int; dst : int; payload : int; bits : int }
(** [payload] is the handle given to {!send}. *)

val max_jitter_bound : int
(** [2{^30}], the largest accepted [max_jitter]. It keeps every
    delivery time below [2{^61}] for any network under [2{^31}]
    messages. *)

val create : ?drop_prob:float -> ?max_jitter:int -> seed:int -> unit -> t
(** A fresh empty network. [drop_prob] (default 0) is the independent
    per-message loss probability; [max_jitter] (default 0) bounds the
    extra delivery delay drawn per message.
    @raise Invalid_argument on [drop_prob] outside [0, 1], or
    [max_jitter] negative or above {!max_jitter_bound}. *)

val send : t -> src:int -> dst:int -> bits:int -> int -> bool
(** Enqueue a message with the given handle ([bits] is its exact wire
    length, accounted by the caller's encoder). Returns [false] when
    the drop fault eats it — the message is counted as dropped and
    never delivered. *)

val run : t -> deliver:(envelope -> unit) -> unit
(** Drain to quiescence: repeatedly pop the pending message with the
    smallest (delivery time, sequence) and hand it to [deliver], which
    may {!send} more. Terminates when the queue is empty (fairness:
    jitter is bounded, so nothing starves). The network stays usable:
    later sends are delivered by a later [run]. *)

val now : t -> int
(** Virtual time of the last delivery. *)

val sent : t -> int
(** Messages accepted into the queue (drops excluded). *)

val dropped : t -> int
val delivered : t -> int

val bits_sent : t -> int
(** Total wire bits of accepted messages. *)
