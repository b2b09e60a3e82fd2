(** The shared blackboard of the broadcast model (Section 3).

    An append-only log of bit-string writes. Every player can read the
    whole board for free; writing is charged per bit. The experiment
    harnesses read the communication cost of a run straight off the
    board, so no protocol can under-count its own communication.

    Messages are stored packed: a posted write holds the
    {!Coding.Bitvec.t} frozen out of the writer (zero-copy), never a
    boxed per-bit structure. *)

type t

type write = {
  player : int;  (** who wrote *)
  vec : Coding.Bitvec.t;  (** the payload, packed, in board order *)
  label : string;  (** free-form tag for traces ("pass", "batch", ...) *)
}

val create : k:int -> t
(** A fresh board for [k] players. *)

val scratch : t -> t
(** An uncharged working copy, made in O(k): it starts with [t]'s
    writes (the immutable write log is shared, not copied), and later
    posts to either board do not show in the other. Posts to the copy
    emit no [Broadcast] event and bump no ["board.*"] counter — it holds
    payloads computed ahead of being written for real. *)

val players : t -> int

val post : t -> player:int -> ?label:string -> Coding.Bitbuf.Writer.t -> unit
(** Append a write, freezing the writer in O(1) (it cannot be appended
    to afterwards). @raise Invalid_argument for an out-of-range
    player. *)

val post_vec : t -> player:int -> ?label:string -> Coding.Bitvec.t -> unit
(** Append an already-frozen payload. *)

val writes : t -> write list
(** All writes, oldest first. *)

val total_bits : t -> int
val write_count : t -> int
val bits_by : t -> int -> int
(** Bits contributed by one player. *)

val last_write : t -> write option

val equal : t -> t -> bool
(** Byte-identical boards: same player count and the same sequence of
    writes (speaker, packed payload, label). This is the totality
    check's notion of "the emulation delivered the same board". *)

val reader_of_write : write -> Coding.Bitbuf.Reader.t
(** Re-read a write's payload (what the other players do). Zero-copy:
    a cursor over the stored packed vector. *)

val pp : Format.formatter -> t -> unit
