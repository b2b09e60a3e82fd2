(** Bracha '87 reliable broadcast, one slot, one player's state machine.

    The blackboard's "write one message all k players see" becomes, on a
    faulty message-passing network, one ECHO/READY instance per board
    slot (Bracha, "Asynchronous Byzantine agreement protocols", 1987 —
    the same machine as the SNIPPETS.md exemplars):

    - the slot's speaker SENDs its payload to everyone;
    - on the speaker's first SEND, a player ECHOs the payload to
      everyone (a SEND from any other player is dropped);
    - on [echo_threshold n f] = ⌈(n+f+1)/2⌉ ECHOs of one value, or on
      [f+1] READYs of one value (amplification), a player sends READY
      for that value (once);
    - on [2f+1] READYs of one value, it {e delivers} that value.

    With [n > 3f] this guarantees: if the speaker is honest every
    correct player delivers its payload, and no two correct players ever
    deliver different values — even under equivocation, which is what
    makes a per-slot delivered log a faithful blackboard.

    The machine is pure message-in/actions-out: no network, no clock.
    Duplicate and conflicting messages from one sender count once (the
    first wins), so Byzantine double-voting is inert. *)

type phase = Send | Echo | Ready

val phase_to_string : phase -> string

(** What the host must do after feeding a message in. *)
type action =
  | Broadcast of phase * Coding.Bitvec.t  (** send to every player *)
  | Deliver of Coding.Bitvec.t  (** this player delivers the slot value *)

type t

val create : n:int -> f:int -> speaker:int -> unit -> t
(** A fresh per-slot machine for one player among [n] with fault
    tolerance [f], in the slot whose payload [speaker] broadcasts: only
    [speaker]'s SEND is echoed, so a Byzantine player cannot get an
    honest speaker's slot to deliver a value the speaker never sent.
    @raise Invalid_argument unless [n > 3f >= 0] and
    [0 <= speaker < n]. *)

val handle : t -> from:int -> phase -> Coding.Bitvec.t -> action list
(** Feed one received message; returns the follow-up actions in order
    (a READY amplification always precedes the Deliver it enables).
    @raise Invalid_argument on an out-of-range sender. *)

val delivered : t -> Coding.Bitvec.t option

val echo_threshold : n:int -> f:int -> int
(** ⌈(n+f+1)/2⌉ — ECHOs of one value needed to turn READY. *)

val ready_amplify : f:int -> int
(** [f+1] — READYs of one value that force READY even without the echo
    quorum. *)

val deliver_threshold : f:int -> int
(** [2f+1] — READYs of one value needed to deliver. *)
