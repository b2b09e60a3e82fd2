(** Protocol trees: the formal semantics of broadcast (shared-blackboard)
    protocols from Section 3 of the paper.

    A protocol over per-player inputs of type ['a] is a tree. At each
    internal node the contents of the board so far (the path from the
    root) determine whose turn it is to speak; that player emits a
    message symbol from a distribution determined by its own input
    (private randomness is folded into that distribution), and the
    protocol continues in the corresponding child. [Chance] nodes model
    {e public} randomness: a publicly visible coin that costs no
    communication and depends on no input. Leaves carry the output.

    All probabilities are exact rationals ({!Prob.Dist_exact}), so
    transcript probabilities, error probabilities and the Lemma-3
    [q]-decomposition are exact; information quantities take float
    logarithms only at the very end.

    The constructors are exposed for pattern matching (the lower-bound
    machinery ({!Lowerbound}) structurally transforms trees — e.g. the
    Lemma-1 direct-sum embedding rebuilds a tree node by node) but the
    type is [private]: a node is built only by the constructors below,
    which is what makes its {!id} unique. *)

type 'a t = private
  | Output of { value : int; id : int }
  | Speak of {
      speaker : int;  (** index of the player writing this message *)
      emit : 'a -> int Prob.Dist_exact.t;
          (** law of the message symbol given the speaker's input *)
      children : 'a t array;  (** one child per message symbol *)
      id : int;
    }
  | Chance of {
      coin : int Prob.Dist_exact.t;
          (** public coin, visible to all, free of charge *)
      children : 'a t array;
      id : int;
    }

(** One observable event of an execution. [Msg (i, m)] is written on the
    board by player [i] and charged [ceil(log2 arity)] bits; [Coin c] is
    public randomness and free. *)
type event = Msg of int * int | Coin of int

type transcript = event list

(** {1 Constructors}

    Every constructor draws a fresh node id, leaves included. *)

val output : int -> 'a t

val speak : speaker:int -> emit:('a -> int Prob.Dist_exact.t) -> 'a t array -> 'a t
(** @raise Invalid_argument on an empty child array or negative speaker.
    The message law is guarded: each evaluation of [emit] checks that
    its support lies inside [[0, Array.length children)] and raises
    [Invalid_argument] otherwise (necessarily at evaluation time —
    [emit] is an arbitrary closure). *)

val speak_det : speaker:int -> f:('a -> int) -> 'a t array -> 'a t
(** Deterministic message: the speaker writes [f input]. Checked as
    {!speak} is, with the same [Invalid_argument] when [f] returns a
    symbol outside the arity. *)

val speak_unguarded :
  speaker:int -> emit:('a -> int Prob.Dist_exact.t) -> 'a t array -> 'a t
(** A [Speak] node exactly as given: no check on the speaker or the
    children, and [emit] is not wrapped in the arity guard. For
    rebuilding a node whose [emit] is already guarded (the
    {!Combinators}, the tests' Yao check) and for malformed fixtures; the
    proto-lint analyzer ({!Analysis}) reports a bad node statically. *)

val chance : coin:int Prob.Dist_exact.t -> 'a t array -> 'a t
(** @raise Invalid_argument on an empty child array. The coin is not
    checked; proto-lint reports an unnormalized or out-of-arity one. *)

(** {1 Node identity} *)

val id : 'a t -> int
(** The node's id. Ids are unique: each constructor call draws the
    next one from a single atomic counter, so no two nodes share one,
    even when built concurrently on several domains, and no code outside
    this module can forge or copy a node. An id stands for the node's
    physical identity and serves only as a table key: ids are never
    printed, and nothing orders or iterates on them, so no output
    depends on the order nodes were built in. *)

module Tbl : Hashtbl.S with type key = int
(** Tables keyed on node ids, for per-node memos. *)

(** {1 Static measures} *)

val bits_of_arity : int -> int
(** [ceil(log2 n)] — the per-message charge. *)

val depth : 'a t -> int
val node_count : 'a t -> int

val communication_cost : 'a t -> int
(** Worst-case communication [CC(Pi)]: maximum over root-to-leaf paths
    of the summed per-message charges. Chance nodes are free. *)

val round_count : 'a t -> int
(** Maximum number of messages on any path (public coins excluded). *)

(** {1 Transcript operations} *)

val transcript_bits : 'a t -> transcript -> int
(** Bits charged for a concrete transcript.
    @raise Invalid_argument if the transcript does not follow the tree. *)

val output_of : 'a t -> transcript -> int
(** The output at the end of a complete transcript.
    @raise Invalid_argument if the transcript does not reach a leaf. *)

val pp_event : Format.formatter -> event -> unit
val pp_transcript : Format.formatter -> transcript -> unit
val transcript_to_string : transcript -> string
