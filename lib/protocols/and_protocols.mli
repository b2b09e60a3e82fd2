(** Protocols for one-bit [AND_k], as exact protocol trees.

    The star of Section 6 is the {e sequential} protocol: players write
    their bit in order and the protocol halts at the first zero. Its
    transcript is determined by the index of the first zero (or "none"),
    so its external information cost is [O(log k)] under {e any}
    distribution, while its worst-case communication is [k] bits — the
    [Omega(k / log k)] compression gap. *)

val sequential : int -> int Proto.Tree.t
(** Player [i] writes its bit; halt with output 0 at the first zero;
    output 1 after [k] ones. Zero error, [CC = k]. *)

val broadcast_all : int -> int Proto.Tree.t
(** Every player writes its bit unconditionally: [IC = H(X)], the
    maximally leaky baseline. *)

val truncated_sequential : k:int -> m:int -> int Proto.Tree.t
(** Sequential, but only the first [m] players ever speak; outputs 1 if
    they all wrote 1. The Lemma-6 experiment's family: too few speakers
    forces constant error. *)

val noisy_sequential : k:int -> noise:Exact.Rational.t -> int Proto.Tree.t
(** Sequential AND where each player lies with probability
    [noise in [0, 1/2)] (private randomness): a genuinely randomized,
    small-error protocol for the lower-bound machinery and the
    compressor. *)

val two_copy_sequential : int -> int array Proto.Tree.t
(** Two independent copies composed sequentially (players hold two
    bits); output [2*a0 + a1]. With independent inputs across copies,
    [IC] is exactly twice the single-copy cost — the Theorem-4
    additivity witness. *)

val constant : k:int -> int -> 'a Proto.Tree.t
(** Ignores inputs, outputs the given value; the zero-information point. *)

val run_sequential : Blackboard.Board.t -> int array -> int
(** Operational run of {!sequential} with real bit accounting. *)
