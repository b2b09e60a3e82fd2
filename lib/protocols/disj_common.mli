(** Shared types, reference semantics and instance generators for the
    multi-party set-disjointness protocols.

    An instance is [k] sets over the universe [\[0, n)], represented as
    [sets.(i).(j) = true] iff [j] is in player [i]'s set ([X_i^j = 1]). *)

type instance = { n : int; sets : bool array array }

val k_of : instance -> int

val make : n:int -> bool array array -> instance
(** @raise Invalid_argument if a row has the wrong width. *)

val disjoint : instance -> bool
(** Ground truth: the intersection of all sets is empty. *)

val intersection : instance -> int list
(** The elements of the intersection (empty iff disjoint). *)

(** Result of an operational protocol run. *)
type result = {
  answer : bool;  (** the protocol's claim: disjoint? *)
  bits : int;  (** total bits written on the board *)
  messages : int;
  cycles : int;  (** protocol-defined cycles (1 if not meaningful) *)
}

(** {1 Instance generators} *)

val random_dense : Prob.Rng.t -> n:int -> k:int -> density:float -> instance
(** Independent Bernoulli memberships. *)

val random_disjoint_single_zero : Prob.Rng.t -> n:int -> k:int -> instance
(** Guaranteed disjoint, as hard as possible: every coordinate has
    exactly one zero with a random owner. *)

val random_intersecting :
  Prob.Rng.t -> n:int -> k:int -> witnesses:int -> instance
(** Single-zero instance with [witnesses] coordinates left all-ones. *)

val last_player_empty : n:int -> k:int -> instance
val all_full : n:int -> k:int -> instance
val all_empty : n:int -> k:int -> instance

val enumerate : n:int -> k:int -> instance list
(** All [2^(nk)] instances — for exhaustive correctness tests. *)

val to_bit_vectors : instance -> int array array
(** Convert to the coordinate-vector shape of the exact protocol
    trees ([1] = member). *)

(** {1 Word-sliced coordinate planes}

    62-bit machine-word packing of per-player zero sets, shared by the
    operational solvers: coordinate scans become word AND-NOTs plus
    popcounts, with the board encodings untouched. *)

val plane_bits : int
(** Bits per plane word: 62 (the native int's top bit stays clear, so
    plane words are always non-negative). *)

val plane_words : int -> int
(** Words needed for an [n]-coordinate plane. *)

val zero_planes : instance -> int array array
(** [zero_planes inst] is one plane per player; bit [c mod 62] of word
    [c / 62] of plane [j] is set iff coordinate [c] is a {e zero} of
    player [j]. *)

val popcount : int -> int
(** Set bits of a non-negative int (16-bit table slices). *)

val ntz_word : int -> int
(** Trailing zeros of a nonzero non-negative int. *)
