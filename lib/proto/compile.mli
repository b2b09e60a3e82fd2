(** Compiler from {!Tree} protocol trees to a flat bit-sliced VM.

    [compile] flattens a tree into struct-of-arrays bytecode: node
    kinds, speakers, arities, branch targets and per-(node, input)
    emit-law ids live in plain [int array]s, with the exact laws (and
    one prebuilt sampler per law) interned into side tables. Node ids
    are assigned in postorder, so the root is the last node and every
    edge goes from a higher id to a strictly lower one; a shared
    subtree (one {!Tree.id}) is compiled once and becomes a DAG node.

    Two evaluators run the bytecode:

    - {!exec} walks one input profile, drawing from the interned
      samplers; it mirrors the tree interpreter draw-for-draw, so a run
      over the same RNG stream produces byte-identical transcripts.
    - {!exec_batch} advances up to 62 input profiles at once for
      deterministic programs, one lane per bit of a machine word, in a
      single linear pass over the program.

    The tree interpreter in {!Semantics} stays the differential oracle:
    tests compare both evaluators against it on random trees. *)

type t
(** A compiled program. The input domain is erased: execution addresses
    inputs by their index in the [domain] array given to {!compile}, so
    one (non-parametric) program type serves every element type. *)

val compile : players:int -> domain:'a array -> 'a Tree.t -> t
(** [compile ~players ~domain tree] flattens [tree]. Each [Speak]
    node's [emit] is tabulated over all of [domain] at compile time, so
    [emit] must be total on it. Raises [Invalid_argument] if [players]
    is not positive or [domain] is empty. *)

val players : t -> int
val domain_size : t -> int
val node_count : t -> int
(** The number of distinct tree nodes: one per {!Tree.id} reachable
    from the root, shared subtrees and leaves counted once. *)

val deterministic : t -> bool
(** [true] iff the program has no [Chance] node and every tabulated
    emit law is a point mass — the precondition for {!exec_batch}. *)

(** {1 Scalar execution} *)

val exec :
  ?on_msg:(speaker:int -> arity:int -> width:int -> msg:int -> unit) ->
  ?on_coin:(int -> unit) ->
  t ->
  sample:(int Prob.Sampler.t -> int) ->
  input_indices:int array ->
  int
(** [exec p ~sample ~input_indices] runs one root-to-leaf walk and
    returns the leaf value. [input_indices.(j)] is player [j]'s input
    as a domain index. [sample] supplies randomness (typically
    [fun s -> Prob.Sampler.draw s rng]); it is called exactly once per
    [Speak]/[Chance] node visited, in walk order. [on_msg] fires after
    each message draw (before descending) and [on_coin] after each
    coin — hooks for board posting and tracing without coupling this
    module to {!Blackboard}. *)

(** {1 Bit-sliced batch execution} *)

val max_lanes : int
(** 62: one lane per usable bit of an OCaml [int]. *)

type batch
(** The result of one bit-sliced pass: per-lane outputs plus the node
    and edge lane-masks, from which per-lane transcripts and bit
    charges can be read back. *)

val exec_batch : t -> input_indices:int array array -> batch
(** [exec_batch p ~input_indices] advances [Array.length input_indices]
    lanes (1..{!max_lanes}) through [p] in one descending pass over the
    bytecode. Postorder ids make this sound: a node's full lane mask is
    known before the node is processed, even under DAG sharing. Raises
    [Invalid_argument] if [p] is not {!deterministic} or the lane count
    is out of range. *)

val outputs : batch -> int array
(** Per-lane leaf value, in lane order. *)

val lanes : batch -> int

val lane_transcript : t -> batch -> int -> Tree.event list
(** The message transcript lane [lane] produced, root to leaf, read
    back off the batch's edge masks. Deterministic programs have no
    coins, so all events are [Msg]. *)

val lane_bits : t -> batch -> int -> int
(** Total bits charged along lane [lane]'s path (sum of message widths
    over visited [Speak] nodes). *)

val exec_sweep : ?domains:int -> t -> input_indices:int array array -> int array
(** [exec_sweep p ~input_indices] evaluates every profile and returns
    the outputs in order. Profiles are sliced into {!max_lanes}-wide
    batches which run across the {!Par} domain pool. *)

(** {1 Debugging} *)

val disassemble : t -> string
(** Stable text listing (root first, then the law table) used by the
    pinned-bytecode golden test. *)
