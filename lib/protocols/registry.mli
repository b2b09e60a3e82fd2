(** Registry of shipped protocols, for linting and tooling.

    Every protocol tree the library ships self-registers here at a
    small, exactly-analyzable parameter point; the [lint] subcommand of
    [broadcast_cli] and the tier-1 registry sweep both iterate
    {!all}. The operational disjointness solvers are represented by
    their exact tree models from {!Disj_trees}. Downstream protocols
    join the sweep via {!register}. *)

type entry =
  | Entry : {
      name : string;
      players : int;
      domain : 'a array;  (** possible per-player inputs *)
      tree : 'a Proto.Tree.t Lazy.t;
      declared_cost : int option;
          (** documented worst-case bits, cross-checked by proto-lint *)
      spec : ('a array -> int) option;
          (** reference function on input profiles; deterministic
              entries that declare one are zero-error certified against
              it by proto-verify ({!Verify_registry}) *)
      symmetry : Proto.Symmetry.t;
          (** declared player-permutation invariance of the {e output
              law} (not the transcript); licenses the orbit engine and
              is soundness-checked by {!symmetry_witness} in the test
              sweep. Defaults to trivial. *)
      note : string;
    }
      -> entry

val entry :
  name:string ->
  players:int ->
  ?declared_cost:int ->
  ?spec:('a array -> int) ->
  ?symmetry:Proto.Symmetry.t ->
  ?note:string ->
  domain:'a array ->
  'a Proto.Tree.t Lazy.t ->
  entry

val name : entry -> string
val players : entry -> int
val note : entry -> string
val declared_cost : entry -> int option
val has_spec : entry -> bool

val symmetry : entry -> Proto.Symmetry.t
(** The declared output-law invariance group (default
    {!Proto.Symmetry.Trivial}). *)

val symmetry_witness : entry -> (int array * int array) option
(** Soundness check of the declared symmetry: [None] when the entry's
    exact output law is invariant under the whole declared group;
    otherwise a concrete witness pair of input profiles (as per-player
    indices into the entry's domain) whose output laws differ.
    Exhaustive in the entry's domain. *)

type run = {
  output : int;
  board : Blackboard.Board.t;
  input_indices : int array;
      (** per-player index into the entry's input domain *)
  msg_rounds : int;  (** Speak nodes traversed (coins excluded) *)
}

val run_on_board : entry -> seed:int -> run
(** Trace run mode: draw uniform inputs from the entry's domain and
    execute the tree operationally on a blackboard — each message
    sampled from its emit law and charged fixed-width
    [ceil(log2 arity)] bits via {!Blackboard.Board.post}, coins
    resolved free. With a trace sink installed, the summed [Broadcast]
    event bits equal [Blackboard.Runtime.stats_of_board] of the
    returned board. *)

val compiled : entry -> Proto.Compile.t
(** The entry's tree flattened by {!Proto.Compile.compile}, memoized
    per entry name (names are unique, enforced by {!register}). *)

val run_on_board_compiled : entry -> seed:int -> run
(** Same observable run as {!run_on_board} — same input draws, same
    board bytes, same trace events — executed on the compiled bytecode
    instead of the tree walker. Laws are interned up to exact-rational
    equality and [Prob.Sampler.create] is a pure function of the float
    distribution, so the rng stream is consumed draw-for-draw
    identically; the CI bench-smoke gate and [test_compile] check the
    resulting boards with {!Blackboard.Board.equal}. *)

type hosted = {
  k : int;
  schedule : Blackboard.Board.t -> int option;
      (** board-driven: replays the tree through the writes so far *)
  players : Blackboard.Engine.player array;
  input_indices : int array;
      (** the drawn per-player indices into the entry's domain — the
          same draws {!run_on_board} makes from the same seed *)
  output_of : Blackboard.Board.t -> int option;
      (** the tree's output once the board holds a complete transcript;
          [None] while the run is unfinished (e.g. a stalled async
          emulation) *)
}

val hosted : entry -> seed:int -> hosted
(** Engine-hosted form: the same protocol as a board-driven [schedule]
    plus [speak]/[observe] players, runnable unchanged under
    {!Blackboard.Engine.run} or the asynchronous [Netsim] board
    emulation. The schedule is stateless — it recomputes the current
    tree node by replaying the board — so it is safe to call it any
    number of times per write; all chance coins resolve from a public
    stream derived from [seed], all message sampling from per-player
    private streams, so a run is a pure function of [(entry, seed)]
    and two runtimes that call [speak] in the same order produce
    byte-identical boards.

    The players hold mutable private-randomness state: one hosted value
    drives {e one} run. For a differential comparison, build a fresh
    hosted (same entry, same seed) per runtime. *)

val spec_output : entry -> input_indices:int array -> int option
(** The entry's declared reference output on the input profile named by
    domain indices, when a spec is declared. *)

val register : entry -> unit
(** Add a protocol to the sweep.
    @raise Invalid_argument on a duplicate name. *)

val all : unit -> entry list
(** Built-in entries first, then registrations in order. *)

val names : unit -> string list
val find : string -> entry option
