(** Fault-injection plans for the asynchronous runtime.

    A plan is a list of independent fault specs, all driven by the run's
    single seed so every faulty execution is replayable:

    - [Crash]: crash-stop — the player stops sending (and processing)
      after its [after_sends]-th point-to-point send; [after_sends = 0]
      means it is dead from the start. A crash can land mid-broadcast,
      so partial ECHO fan-outs are exercised.
    - [Drop]: each point-to-point message is independently eaten with
      probability [prob] (seeded Bernoulli in {!Sim}).
    - [Delay]: delivery jitter — each message's delivery time is pushed
      back by a uniform draw in [0, max_jitter], widening the space of
      adversarial-but-fair orderings. [max_jitter] is at most [2{^30}]
      ({!Sim.max_jitter_bound}).
    - [Equivocate]: Byzantine broadcaster — when this player initiates a
      slot it SENDs the true payload to even-indexed peers and a
      corrupted payload (first bit flipped) to odd-indexed peers.
      Bracha agreement must still hold: honest players deliver at most
      one value (possibly none — the slot stalls).

    The CLI surface is a compact spec string, e.g.
    ["crash:2@5,drop:0.05,delay:8,equiv:0"]. *)

type spec =
  | Crash of { player : int; after_sends : int }
  | Drop of { prob : float }
  | Delay of { max_jitter : int }
  | Equivocate of { player : int }

type plan = spec list

val none : plan

val parse : string -> (plan, string) result
(** Parse a comma-separated spec string: [crash:P] (dead from the
    start), [crash:P@S] (crash after [S] sends), [drop:F] with
    [0 <= F <= 1], [delay:J] with [0 <= J <= 2{^30}], [equiv:P]. The empty string is the empty
    plan. Two [crash] specs (or two [equiv] specs) naming the same
    player are rejected as ambiguous — there is no single sensible
    merge — while repeated [drop]/[delay] specs stay legal (the last
    one wins, see {!drop_prob}/{!max_jitter}). [Error] carries a usage
    message naming the offending item or duplicated player. *)

val to_string : plan -> string
(** Inverse of {!parse} (canonical form). *)

val drop_prob : plan -> float
(** Combined drop probability (0 when no [Drop] spec; the last one wins
    otherwise). *)

val max_jitter : plan -> int
(** Delivery jitter bound (0 when no [Delay] spec). *)

val check : plan -> k:int -> (unit, string) result
(** [Ok ()] when every player the plan names lies in [\[0, k)];
    otherwise [Error] names the first spec (in plan order) that does
    not, e.g. ["crash:9: player 9 out of range \[0, 4)"]. {!parse}
    cannot know [k], so a runtime checks the plan against its player
    count with this before it starts. *)

val crash_budget : plan -> k:int -> int array
(** Per-player send budget: [max_int] for healthy players, the
    [after_sends] of their [Crash] spec otherwise.
    @raise Invalid_argument if {!check} refuses the plan. *)

val equivocators : plan -> k:int -> bool array
(** Per-player Byzantine-equivocation flags.
    @raise Invalid_argument if {!check} refuses the plan. *)
