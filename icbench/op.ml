(* One benchmark operation. [prepare] draws its inputs, untimed, just
   before it runs, and returns [exec]. [exec] is the timed part: it
   makes the program calls and returns the oracle, which the harness
   runs after the timer stops. The oracle raises {!Oracle.Mismatch} on
   a wrong output and otherwise returns the operation's reported
   counts (name, value). *)

type t = {
  cls : string;
  prepare : unit -> unit -> unit -> (string * float) list;
}

(* A round: the slots in an order drawn from [rng], each prepared from
   [rng] in that order, so a round replays identically and only one
   operation's inputs are live at a time. *)
let shuffled rng slots ~cls ~prepare =
  let a = Array.of_list slots in
  Prob.Rng.shuffle rng a;
  List.map (fun s -> { cls = cls s; prepare = (fun () -> prepare s) })
    (Array.to_list a)

(* Where a per-layer count comes from. *)
type source =
  | Metric of string  (** an [Obs.Metrics] counter, traced run only *)
  | Bitbuf_writers  (** [Coding.Bitbuf.Writer.stats] deltas *)
  | Bitbuf_bits
  | Reported of string  (** a count the operation's oracle returned *)

(* A per-layer count: [num] summed over the operations of [classes]
   and divided by their number, or by the summed [den] when given
   (a ratio). *)
type count = {
  metric : string;
  classes : string list;
  num : source;
  den : source option;
}

let count ?den metric classes num = { metric; classes; num; den }

(* A workload: [setup] makes the program calls that precede the first
   timed operation (its unique [tag] keeps every entry it builds
   distinct from earlier set-ups; [smoke] selects the small test
   sizes); [round] draws one round of operations from [rng] — the same
   rng state gives the same operations — with a fixed number of
   operations per class. [setup_reps] set-ups are timed for
   [setup_s]. *)
type workload =
  | W : {
      name : string;
      setup : smoke:bool -> tag:string -> 's;
      round : 's -> Prob.Rng.t -> int -> t list;
      setup_reps : int;
      spans : string list;  (** span names, in report order *)
      counts : count list;
    }
      -> workload
