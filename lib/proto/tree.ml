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
    logarithms only at the very end. *)

module D = Prob.Dist_exact
module R = Exact.Rational

type 'a t =
  | Output of { value : int; id : int }
  | Speak of {
      speaker : int;  (** index of the player writing this message *)
      emit : 'a -> int D.t;
          (** law of the message symbol given the speaker's input *)
      children : 'a t array;  (** one child per message symbol *)
      id : int;
    }
  | Chance of {
      coin : int D.t;  (** public coin, visible to all, free of charge *)
      children : 'a t array;
      id : int;
    }

(** One observable event of an execution. [Msg] events are written on
    the board and are charged [ceil(log2 arity)] bits; [Coin] events are
    public randomness and are free. *)
type event = Msg of int * int  (** speaker, symbol *) | Coin of int

type transcript = event list

(* Node ids: one counter for every domain, so trees built concurrently
   under [Par] still get pairwise distinct ids. *)
let next_id = Atomic.make 0
let fresh () = Atomic.fetch_and_add next_id 1

let id = function
  | Output { id; _ } | Speak { id; _ } | Chance { id; _ } -> id

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

let output value = Output { value; id = fresh () }

let speak_unguarded ~speaker ~emit children =
  Speak { speaker; emit; children; id = fresh () }

let check_speak ~speaker children =
  if Array.length children = 0 then invalid_arg "Tree.speak: no children";
  if speaker < 0 then invalid_arg "Tree.speak: negative speaker"

let check_symbol arity s =
  if s < 0 || s >= arity then
    invalid_arg
      (Printf.sprintf
         "Tree.speak: emit support includes symbol %d outside arity %d" s
         arity)

let speak ~speaker ~emit children =
  check_speak ~speaker children;
  (* [emit] is an arbitrary closure, so its support can only be checked
     when it is evaluated: wrap it so a symbol without a continuation
     subtree is rejected at the first evaluation instead of indexing out
     of bounds deep inside the semantics. [speak_unguarded] bypasses
     this guard; the proto-lint analyzer ({!Analysis}) reports such
     nodes statically. *)
  let arity = Array.length children in
  let emit x =
    let d = emit x in
    List.iter (check_symbol arity) (D.support d);
    d
  in
  speak_unguarded ~speaker ~emit children

let chance ~coin children =
  if Array.length children = 0 then invalid_arg "Tree.chance: no children";
  Chance { coin; children; id = fresh () }

(** Deterministic message: the speaker writes [f input] directly. The
    arity guard of [speak] is fused into the one closure that wraps [f]:
    a point mass's support is its one symbol. *)
let speak_det ~speaker ~f children =
  check_speak ~speaker children;
  let arity = Array.length children in
  let emit x =
    let s = f x in
    check_symbol arity s;
    D.return s
  in
  speak_unguarded ~speaker ~emit children

let bits_of_arity n = Coding.Intcode.fixed_width n

let rec depth = function
  | Output _ -> 0
  | Speak { children; _ } | Chance { children; _ } ->
      1 + Array.fold_left (fun acc c -> max acc (depth c)) 0 children

let rec node_count = function
  | Output _ -> 1
  | Speak { children; _ } | Chance { children; _ } ->
      Array.fold_left (fun acc c -> acc + node_count c) 1 children

(** Worst-case communication cost in bits: the maximum over root-to-leaf
    paths of the sum of per-message costs. This is [CC(Pi)] of Section 3
    under the standard arity-to-bits charging. *)
let rec communication_cost = function
  | Output _ -> 0
  | Speak { children; _ } ->
      let here = bits_of_arity (Array.length children) in
      here + Array.fold_left (fun acc c -> max acc (communication_cost c)) 0 children
  | Chance { children; _ } ->
      Array.fold_left (fun acc c -> max acc (communication_cost c)) 0 children

(** Number of [Msg] rounds on the deepest path (public coins excluded). *)
let rec round_count = function
  | Output _ -> 0
  | Speak { children; _ } ->
      1 + Array.fold_left (fun acc c -> max acc (round_count c)) 0 children
  | Chance { children; _ } ->
      Array.fold_left (fun acc c -> max acc (round_count c)) 0 children

(** Bits charged for a concrete transcript, given the tree it came from.
    @raise Invalid_argument if the transcript does not follow the tree. *)
let rec transcript_bits tree transcript =
  match (tree, transcript) with
  | _, [] -> 0
  | Speak { children; _ }, Msg (_, m) :: rest ->
      bits_of_arity (Array.length children) + transcript_bits children.(m) rest
  | Chance { children; _ }, Coin c :: rest -> transcript_bits children.(c) rest
  | _ -> invalid_arg "Tree.transcript_bits: transcript does not match tree"

(** The output at the end of a complete transcript. *)
let rec output_of tree transcript =
  match (tree, transcript) with
  | Output { value; _ }, [] -> value
  | Speak { children; _ }, Msg (_, m) :: rest -> output_of children.(m) rest
  | Chance { children; _ }, Coin c :: rest -> output_of children.(c) rest
  | _ -> invalid_arg "Tree.output_of: transcript does not match tree"

let pp_event fmt = function
  | Msg (i, m) -> Format.fprintf fmt "p%d!%d" i m
  | Coin c -> Format.fprintf fmt "$%d" c

let pp_transcript fmt t =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";") pp_event)
    t

let transcript_to_string t = Format.asprintf "%a" pp_transcript t
