(** The external observer's view of one protocol copy.

    Tracks the exact posterior over the inputs given the transcript so
    far (as an unnormalized weighted support), from which the observer's
    next-message prior [nu] — the footnote-3 prediction — is computed.
    The speaker's true next-message law [eta] depends on its input; both
    are produced here so the compressor can be driven round by round. *)

module D = Prob.Dist_exact
module R = Exact.Rational
module T = Proto.Tree

(* A state keeps the successors built so far, by message or coin, so
   the states walked from one root form a trie keyed by transcript
   (never by tree node: two transcripts can reach one shared node with
   different posteriors). Its [speak_view] is computed at first use. *)
type 'a t = {
  node : 'a T.t;  (** current position in the protocol tree *)
  weighted : ('a array * R.t) list;  (** unnormalized posterior over inputs *)
  speak : (int * int * float array) option Lazy.t;
  mutable next : (int * 'a t) list;  (** successors, by message or coin *)
}

(* At a [Speak] node: the speaker index, the message arity, and the
   observer's prior [nu] over the next message (normalized, float). *)
let speak_of node weighted =
  match node with
  | T.Speak { speaker; emit; children; _ } ->
      let arity = Array.length children in
      let mix = Array.make arity R.zero in
      List.iter
        (fun (x, w) ->
          List.iter
            (fun (m, p) -> mix.(m) <- R.add mix.(m) (R.mul w p))
            (D.to_alist (emit x.(speaker))))
        weighted;
      let mass = Array.fold_left R.add R.zero mix in
      let nu = Array.map (fun w -> R.to_float (R.div w mass)) mix in
      Some (speaker, arity, nu)
  | _ -> None

let make node weighted =
  { node; weighted; speak = lazy (speak_of node weighted); next = [] }

let create tree mu = make tree (D.to_alist mu)
let finished t = match t.node with T.Output _ -> true | _ -> false

let output_exn t =
  match t.node with
  | T.Output { value = v; _ } -> v
  | _ -> invalid_arg "Observer.output_exn: protocol still running"

let speak_view t = Lazy.force t.speak

(** The speaker's true law [eta] of the next message given its actual
    input (float vector over the arity). *)
let speaker_eta t input =
  match t.node with
  | T.Speak { emit; children; _ } ->
      let arity = Array.length children in
      let eta = Array.make arity 0. in
      List.iter
        (fun (m, p) -> eta.(m) <- R.to_float p)
        (D.to_alist (emit input));
      eta
  | _ -> invalid_arg "Observer.speaker_eta: not at a Speak node"

(* Records [s] as the successor on message or coin [i]. *)
let remember t i s =
  t.next <- (i, s) :: t.next;
  s

(** Advance past a [Speak] node on message [m], updating the posterior
    by the per-input emission likelihood. *)
let advance_msg t m =
  match t.node with
  | T.Speak { speaker; emit; children; _ } ->
      (try List.assoc m t.next
       with Not_found ->
         remember t m
           (make children.(m)
              (List.filter_map
                 (fun (x, w) ->
                   let p = D.prob_of (emit x.(speaker)) m in
                   if R.is_zero p then None else Some (x, R.mul w p))
                 t.weighted)))
  | _ -> invalid_arg "Observer.advance_msg: not at a Speak node"

(** At a [Chance] node: the public-coin law as floats. *)
let chance_view t =
  match t.node with
  | T.Chance { coin; children; _ } ->
      let arity = Array.length children in
      let law = Array.make arity 0. in
      List.iter (fun (c, p) -> law.(c) <- R.to_float p) (D.to_alist coin);
      Some law
  | _ -> None

let advance_coin t c =
  match t.node with
  | T.Chance { children; _ } ->
      (try List.assoc c t.next
       with Not_found -> remember t c (make children.(c) t.weighted))
  | _ -> invalid_arg "Observer.advance_coin: not at a Chance node"
