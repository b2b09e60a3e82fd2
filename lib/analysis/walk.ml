(** Shared tree-traversal machinery for the static analyses.

    The lint catalog ({!Rules}) needs the pre-order walk and player-count
    inference. The abstract interpreters ({!Absint}, {!Depgraph},
    {!Infoflow}) each keep their own recursion but share one copy of the
    bookkeeping around the Lemma-6 split (a message law depends only on
    the speaker's own input and the board, so the inputs consistent with
    a transcript prefix split per player): the argument checks and player
    inference, the node budget and its widening flag, the law-failure
    count and per-input law split, the rectangle refinement that sends a
    raising law to top, and the trace span and metrics. DESIGN.md §9
    states the policy. Keeping this here also lets rules depend on the
    interpreters without a module cycle. *)

module D = Prob.Dist_exact
module R = Exact.Rational
module T = Proto.Tree

(** Pre-order fold with the path to each node. *)
let fold_nodes f init tree =
  let rec go acc path t =
    let acc = f acc path t in
    match t with
    | T.Output _ -> acc
    | T.Speak { children; _ } | T.Chance { children; _ } ->
        let acc = ref acc in
        Array.iteri (fun i c -> acc := go !acc (Path.child path i) c) children;
        !acc
  in
  go init Path.root tree

(** Smallest player count consistent with the tree: one past the
    largest speaker index (0 for speaker-free trees). *)
let inferred_players tree =
  fold_nodes
    (fun acc _ t ->
      match t with
      | T.Speak { speaker; _ } -> max acc (speaker + 1)
      | T.Output _ | T.Chance _ -> acc)
    0 tree

(** One analysis run over one tree. *)
type 'a t = {
  name : string;  (** span [<name>/analyze], metrics [<name>.*] *)
  domain : 'a array;
  inputs : int list;  (** every domain index, ascending *)
  players : int;
  budget : int;
  mutable nodes : int;  (** nodes counted before the budget ran out *)
  mutable widened : bool;
  mutable law_failures : int;
  mutable deterministic : bool;
      (** no law so far emitted two symbols or went to top; the
          analyzers also clear it at chance nodes *)
}

(** Checks the arguments every analyzer takes and opens a run. The
    rectangle needs one axis per speaker even if the declared player
    count is too small; soundness beats the declaration.
    @raise Invalid_argument on an empty domain or non-positive budget. *)
let start ~name ?players ~budget ~domain tree =
  let fail what =
    invalid_arg (String.capitalize_ascii name ^ ".analyze: " ^ what)
  in
  if Array.length domain = 0 then fail "empty domain";
  if budget < 1 then fail "budget must be positive";
  let inferred = inferred_players tree in
  let players =
    match players with Some k -> max k inferred | None -> inferred
  in
  let inputs = List.init (Array.length domain) Fun.id in
  { name; domain; inputs; players; budget; nodes = 0; widened = false;
    law_failures = 0; deterministic = true }

(** The rectangle with every input live on every axis. *)
let full_rect w = Array.make w.players w.inputs

(** Counts one node against the budget; [false] once it is spent, and
    the caller then widens the subtree. *)
let tick w =
  if w.nodes >= w.budget then begin
    w.widened <- true;
    false
  end
  else begin
    w.nodes <- w.nodes + 1;
    true
  end

let fail w = w.law_failures <- w.law_failures + 1

(** The Lemma-6 split at a [Speak] node: evaluates [emit] once per input
    [ix] in [inputs] and calls [f ix s p] for every symbol [s] in
    [\[0, arity)] it emits with probability [p > 0]. A law that raises,
    places mass outside the arity or, when [normalized], does not sum to
    exactly 1 is a law failure, counted when [count]. Returns whether
    some law raised; what that means is the caller's policy. *)
let split w ~count ~normalized emit ~arity inputs f =
  List.fold_left
    (fun raised ix ->
      match emit w.domain.(ix) with
      | exception _ ->
          if count then fail w;
          true
      | d when normalized && not (R.equal (D.mass d) R.one) ->
          if count then fail w;
          raised
      | d ->
          let live =
            List.fold_left
              (fun live s ->
                let p = D.prob_of d s in
                if R.sign p <= 0 then live
                else begin
                  if s >= 0 && s < arity then f ix s p
                  else if count then fail w;
                  live + 1
                end)
              0 (D.support d)
          in
          if live > 1 then w.deterministic <- false;
          raised)
    false inputs

(** The rectangle refinement: per symbol, the sorted inputs of the
    sorted [ixs] that can emit it ([[]] for a proven-dead child). A
    raising law could emit anything, so it sends the node to top: every
    symbol keeps all of [ixs], and reachability stays an
    over-approximation. *)
let refine w ~count emit ~arity ixs =
  let by = Array.make arity [] in
  let add ix s _ = by.(s) <- ix :: by.(s) in
  if split w ~count ~normalized:false emit ~arity ixs add then begin
    w.deterministic <- false;
    Array.make arity ixs
  end
  else Array.map List.rev by

(** Runs the walk [f] in a [<name>/analyze] span when tracing is on,
    then reports [<name>.runs] and [<name>.nodes]. *)
let run w f =
  let r =
    if Obs.Trace.enabled () then Obs.Trace.with_span (w.name ^ "/analyze") f
    else f ()
  in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.bump (w.name ^ ".runs") 1;
    Obs.Metrics.bump (w.name ^ ".nodes") w.nodes
  end;
  r
