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
    interpreters without a module cycle.

    Each run also owns one law table keyed by {!Proto.Tree.id}: a
    speaker's law at a domain input, or a coin, is evaluated the first
    time a split asks for it and replayed from the table on every later
    visit (a shared subtree, or {!Depgraph}'s matched descent). Equal
    laws share one interned record, which carries a key up to symbol
    order, so comparing two laws is one int compare. The table dies
    with its run. *)

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

(** One evaluated law, shared by every (node, input) cell whose law is
    equal to it as an exact-rational alist. *)
type law = {
  raised : bool;  (** evaluating the law raised *)
  unit_mass : bool;  (** the total mass is exactly 1 *)
  symbols : (int * R.t) list;
      (** the support in order, each symbol with its [D.prob_of]
          weight *)
  bound : int;
      (** the least arity holding every symbol; [max_int] when a symbol
          is negative or the law raised *)
  key : int;
      (** id up to exact-rational equality as a function of the
          symbol, whatever the support order *)
}

(* The cell of a law not evaluated yet, and the law that raised. *)
let pending =
  { raised = false; unit_mass = false; symbols = []; bound = max_int;
    key = -1 }

let raised_law = { pending with raised = true }

module Alist = Hashtbl.Make (struct
  type t = (int * R.t) list

  let equal = List.equal (fun (s, p) (s', p') -> s = s' && R.equal p p')
  let hash = Hashtbl.hash
end)

let intern tbl k make =
  match Alist.find_opt tbl k with
  | Some v -> v
  | None ->
      let v = make () in
      Alist.add tbl k v;
      v

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
  cells : law array T.Tbl.t;
      (** per node id, one cell per domain input ([Speak]) or one for
          the coin ([Chance]) *)
  laws : law Alist.t;  (** interned by their alist, in support order *)
  keys : int Alist.t;  (** [key] by the alist sorted on the symbol *)
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
    law_failures = 0; deterministic = true; cells = T.Tbl.create 64;
    laws = Alist.create 16; keys = Alist.create 16 }

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

(* Fills a cell: evaluates [law] and interns the result. A Dist's
   items are its support with distinct values and positive weights, so
   [D.to_alist] pairs each symbol with its [D.prob_of]. *)
let eval w law =
  match law () with
  | exception _ -> raised_law
  | d ->
      let items = D.to_alist d in
      intern w.laws items (fun () ->
          let sorted = List.sort (fun (s, _) (t, _) -> compare s t) items in
          let bound (s, _) = if s < 0 then max_int else s + 1 in
          { raised = false; unit_mass = R.equal (D.mass d) R.one;
            symbols = items;
            bound = List.fold_left (fun m x -> max m (bound x)) 0 items;
            key = intern w.keys sorted (fun () -> Alist.length w.keys) })

(* Node [id]'s row of cells, added on its first visit. *)
let row w ~id ~cells =
  match T.Tbl.find w.cells id with
  | r -> r
  | exception Not_found ->
      let r = Array.make cells pending in
      T.Tbl.add w.cells id r;
      r

(* Cell [i] of [row], filled on first use. *)
let cell w row i law =
  if row.(i) == pending then row.(i) <- eval w law;
  row.(i)

(* A law's key as a law of arity [arity]: [-1], equal to no law, when
   it raised or put mass outside [\[0, arity)]. *)
let key_within ~arity l = if l.bound > arity then -1 else l.key

(** The interned id of node [id]'s law [emit] at input [ix]: two laws
    get one id exactly when they are equal as functions on
    [\[0, arity)] with no mass outside it. [-1] for a law that raised
    or put mass outside the arity; it equals no law, itself included. *)
let law_key w ~id emit ~arity ix =
  let row = row w ~id ~cells:(Array.length w.domain) in
  key_within ~arity (cell w row ix (fun () -> emit w.domain.(ix)))

(** The same for the coin of [Chance] node [id]. *)
let coin_key w ~id coin ~arity =
  key_within ~arity (cell w (row w ~id ~cells:1) 0 (fun () -> coin))

(** The Lemma-6 split at [Speak] node [id]: takes [emit]'s law at each
    input [ix] in [inputs] from the table, evaluating it on a first
    visit, and calls [f ix s p] for every symbol [s] in [\[0, arity)]
    it emits with probability [p > 0]. A law that raises, places mass
    outside the arity or, when [normalized], does not sum to exactly 1
    is a law failure, counted when [count]. Returns whether some law
    raised; what that means is the caller's policy. *)
let split w ~count ~normalized ~id emit ~arity inputs f =
  let row = row w ~id ~cells:(Array.length w.domain) in
  List.fold_left
    (fun raised ix ->
      let l = cell w row ix (fun () -> emit w.domain.(ix)) in
      if l.raised then begin
        if count then fail w;
        true
      end
      else if normalized && not l.unit_mass then begin
        if count then fail w;
        raised
      end
      else begin
        let live =
          List.fold_left
            (fun live (s, p) ->
              if s >= 0 && s < arity then f ix s p else if count then fail w;
              live + 1)
            0 l.symbols
        in
        if live > 1 then w.deterministic <- false;
        raised
      end)
    false inputs

(** The rectangle refinement: per symbol, the sorted inputs of the
    sorted [ixs] that can emit it ([[]] for a proven-dead child). A
    raising law could emit anything, so it sends the node to top: every
    symbol keeps all of [ixs], and reachability stays an
    over-approximation. *)
let refine w ~count ~id emit ~arity ixs =
  let by = Array.make arity [] in
  let add ix s _ = by.(s) <- ix :: by.(s) in
  if split w ~count ~normalized:false ~id emit ~arity ixs add then begin
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
