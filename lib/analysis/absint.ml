(** Abstract interpretation over protocol trees.

    Where proto-lint ({!Rules}) checks pointwise well-formedness, this
    engine derives {e whole-execution} guarantees without enumeration of
    runs: per node it propagates

    - an exact [\[min, max\]] bit-cost interval under the Section-3
      fixed-width charging ([ceil(log2 arity)] per message — the same
      charge {!Blackboard.Board.post} applies operationally and
      {!Proto.Tree.communication_cost} applies structurally), restricted
      to {e reachable} executions;
    - a reachability abstraction: for each player, the set of domain
      inputs still consistent with the transcript prefix. Because a
      message law depends only on the speaker's own input and the board
      contents, the set of input profiles consistent with a transcript
      is exactly the product of the per-player sets — the combinatorial
      rectangle behind the Lemma-6 fooling argument — so this
      "abstraction" loses nothing: a branch it declares dead is {e
      proven} dead, not heuristically flagged;
    - a symbolic output map for deterministic trees: the reachable
      leaves together with their rectangles, which partition the input
      space and are what {!Certify} checks a declared spec against.

    The traversal walks the unfolded tree with {!Walk}'s shared node
    budget, law split and rectangle refinement (DESIGN.md §9): past the
    budget each remaining subtree is {e widened} to the trivially sound
    summary [\[0, structural max\]], a raising law sends its node to
    reachability top, and either makes certification inconclusive.
    Nodes visited and widenings performed flow into {!Obs.Metrics}
    (keys [absint.*]) and the walk runs in an [absint/analyze] trace
    span when a sink is installed. *)

module D = Prob.Dist_exact
module R = Exact.Rational
module T = Proto.Tree

type interval = { lo : int; hi : int }

let pp_interval fmt { lo; hi } = Format.fprintf fmt "[%d, %d]" lo hi
let interval_to_string iv = Format.asprintf "%a" pp_interval iv
let mem_interval x { lo; hi } = lo <= x && x <= hi

type rect = int list array

type leaf = {
  leaf_path : Path.t;
  output : int;
  rect : rect;
      (** per-player sorted domain indices consistent with reaching
          this leaf *)
}

type t = {
  cost : interval;
  struct_max : int;
  nodes : int;
  widenings : int;
  dead : Path.t list;
  deterministic : bool;
  law_failures : int;
  widened : bool;
  leaves : leaf list;
  players : int;
  domain_size : int;
}

let default_budget = 200_000

let rect_profiles rect =
  Array.fold_left
    (fun acc live ->
      let n = List.length live in
      if acc > max_int / (max n 1) then max_int else acc * n)
    1 rect

(* The hull of a running interval (if any) and one more. *)
let join acc iv =
  match acc with
  | None -> Some iv
  | Some a -> Some { lo = min a.lo iv.lo; hi = max a.hi iv.hi }

let analyze ?(budget = default_budget) ?players ~domain tree =
  let walk = Walk.start ~name:"absint" ?players ~budget ~domain tree in
  let struct_max = T.communication_cost tree in
  let widenings = ref 0 in
  let dead = ref []
  and leaves = ref [] in
  let rec go path rect t =
    if not (Walk.tick walk) then begin
      (* Widening: summarize the whole remaining subtree by the
         trivially sound interval. The structural max of the full tree
         bounds every suffix cost (a suffix extends to a root-to-leaf
         path of at least its own cost). *)
      incr widenings;
      { lo = 0; hi = struct_max }
    end
    else
      match t with
      | T.Output { value = v; _ } ->
          leaves := { leaf_path = path; output = v; rect } :: !leaves;
          { lo = 0; hi = 0 }
      | T.Chance { coin; children; _ } ->
          let live = ref [] in
          Array.iteri
            (fun i c ->
              if R.sign (D.prob_of coin i) > 0 then live := (i, c) :: !live
              else dead := Path.child path i :: !dead)
            children;
          let live = List.rev !live in
          if List.length live > 1 then walk.deterministic <- false;
          List.fold_left
            (fun acc (i, c) -> join acc (go (Path.child path i) rect c))
            None live
          |> Option.value ~default:{ lo = 0; hi = 0 }
      | T.Speak { speaker; emit; children; id } ->
          let arity = Array.length children in
          let charge = T.bits_of_arity arity in
          let live =
            Walk.refine walk ~count:true ~id emit ~arity rect.(speaker)
          in
          let acc = ref None in
          Array.iteri
            (fun m c ->
              match live.(m) with
              | [] -> dead := Path.child path m :: !dead
              | live_ix ->
                  let rect' = Array.copy rect in
                  rect'.(speaker) <- live_ix;
                  acc := join !acc (go (Path.child path m) rect' c))
            children;
          (match !acc with
          | None ->
              (* No live continuation at all (every live law has empty
                 support): the message is still charged, then the
                 execution is stuck. Certification coverage catches the
                 lost profiles. *)
              { lo = charge; hi = charge }
          | Some a -> { lo = charge + a.lo; hi = charge + a.hi })
  in
  let cost =
    Walk.run walk (fun () -> go Path.root (Walk.full_rect walk) tree)
  in
  if Obs.Metrics.enabled () then
    Obs.Metrics.bump "absint.widenings" !widenings;
  {
    cost = { cost with hi = min cost.hi struct_max };
    struct_max;
    nodes = walk.nodes;
    widenings = !widenings;
    dead = List.sort_uniq Path.compare !dead;
    deterministic = walk.deterministic && not walk.widened;
    law_failures = walk.law_failures;
    widened = walk.widened;
    leaves = List.rev !leaves;
    players = walk.players;
    domain_size = Array.length domain;
  }
