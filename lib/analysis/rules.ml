(** The proto-lint rule catalog.

    Each rule is an independent static pass over a protocol tree: it
    never samples and never executes the protocol, it only inspects the
    tree structure and evaluates message laws pointwise on the declared
    input domain. Rules return plain diagnostic lists so they can be
    tested one by one; {!Analyzer.analyze} runs them all.

    The analyzer walks the {e unfolded} tree (shared subtrees are
    visited once per occurrence), which matches how the exact semantics
    charges them; it is meant for the same small-parameter regime as
    {!Proto.Semantics}. The one rule that must stay cheap on blow-up
    trees — {!state_space} — caps its own traversal at the budget. *)

module D = Prob.Dist_exact
module R = Exact.Rational
module T = Proto.Tree

(* ------------------------------------------------------------------ *)
(* Rule identifiers                                                    *)
(* ------------------------------------------------------------------ *)

let id_dist_normalized = "dist-normalized"
let id_support_in_arity = "support-in-arity"
let id_speaker_bounds = "speaker-bounds"
let id_broadcast_consistency = "broadcast-consistency"
let id_dead_branch = "dead-branch"
let id_bit_accounting = "bit-accounting"
let id_state_space = "state-space-budget"
let id_unreachable_output = "unreachable-output"
let id_redundant_slot = "redundant-slot"

let all_ids =
  [
    id_dist_normalized;
    id_support_in_arity;
    id_speaker_bounds;
    id_broadcast_consistency;
    id_dead_branch;
    id_bit_accounting;
    id_state_space;
    id_unreachable_output;
    id_redundant_slot;
  ]

(* ------------------------------------------------------------------ *)
(* Shared traversal machinery (see {!Walk})                            *)
(* ------------------------------------------------------------------ *)

let fold_nodes = Walk.fold_nodes

let err ~rule ~path msg =
  Report.diagnostic ~severity:Report.Error ~rule ~path msg

let warn ~rule ~path msg =
  Report.diagnostic ~severity:Report.Warning ~rule ~path msg

(* Message laws are arbitrary closures; evaluating one may raise (the
   {!Proto.Tree.speak} smart constructor itself raises on out-of-arity
   support). Only {!dist_normalized} reports evaluation failures, so a
   broken law yields one diagnostic rather than one per rule. *)
let eval_emit emit x =
  match emit x with d -> Ok d | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* (1) dist-normalized                                                 *)
(* ------------------------------------------------------------------ *)

(** Every message law and every public coin must be an exact
    probability distribution: total mass 1 in rationals, no negative
    weights, for every input in the declared domain. The public
    constructors of {!Prob.Dist_exact} guarantee this; hand-built
    distributions (the underlying record type is exposed) and foreign
    bindings do not. *)
let dist_normalized ~domain tree =
  let check_mass ~rule ~path ~what d acc =
    let bad_weight =
      List.exists (fun (_, w) -> R.sign w <= 0) (D.to_alist d)
    in
    let mass = D.mass d in
    let acc =
      if bad_weight then
        err ~rule ~path
          (Printf.sprintf "%s carries a zero or negative weight" what)
        :: acc
      else acc
    in
    if R.equal mass R.one then acc
    else
      err ~rule ~path
        (Printf.sprintf "%s has total mass %s, expected 1" what
           (R.to_string mass))
      :: acc
  in
  let rule = id_dist_normalized in
  fold_nodes
    (fun acc path t ->
      match t with
      | T.Output _ -> acc
      | T.Chance { coin; _ } ->
          check_mass ~rule ~path ~what:"public coin" coin acc
      | T.Speak { emit; _ } ->
          let acc = ref acc in
          Array.iteri
            (fun i x ->
              match eval_emit emit x with
              | Ok d ->
                  acc :=
                    check_mass ~rule ~path
                      ~what:(Printf.sprintf "emit law on domain input #%d" i)
                      d !acc
              | Error e ->
                  acc :=
                    err ~rule ~path
                      (Printf.sprintf
                         "emit law raised on domain input #%d: %s" i e)
                    :: !acc)
            domain;
          !acc)
    [] tree
  |> List.rev |> Report.of_list

(* ------------------------------------------------------------------ *)
(* (2) support-in-arity                                                *)
(* ------------------------------------------------------------------ *)

(** No message law (or coin) may place mass on a symbol outside
    [[0, Array.length children)]: such a symbol has no continuation
    subtree and the semantics would index out of bounds. *)
let support_in_arity ~domain tree =
  let rule = id_support_in_arity in
  let check_support ~path ~what ~arity d acc =
    List.fold_left
      (fun acc s ->
        if s < 0 || s >= arity then
          err ~rule ~path
            (Printf.sprintf "%s places mass on symbol %d outside arity %d"
               what s arity)
          :: acc
        else acc)
      acc (D.support d)
  in
  fold_nodes
    (fun acc path t ->
      match t with
      | T.Output _ -> acc
      | T.Chance { coin; children; _ } ->
          check_support ~path ~what:"public coin"
            ~arity:(Array.length children) coin acc
      | T.Speak { emit; children; _ } ->
          let arity = Array.length children in
          let seen = Hashtbl.create 4 in
          let acc = ref acc in
          Array.iteri
            (fun i x ->
              match eval_emit emit x with
              | Error _ -> () (* reported by dist-normalized *)
              | Ok d ->
                  List.iter
                    (fun s ->
                      if (s < 0 || s >= arity) && not (Hashtbl.mem seen s)
                      then begin
                        Hashtbl.add seen s ();
                        acc :=
                          err ~rule ~path
                            (Printf.sprintf
                               "emit law places mass on symbol %d outside \
                                arity %d (first seen on domain input #%d)"
                               s arity i)
                          :: !acc
                      end)
                    (D.support d))
            domain;
          !acc)
    [] tree
  |> List.rev |> Report.of_list

(* ------------------------------------------------------------------ *)
(* (3) speaker-bounds                                                  *)
(* ------------------------------------------------------------------ *)

(** Speaker indices must name real players: non-negative always, and
    below the declared player count when one is given. *)
let speaker_bounds ?players tree =
  let rule = id_speaker_bounds in
  fold_nodes
    (fun acc path t ->
      match t with
      | T.Output _ | T.Chance _ -> acc
      | T.Speak { speaker; _ } ->
          if speaker < 0 then
            err ~rule ~path
              (Printf.sprintf "negative speaker index %d" speaker)
            :: acc
          else (
            match players with
            | Some k when speaker >= k ->
                err ~rule ~path
                  (Printf.sprintf
                     "speaker %d out of range for %d declared players"
                     speaker k)
                :: acc
            | _ -> acc))
    [] tree
  |> List.rev |> Report.of_list

(* ------------------------------------------------------------------ *)
(* (4) broadcast-consistency                                           *)
(* ------------------------------------------------------------------ *)

(* The shape of the next charged event reachable through chance-only
   paths: who writes next and at what arity, or termination. *)
type next_shape = Halts | Writes of int * int  (** speaker, arity *)

let compare_shape a b =
  match (a, b) with
  | Halts, Halts -> 0
  | Halts, Writes _ -> -1
  | Writes _, Halts -> 1
  | Writes (s1, a1), Writes (s2, a2) ->
      if s1 <> s2 then Int.compare s1 s2 else Int.compare a1 a2

let shape_to_string = function
  | Halts -> "halt"
  | Writes (s, a) -> Printf.sprintf "p%d@arity %d" s a

(* Set (sorted list) of next-event shapes reachable from a subtree with
   positive coin probability before any message is written. *)
let rec next_shapes t =
  match t with
  | T.Output _ -> [ Halts ]
  | T.Speak { speaker; children; _ } ->
      [ Writes (speaker, Array.length children) ]
  | T.Chance { coin; children; _ } ->
      let acc = ref [] in
      Array.iteri
        (fun i c ->
          if R.sign (D.prob_of coin i) > 0 then acc := next_shapes c @ !acc)
        children;
      List.sort_uniq compare_shape !acc

(** Section 3's schedule condition: whose turn it is to speak — and the
    alphabet they write from — is a function of the {e charged} board
    contents alone. Within one tree, distinct message prefixes reach
    distinct nodes, so the condition is structural — except across
    public coins, which write nothing chargeable: every
    positive-probability branch of a [Chance] node must lead to the
    same next charged event (same speaker and arity, or termination in
    every branch). Hand-merged trees that steer the schedule by a free
    coin violate exactly this. *)
let broadcast_consistency tree =
  let rule = id_broadcast_consistency in
  fold_nodes
    (fun acc path t ->
      match t with
      | T.Output _ | T.Speak _ -> acc
      | T.Chance { coin; children; _ } ->
          let sigs =
            Array.to_list children
            |> List.mapi (fun i c -> (i, c))
            |> List.filter (fun (i, _) -> R.sign (D.prob_of coin i) > 0)
            |> List.map (fun (i, c) -> (i, next_shapes c))
          in
          let distinct =
            List.sort_uniq compare (List.map snd sigs)
          in
          if List.length distinct <= 1 then acc
          else
            let show (i, shapes) =
              Printf.sprintf "branch %d -> {%s}" i
                (String.concat ", " (List.map shape_to_string shapes))
            in
            err ~rule ~path
              (Printf.sprintf
                 "schedule depends on a free public coin: %s"
                 (String.concat "; " (List.map show sigs)))
            :: acc)
    [] tree
  |> List.rev |> Report.of_list

(* ------------------------------------------------------------------ *)
(* (5) dead-branch                                                     *)
(* ------------------------------------------------------------------ *)

(** A child is dead when no input in the domain gives its symbol
    positive probability (for coins: the coin itself). Dead children
    are legal but inflate [communication_cost] and the
    [bits_of_arity] charge of their parent — the symbol could be
    removed and the alphabet shrunk. Reported once per dead child;
    the dead subtree itself is not descended into. *)
let dead_branch ~domain tree =
  let rule = id_dead_branch in
  let diags = ref [] in
  let rec go path t =
    match t with
    | T.Output _ -> ()
    | T.Chance { coin; children; _ } ->
        Array.iteri
          (fun i c ->
            if R.sign (D.prob_of coin i) > 0 then go (Path.child path i) c
            else
              diags :=
                warn ~rule ~path:(Path.child path i)
                  (Printf.sprintf
                     "coin branch %d has probability 0; it still inflates \
                      the tree"
                     i)
                :: !diags)
          children
    | T.Speak { emit; children; _ } ->
        let laws =
          Array.to_list domain
          |> List.filter_map (fun x ->
                 match eval_emit emit x with Ok d -> Some d | Error _ -> None)
        in
        (* A law that raises makes reachability unknown; stay silent
           (dist-normalized already reported the raise). *)
        let complete = List.length laws = Array.length domain in
        Array.iteri
          (fun i c ->
            let reachable =
              List.exists (fun d -> R.sign (D.prob_of d i) > 0) laws
            in
            if reachable || not complete then go (Path.child path i) c
            else
              diags :=
                warn ~rule ~path:(Path.child path i)
                  (Printf.sprintf
                     "child %d is unreachable under every domain input; it \
                      inflates the arity charge (%d bits) of its parent"
                     i
                     (T.bits_of_arity (Array.length children)))
                :: !diags)
          children
  in
  go Path.root tree;
  Report.of_list (List.rev !diags)

(* ------------------------------------------------------------------ *)
(* (6) bit-accounting                                                  *)
(* ------------------------------------------------------------------ *)

(* Independent re-derivation of the per-message charge: the number of
   bits b with 2^b >= n. Deliberately not Coding.Intcode.fixed_width —
   the point is to cross-check it. *)
let ceil_log2 n =
  if n <= 1 then 0
  else begin
    let bits = ref 0 and cap = ref 1 in
    while !cap < n do
      incr bits;
      cap := !cap * 2
    done;
    !bits
  end

let rec worst_case_bits = function
  | T.Output _ -> 0
  | T.Speak { children; _ } ->
      ceil_log2 (Array.length children)
      + Array.fold_left (fun acc c -> max acc (worst_case_bits c)) 0 children
  | T.Chance { children; _ } ->
      Array.fold_left (fun acc c -> max acc (worst_case_bits c)) 0 children

(** Recompute the worst-case communication cost from raw arities and
    cross-check {!Tree.communication_cost} (and, when given, a declared
    cost such as a registry entry's) against it. *)
let bit_accounting ?declared_cost tree =
  let rule = id_bit_accounting in
  let recomputed = worst_case_bits tree in
  let reported = T.communication_cost tree in
  let acc =
    if reported <> recomputed then
      [
        err ~rule ~path:Path.root
          (Printf.sprintf
             "Tree.communication_cost reports %d bits but arity accounting \
              gives %d"
             reported recomputed);
      ]
    else []
  in
  let acc =
    match declared_cost with
    | Some c when c < 0 ->
        (* A dedicated diagnostic, not an exception: a negative
           declaration is a caller bug the analyzer must survive and
           report like any other wrong measure. *)
        err ~rule ~path:Path.root
          (Printf.sprintf
             "declared worst-case cost %d is negative; bit costs are \
              non-negative (arity accounting gives %d)"
             c recomputed)
        :: acc
    | Some c when c <> recomputed ->
        err ~rule ~path:Path.root
          (Printf.sprintf
             "declared worst-case cost %d bits but arity accounting gives %d"
             c recomputed)
        :: acc
    | _ -> acc
  in
  Report.of_list (List.rev acc)

(* ------------------------------------------------------------------ *)
(* (7) state-space-budget                                              *)
(* ------------------------------------------------------------------ *)

let default_state_budget = 1_000_000

(* Leaf count with a cap: stops as soon as the count can no longer stay
   under the cap, so the pass is cheap even on blow-up trees. *)
let count_leaves_capped ~cap tree =
  let count = ref 0 in
  let rec go t =
    if !count <= cap then
      match t with
      | T.Output _ -> incr count
      | T.Speak { children; _ } | T.Chance { children; _ } ->
          Array.iter go children
  in
  go tree;
  (!count, !count > cap)

(** Estimate the state space of an exact [Semantics.joint] run —
    (inputs in the domain product) x (transcript leaves) — and warn
    when it exceeds the budget. This is the exponential-blowup failure
    mode of [bench/e2_disj_scaling.ml]: the walk is legal but will not
    finish; use the operational {!Blackboard} runtime instead, or raise
    the budget knowingly. *)
let state_space ?(budget = default_state_budget) ~players ~domain tree =
  let rule = id_state_space in
  let inputs_f = float_of_int (Array.length domain) ** float_of_int players in
  let budget_f = float_of_int budget in
  let cap =
    if inputs_f >= budget_f then 0
    else min budget (int_of_float (budget_f /. inputs_f)) + 1
  in
  let leaves, capped = count_leaves_capped ~cap tree in
  let estimate = float_of_int leaves *. inputs_f in
  if estimate <= budget_f then Report.empty
  else
    Report.of_list
      [
        warn ~rule ~path:Path.root
          (Printf.sprintf
             "exact joint-law enumeration needs %s%.3g states (%d players x \
              %d domain points -> %.3g input profiles, x %s%d transcript \
              leaves), over the budget of %d; exact semantics will blow up \
              — use the operational runtime or raise the budget"
             (if capped then ">= " else "")
             estimate players (Array.length domain) inputs_f
             (if capped then ">= " else "")
             leaves budget);
      ]

(* ------------------------------------------------------------------ *)
(* (8) unreachable-output                                               *)
(* ------------------------------------------------------------------ *)

(** An output value that appears at some leaf but is {e provably} never
    produced: no input profile in the domain reaches any leaf carrying
    it. The proof obligation is discharged by {!Absint.analyze}, whose
    reachable-leaf rectangles are exact (Lemma-6 products), so a value
    flagged here is dead under every execution — typically a symptom of
    a mis-wired branch or an over-wide output alphabet. Reported once
    per value, at its first declaring leaf. Stays silent when the
    abstract interpretation widened or saw failing laws, since
    reachability is then unknown. *)
let unreachable_output ?budget ?players ~domain tree =
  let rule = id_unreachable_output in
  let summary = Absint.analyze ?budget ?players ~domain tree in
  if summary.Absint.widened || summary.Absint.law_failures > 0 then
    Report.empty
  else begin
    let reachable = Hashtbl.create 8 in
    List.iter
      (fun (l : Absint.leaf) -> Hashtbl.replace reachable l.Absint.output ())
      summary.Absint.leaves;
    (* First declaring leaf of each output value, in pre-order. *)
    let declared = ref [] in
    let seen = Hashtbl.create 8 in
    ignore
      (fold_nodes
         (fun () path t ->
           match t with
           | T.Output { value = v; _ } when not (Hashtbl.mem seen v) ->
               Hashtbl.add seen v ();
               declared := (v, path) :: !declared
           | _ -> ())
         () tree);
    List.rev !declared
    |> List.filter_map (fun (v, path) ->
           if Hashtbl.mem reachable v then None
           else
             Some
               (warn ~rule ~path
                  (Printf.sprintf
                     "output value %d is declared here but proven \
                      unreachable: no domain input profile reaches any \
                      leaf producing it"
                     v)))
    |> Report.of_list
  end

(* ------------------------------------------------------------------ *)
(* (9) redundant-slot                                                  *)
(* ------------------------------------------------------------------ *)

(** A board slot whose posted value no later emit law or branch can
    observe and that cannot influence the output is pure waste: the
    protocol would compute the same function without charging for it.
    Derived from the {!Depgraph} read-sets, so proven-dead readers do
    not keep a slot alive; silent when the dependency analysis widened
    or laws failed, since the read-sets are then incomplete. *)
let redundant_slot ?budget ?players ~domain tree =
  let rule = id_redundant_slot in
  let dg = Depgraph.analyze ?budget ?players ~domain tree in
  if dg.Depgraph.widened || dg.Depgraph.law_failures > 0 then Report.empty
  else begin
    let read = Array.make (max dg.Depgraph.slots 1) false in
    Array.iter
      (fun rs -> List.iter (fun s -> read.(s) <- true) rs)
      dg.Depgraph.reads;
    let ds = ref [] in
    for s = dg.Depgraph.slots - 1 downto 0 do
      if (not read.(s)) && not dg.Depgraph.output_relevant.(s) then
        ds :=
          warn ~rule ~path:Path.root
            (Printf.sprintf
               "slot %d (speakers {%s}) is redundant: no later emit law or \
                branch reads it and it cannot influence the output"
               s
               (String.concat ","
                  (List.map string_of_int dg.Depgraph.speakers.(s))))
          :: !ds
    done;
    Report.of_list !ds
  end

(* ------------------------------------------------------------------ *)
(* Player inference                                                    *)
(* ------------------------------------------------------------------ *)

let inferred_players = Walk.inferred_players
