(** Proto-lint entry point: run the whole rule catalog over a tree.

    [analyze] verifies protocol well-formedness {e statically} — the
    protocol is never executed; laws are evaluated pointwise on the
    declared domain and everything else is tree structure. A clean
    report is the precondition the exact machinery
    ({!Proto.Semantics}, {!Proto.Information}) assumes and, until this
    pass existed, only discovered by crashing mid-walk or silently
    mis-charging. *)

type config = {
  players : int option;
      (** declared player count; inferred from speakers when absent *)
  declared_cost : int option;
      (** externally declared worst-case bit cost to cross-check *)
  state_budget : int;  (** node budget for exact-semantics estimates *)
}

let analyze_with config ~domain tree =
  if Array.length domain = 0 then
    invalid_arg "Analysis.Analyzer.analyze: empty domain";
  let players =
    match config.players with
    | Some k -> k
    | None -> Rules.inferred_players tree
  in
  Report.concat
    [
      Rules.dist_normalized ~domain tree;
      Rules.support_in_arity ~domain tree;
      Rules.speaker_bounds ?players:config.players tree;
      Rules.broadcast_consistency tree;
      Rules.dead_branch ~domain tree;
      Rules.bit_accounting ?declared_cost:config.declared_cost tree;
      Rules.state_space ~budget:config.state_budget ~players ~domain tree;
      Rules.unreachable_output ?players:config.players ~domain tree;
      Rules.redundant_slot ?players:config.players ~domain tree;
    ]

let analyze ?players ?declared_cost ?state_budget ~domain tree =
  let config =
    {
      players;
      declared_cost;
      state_budget =
        Option.value ~default:Rules.default_state_budget state_budget;
    }
  in
  analyze_with config ~domain tree
