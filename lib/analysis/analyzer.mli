(** Proto-lint entry point: run the whole rule catalog of {!Rules}
    over a protocol tree, without executing it. *)

type config = {
  players : int option;
      (** declared player count; inferred from speakers when absent *)
  declared_cost : int option;
      (** externally declared worst-case bit cost to cross-check *)
  state_budget : int;  (** node budget for exact-semantics estimates *)
}

val analyze_with : config -> domain:'a array -> 'a Proto.Tree.t -> Report.t
(** @raise Invalid_argument on an empty domain. *)

val analyze :
  ?players:int ->
  ?declared_cost:int ->
  ?state_budget:int ->
  domain:'a array ->
  'a Proto.Tree.t ->
  Report.t
(** [analyze ~domain tree] runs every rule with [domain] as the set of
    possible per-player inputs. [players] enables the speaker upper
    bound and sharpens the state-space estimate (otherwise inferred as
    one past the largest speaker). [declared_cost] cross-checks an
    externally declared worst-case bit cost. [state_budget] bounds the
    estimated exact-semantics state space (default
    {!Rules.default_state_budget}).
    @raise Invalid_argument on an empty domain. *)
