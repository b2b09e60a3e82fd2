(** Yao's minimax principle, easy direction, as an executable check: a
    test fixture, used by the combinator and random-tree suites.

    Lemma 6 relies on it: to lower-bound worst-case randomized
    complexity it suffices to lower-bound the distributional complexity
    of deterministic protocols. Operationally: fixing the public coins of a
    randomized protocol yields a mixture of deterministic protocols, and
    the randomized protocol's distributional error is the mixture of
    theirs — so {e some} deterministic restriction does at least as well.
    This module enumerates the restrictions and verifies both facts
    exactly on concrete trees.

    (Only public coins are fixed: private randomness inside [emit]
    distributions is part of a player's strategy and is untouched. For
    the "fully deterministic" statement, use trees whose emissions are
    point masses, as Lemma 6 does.) *)

module D = Prob.Dist_exact
module R = Exact.Rational
module T = Proto.Tree

(** All public-coin restrictions of a tree, with their probabilities:
    each result contains no [Chance] nodes. *)
let rec coin_restrictions tree =
  match tree with
  | T.Output _ -> [ (tree, R.one) ]
  | T.Speak { speaker; emit; children; _ } ->
      (* cartesian product of child restrictions *)
      let child_choices = Array.map coin_restrictions children in
      let rec cross i =
        if i = Array.length child_choices then [ ([], R.one) ]
        else
          List.concat_map
            (fun (t, w) ->
              List.map
                (fun (rest, wr) -> (t :: rest, R.mul w wr))
                (cross (i + 1)))
            child_choices.(i)
      in
      List.map
        (fun (children, w) ->
          (T.speak_unguarded ~speaker ~emit (Array.of_list children), w))
        (cross 0)
  | T.Chance { coin; children; _ } ->
      List.concat_map
        (fun (c, w) ->
          List.map
            (fun (t, wt) -> (t, R.mul w wt))
            (coin_restrictions children.(c)))
        (D.to_alist coin)

(** Exact decomposition: the distributional error of [tree] under [mu]
    equals the mixture of its coin-restrictions' errors. Returns
    [(randomized error, weighted restriction errors)]. *)
let error_mixture tree ~f mu =
  let randomized = Proto.Semantics.distributional_error tree ~f mu in
  let parts =
    List.map
      (fun (t, w) -> (w, Proto.Semantics.distributional_error t ~f mu))
      (coin_restrictions tree)
  in
  (randomized, parts)

(** The easy direction itself: the best deterministic restriction's
    distributional error is at most the randomized protocol's. Returns
    [(best restriction error, randomized error)]. *)
let easy_direction tree ~f mu =
  let randomized, parts = error_mixture tree ~f mu in
  let best =
    List.fold_left (fun acc (_, e) -> R.min acc e) R.one parts
  in
  (best, randomized)
