(** Differential suite: {!Analysis.Infoflow.analyze}, which summarizes
    each weight row once, against the per-(leaf, player) derivation in
    [Infoflow_ref]. Both brackets, [expected_bits], [entropy_hi],
    [max_leaf_mass], [total_mass] and every leaf must be equal as exact
    rationals, on every registry entry and on random trees, under the
    uniform marginal and under random marginals with zero weights,
    where leaves of mass 0 (a row with [s = 0]) appear. *)

module F = Analysis.Infoflow
module Ref = Infoflow_ref
module Reg = Protocols.Registry
module R = Exact.Rational
open Test_util

let check_equal ~msg (a : F.t) (b : F.t) =
  let rat what x y =
    if not (R.equal x y) then
      Alcotest.failf "%s: %s %s <> %s" msg what (R.to_string x) (R.to_string y)
  in
  let flag what x y =
    if x <> y then Alcotest.failf "%s: %s %b <> %b" msg what x y
  in
  flag "sound" a.sound b.sound;
  flag "widened" a.widened b.widened;
  flag "deterministic" a.deterministic b.deterministic;
  if a.nodes <> b.nodes || a.law_failures <> b.law_failures then
    Alcotest.failf "%s: walk counts differ" msg;
  rat "external lo" a.external_ic.lo b.external_ic.lo;
  rat "external hi" a.external_ic.hi b.external_ic.hi;
  rat "internal lo" a.internal_ic.lo b.internal_ic.lo;
  rat "internal hi" a.internal_ic.hi b.internal_ic.hi;
  rat "expected_bits" a.expected_bits b.expected_bits;
  rat "entropy_hi" a.entropy_hi b.entropy_hi;
  rat "max_leaf_mass" a.max_leaf_mass b.max_leaf_mass;
  rat "total_mass" a.total_mass b.total_mass;
  if List.length a.leaves <> List.length b.leaves then
    Alcotest.failf "%s: leaf counts differ" msg;
  List.iter2
    (fun (x : F.leaf) (y : F.leaf) ->
      if
        Analysis.Path.to_string x.leaf_path
        <> Analysis.Path.to_string y.leaf_path
        || x.output <> y.output || x.bits <> y.bits
      then Alcotest.failf "%s: leaves differ" msg;
      rat "leaf mass" x.mass y.mass)
    a.leaves b.leaves

(* A marginal over [d] points with small integer weights, about a third
   of them 0 (never all of them). *)
let random_mu rng d =
  let w =
    Array.init d (fun _ ->
        if Prob.Rng.int rng 3 = 0 then 0 else 1 + Prob.Rng.int rng 4)
  in
  if Array.for_all (( = ) 0) w then w.(Prob.Rng.int rng d) <- 1;
  let total = Array.fold_left ( + ) 0 w in
  Array.map (fun x -> R.of_ints x total) w

let same ~msg ?players ?mu ~domain tree =
  check_equal ~msg
    (F.analyze ?players ?mu ~domain tree)
    (Ref.analyze ?players ?mu ~domain tree)

let t_registry () =
  let rng = Prob.Rng.of_int_seed 0x1F10 in
  List.iter
    (fun (Reg.Entry e as entry) ->
      let tree = Lazy.force e.tree and d = Array.length e.domain in
      let name = Reg.name entry in
      same ~msg:(name ^ ", uniform") ~players:e.players ~domain:e.domain tree;
      for i = 1 to 4 do
        same
          ~msg:(Printf.sprintf "%s, random mu %d" name i)
          ~players:e.players ~mu:(random_mu rng d) ~domain:e.domain tree
      done;
      (* every point but the last: deterministic entries reach rows
         whose only live inputs carry no mass *)
      if d > 1 then begin
        let mu =
          Array.init d (fun v ->
              if v = d - 1 then R.zero else R.of_ints 1 (d - 1))
        in
        same ~msg:(name ^ ", last point empty") ~players:e.players ~mu
          ~domain:e.domain tree
      end)
    (Reg.all ())

(* A speaker whose law barely depends on its input: the row's KL is
   ~2^-42, far inside the log brackets' width, so its lower sum is
   negative and only the clamp at 0 keeps it sound. *)
let t_clamped_row () =
  let eps = R.of_ints 1 (1 lsl 20) in
  let law0 = Prob.Dist_exact.of_weighted [ (0, R.half); (1, R.half) ]
  and law1 =
    Prob.Dist_exact.of_weighted
      [ (0, R.add R.half eps); (1, R.sub R.half eps) ]
  in
  let tree =
    Proto.Tree.speak ~speaker:0
      ~emit:(fun b -> if b = 0 then law0 else law1)
      [| Proto.Tree.output 0; Proto.Tree.output 1 |]
  in
  same ~msg:"near-zero KL" ~domain:[| 0; 1 |] tree

let prop_random_trees =
  qtest "random trees: per-row summaries equal the per-leaf derivation"
    ~count:100 QCheck.small_nat (fun seed ->
      let rng = Prob.Rng.of_int_seed (0x3CF10 + seed) in
      let k = 2 + Prob.Rng.int rng 3 in
      let tree =
        Test_random_trees.random_tree ~rng ~k ~depth:(2 + Prob.Rng.int rng 3)
      in
      let domain = [| 0; 1; 2 |] in
      same ~msg:"uniform" ~domain tree;
      same ~msg:"random mu" ~mu:(random_mu rng 3) ~domain tree;
      same ~msg:"point mass" ~mu:[| R.zero; R.one; R.zero |] ~domain tree;
      true)

let suite =
  [
    quick "registry: every entry, uniform and zero-weight marginals"
      t_registry;
    quick "a row whose KL lower sum is negative" t_clamped_row;
    prop_random_trees;
  ]
