(** Exact distributional semantics of protocol trees. *)

module D = Prob.Dist_exact
module R = Exact.Rational

(* A law is a function of (node, inputs) alone, so a table keyed on the
   node's id plus the structural inputs can be carried across calls —
   unlike the per-call table below, which is only sound because the
   inputs are fixed for its whole lifetime. Structural equality on the
   inputs is what makes rebuilt-but-equal input arrays (every
   [all_bit_inputs] call allocates fresh ones) hit. *)
module Cross = Hashtbl.Make (struct
  type t = int * Obj.t  (* tree node id, structural inputs *)

  let equal (n1, x1) (n2, x2) = n1 = n2 && Stdlib.compare x1 x2 = 0
  let hash (n, x) = Hashtbl.hash (n, Hashtbl.hash x)
end)

type kept = ..

(* [kept] holds one table over one input law, keyed on the tree's id and
   the law's physical identity: a law is immutable once built, so the
   same law at the same address is the same law. *)
type memo = {
  laws : Tree.transcript D.t Cross.t;
  mutable kept : (int * Obj.t * kept) option;
}

let memo () = { laws = Cross.create 256; kept = None }
let memo_size m = Cross.length m.laws

let kept m tree law =
  match m.kept with
  | Some (id, l, k) when id = Tree.id tree && l == Obj.repr law -> Some k
  | _ -> None

let keep m tree law k = m.kept <- Some (Tree.id tree, Obj.repr law, k)

(** [transcript_dist tree inputs] is the exact law of the full transcript
    when player [i] holds [inputs.(i)].

    Subtree laws are memoized per node ({!Tree.id}) within one call:
    combinators such as {!Combinators.sequence} build DAGs in which
    subtrees are shared across many branches, and the law of a node is a
    function of the node alone once [inputs] is fixed, so each distinct
    node is evaluated exactly once. Passing [memo] additionally shares
    laws {e across} calls, keyed on (node, inputs) — profitable for
    sweeps that walk the same tree on the same inputs repeatedly
    (information measures computed side by side, differential
    benchmarks), where each call would otherwise start cold.

    The continuation under a [Speak] or [Chance] node prefixes every
    transcript with that node's event, so the child laws have pairwise
    disjoint supports and prefixing is injective — [bind_disjoint] and
    [map_injective] therefore produce the same items, weights, and item
    order as the generic [bind]/[map], without the dedupe/renormalize
    round-trip. *)
let transcript_dist ?memo tree inputs =
  let xkey = Obj.repr inputs in
  let find_shared key =
    match memo with
    | None -> None
    | Some m -> Cross.find_opt m.laws (key, xkey)
  in
  match find_shared (Tree.id tree) with
  | Some d -> d (* a law already shared costs no per-call table *)
  | None ->
      let add_shared key d =
        match memo with
        | None -> ()
        | Some m -> Cross.replace m.laws (key, xkey) d
      in
      let local = Tree.Tbl.create 64 in
      let rec go tree =
        let key = Tree.id tree in
        match Tree.Tbl.find_opt local key with
        | Some d -> d
        | None -> (
            match find_shared key with
            | Some d ->
                Tree.Tbl.add local key d;
                d
            | None -> build key tree)
      and build key tree =
        let d =
          match tree with
          | Tree.Output _ -> D.return []
          | Tree.Speak { speaker; emit; children; _ } ->
              let msg_dist = emit inputs.(speaker) in
              D.bind_disjoint msg_dist (fun m ->
                  D.map_injective
                    (fun rest -> Tree.Msg (speaker, m) :: rest)
                    (go children.(m)))
          | Tree.Chance { coin; children; _ } ->
              D.bind_disjoint coin (fun c ->
                  D.map_injective
                    (fun rest -> Tree.Coin c :: rest)
                    (go children.(c)))
        in
        Tree.Tbl.add local key d;
        add_shared key d;
        d
      in
      (* the root missed the shared memo above *)
      build (Tree.id tree) tree

(** Law of the protocol's output on fixed inputs. *)
let output_dist tree inputs =
  D.map (Tree.output_of tree) (transcript_dist tree inputs)

(** Exact probability that the protocol errs on fixed [inputs] against
    the reference function [f]: [P(output <> f inputs)] under the output
    law, without building it. One walk of the nodes the emit laws reach
    (each node once, as [transcript_dist] shares a DAG's subtrees) gives
    every node the exact mass of the paths below it and of those among
    them that end at a leaf other than [f inputs]; the error is their
    ratio at the root, divided out only when the mass is not one, as
    the output law's renormalization divides. A piece of non-positive
    weight adds nothing, as the output law drops such paths (the same
    thing whenever weights are non-negative, as in every law
    [Prob.Dist_exact] builds). *)
let error_on tree ~f inputs =
  let want = f inputs and local = Tree.Tbl.create 16 in
  let add a b = if R.is_zero a then b else R.add a b in
  let rec go = function
    | Tree.Output { value; _ } ->
        ((if value <> want then R.one else R.zero), R.one)
    | Tree.Speak { speaker; emit; children; id } ->
        node id (emit inputs.(speaker)) children
    | Tree.Chance { coin; children; id } -> node id coin children
  and node id law children =
    match Tree.Tbl.find_opt local id with
    | Some p -> p
    | None ->
        let p =
          List.fold_left
            (fun (wrong, all) (m, w) ->
              let wrong', all' = go children.(m) in
              if R.sign w <= 0 then (wrong, all)
              else if R.is_one w then (add wrong wrong', add all all')
              else (add wrong (R.mul w wrong'), add all (R.mul w all')))
            (R.zero, R.zero) (D.to_alist law)
        in
        Tree.Tbl.add local id p;
        p
  in
  let wrong, all = go tree in
  if R.sign all <= 0 then invalid_arg "Dist.of_weighted: no positive mass";
  if R.is_one all then wrong else R.div wrong all

(** Worst-case error over an explicit list of inputs (for total functions
    this is the whole domain; for promise problems, the promise set). *)
let worst_case_error tree ~f inputs_list =
  List.fold_left (fun acc x -> R.max acc (error_on tree ~f x)) R.zero
    inputs_list

(** Distributional error under an input distribution [mu]. *)
let distributional_error tree ~f mu =
  List.fold_left
    (fun acc (x, w) -> R.add acc (R.mul w (error_on tree ~f x)))
    R.zero (D.to_alist mu)

(** Joint law of [(inputs, transcript)] when inputs are drawn from [mu].
    This is the object every information quantity is computed from. *)
let joint ?memo tree mu =
  D.bind mu (fun x -> D.map (fun t -> (x, t)) (transcript_dist ?memo tree x))

(** Joint law of [((inputs, aux), transcript)] for a distribution [mu]
    on inputs paired with an auxiliary variable (the [D] of conditional
    information cost). *)
let joint_with_aux ?memo tree mu_xd =
  D.bind mu_xd (fun (x, d) ->
      D.map (fun t -> (x, d, t)) (transcript_dist ?memo tree x))

(** Law of the transcript alone under [mu]. *)
let transcript_law ?memo tree mu = D.map snd (joint ?memo tree mu)

(** Expected communication cost (bits) under [mu] — contrast with the
    worst-case [Tree.communication_cost]. *)
let expected_bits ?memo tree mu =
  D.expectation_with
    (fun (_, t) -> float_of_int (Tree.transcript_bits tree t))
    (joint ?memo tree mu)

(** Enumerate all bit-vectors of length [k] as int arrays — the standard
    input domain for the one-bit problems ([AND_k]). *)
let all_bit_inputs k =
  List.init (1 lsl k) (fun code ->
      Array.init k (fun i -> (code lsr i) land 1))

module For_testing = struct
  let error_on_ref tree ~f inputs =
    D.prob (output_dist tree inputs) (fun v -> v <> f inputs)
end
