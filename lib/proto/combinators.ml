(** Combinators on protocol trees.

    Protocols compose: outputs can be post-processed, inputs can be
    adapted, and two protocols can run one after the other on the same
    blackboard — the construction behind "solve [n] independent copies"
    ([T(f^n, eps)] of Section 6) and behind reductions between problems.
    All combinators preserve the exact semantics; their algebraic laws
    (cost additivity, information additivity on independent inputs) are
    exercised by the test suite. *)

(** [map_output f t] applies [f] to the protocol's output; communication
    and transcripts are unchanged. *)
let rec map_output f = function
  | Tree.Output { value; _ } -> Tree.output (f value)
  | Tree.Speak { speaker; emit; children; _ } ->
      Tree.speak_unguarded ~speaker ~emit (Array.map (map_output f) children)
  | Tree.Chance { coin; children; _ } ->
      Tree.chance ~coin (Array.map (map_output f) children)

(** [contramap_input g t] adapts a protocol over inputs ['a] to inputs
    ['b] by pre-composing every message law with [g] — e.g. running a
    one-bit protocol on one coordinate of a vector input. *)
let rec contramap_input g = function
  | Tree.Output { value; _ } -> Tree.output value
  | Tree.Speak { speaker; emit; children; _ } ->
      Tree.speak_unguarded ~speaker
        ~emit:(fun b -> emit (g b))
        (Array.map (contramap_input g) children)
  | Tree.Chance { coin; children; _ } ->
      Tree.chance ~coin (Array.map (contramap_input g) children)

(** [sequence t1 t2 ~combine] runs [t1] to completion, then [t2], and
    outputs [combine out1 out2]. The continuation tree is shared across
    the leaves of [t1], so the construction is linear in
    [size t1 + size t2] per distinct output of [t1]. *)
let sequence t1 t2 ~combine =
  (* memoize the second tree's relabelled copies per out1 value *)
  let tbl = Hashtbl.create 4 in
  let continuation out1 =
    match Hashtbl.find_opt tbl out1 with
    | Some t -> t
    | None ->
        let t = map_output (fun out2 -> combine out1 out2) t2 in
        Hashtbl.add tbl out1 t;
        t
  in
  let rec go = function
    | Tree.Output { value; _ } -> continuation value
    | Tree.Speak { speaker; emit; children; _ } ->
        Tree.speak_unguarded ~speaker ~emit (Array.map go children)
    | Tree.Chance { coin; children; _ } ->
        Tree.chance ~coin (Array.map go children)
  in
  go t1

(** [parallel_copies base ~copies] runs [copies] instances of a one-bit
    protocol [base] sequentially on vector inputs (copy [c] reads bit
    [x.(c)]), outputting the results packed little-endian into an int.
    This is the generic [T(f^n)] construction; with independent inputs
    per copy, its information cost is exactly [copies] times the base
    cost (Theorem 4's lower-bound side, tested exactly). *)
let parallel_copies base ~copies =
  if copies < 1 then invalid_arg "Combinators.parallel_copies";
  if copies > 20 then invalid_arg "Combinators.parallel_copies: too many";
  let rec go c =
    let this = contramap_input (fun x -> x.(c)) base in
    if c = copies - 1 then map_output (fun v -> v lsl c) this
    else
      sequence this (go (c + 1)) ~combine:(fun v rest -> (v lsl c) lor rest)
  in
  go 0

(** [xor_output_with_coin t] appends a free public coin flip and XORs it
    into a boolean output — output-randomization that provably adds zero
    information about the inputs (a test fixture for chance-node
    semantics). *)
let xor_output_with_coin t =
  let coin = Prob.Dist_exact.uniform [ 0; 1 ] in
  let rec go = function
    | Tree.Output { value; _ } ->
        Tree.chance ~coin [| Tree.output value; Tree.output (1 - value) |]
    | Tree.Speak { speaker; emit; children; _ } ->
        Tree.speak_unguarded ~speaker ~emit (Array.map go children)
    | Tree.Chance { coin; children; _ } ->
        Tree.chance ~coin (Array.map go children)
  in
  go t
