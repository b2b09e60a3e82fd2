(** Registry of shipped protocols, for linting and tooling.

    Every protocol tree the library ships self-registers here at a
    small, exactly-analyzable parameter point, together with the
    metadata the static analyzer needs: the player count, the domain of
    per-player inputs, and (when the module documents one) the declared
    worst-case bit cost to cross-check. The [lint] subcommand of
    [broadcast_cli] and the tier-1 registry sweep in
    [test/test_analysis.ml] both iterate [all ()], so a protocol added
    here is linted on every [dune runtest] and every CI push.

    The operational disjointness solvers ({!Disj_trivial},
    {!Disj_naive}, {!Disj_batched}) run on a blackboard, not a tree;
    they are represented by their exact tree models from {!Disj_trees}
    at small scale, as noted per entry.

    Downstream protocols register with {!register}. *)

type entry =
  | Entry : {
      name : string;
      players : int;
      domain : 'a array;  (** possible per-player inputs *)
      tree : 'a Proto.Tree.t Lazy.t;
      declared_cost : int option;
          (** documented worst-case bits, cross-checked by proto-lint *)
      spec : ('a array -> int) option;
          (** reference function on input profiles; deterministic
              entries that declare one are zero-error certified against
              it by proto-verify *)
      symmetry : Proto.Symmetry.t;
          (** declared player-permutation invariance of the {e output
              law} (not the transcript); licenses the orbit engine and
              is soundness-checked by {!symmetry_witness} in the test
              sweep. Defaults to trivial. *)
      note : string;
    }
      -> entry

let name (Entry e) = e.name
let players (Entry e) = e.players
let note (Entry e) = e.note
let declared_cost (Entry e) = e.declared_cost
let has_spec (Entry e) = Option.is_some e.spec
let symmetry (Entry e) = e.symmetry

let entry ~name ~players ?declared_cost ?spec ?(symmetry = Proto.Symmetry.Trivial)
    ?(note = "") ~domain tree =
  Entry { name; players; domain; tree; declared_cost; spec; symmetry; note }

(** Soundness check of the declared symmetry: [None] when the entry's
    output law is invariant under the whole declared group; otherwise a
    concrete witness input pair whose exact output laws differ, reported
    as per-player indices into the entry's domain (the inputs themselves
    are existentially typed). Exhaustive in the entry's domain —
    registry entries are small by construction. *)
let symmetry_witness (Entry { players; domain; tree; symmetry; _ }) =
  let index_of v =
    let n = Array.length domain in
    let rec go i =
      if i = n then -1
      else if Stdlib.compare domain.(i) v = 0 then i
      else go (i + 1)
    in
    go 0
  in
  Proto.Symmetry.check_tree symmetry ~players ~domain (Lazy.force tree)
  |> Option.map (fun (x, x') -> (Array.map index_of x, Array.map index_of x'))

(* Per-player input domains. *)
let bit_domain = [| 0; 1 |]

let vector_domain n =
  Array.of_list (Proto.Semantics.all_bit_inputs n)

(* Reference functions certified by proto-verify. The randomized
   entries (and/noisy, compress/xor-coin-sequential) declare none:
   zero-error certification covers deterministic trees only. *)
let and_of_coord c xs =
  Array.fold_left (fun acc x -> acc land x.(c)) 1 xs

let pack_vector x =
  Array.fold_left (fun acc b -> (2 * acc) + b) 0 x

let builtins =
  lazy
    [
      entry ~name:"and/sequential" ~players:5 ~declared_cost:5
        ~spec:Hard_dist.and_fn ~symmetry:Proto.Symmetry.Full
        ~note:"halt at the first zero; CC = k" ~domain:bit_domain
        (lazy (And_protocols.sequential 5));
      entry ~name:"and/broadcast-all" ~players:4 ~declared_cost:4
        ~spec:Hard_dist.and_fn ~symmetry:Proto.Symmetry.Full
        ~note:"everyone speaks; the maximally leaky baseline"
        ~domain:bit_domain
        (lazy (And_protocols.broadcast_all 4));
      entry ~name:"and/truncated" ~players:5 ~declared_cost:3
        ~spec:(fun x -> x.(0) land x.(1) land x.(2))
        ~symmetry:(Proto.Symmetry.Blocks [ [ 0; 1; 2 ]; [ 3; 4 ] ])
        ~note:"only the first m = 3 of k = 5 players speak (Lemma 6)"
        ~domain:bit_domain
        (lazy (And_protocols.truncated_sequential ~k:5 ~m:3));
      entry ~name:"and/noisy" ~players:4 ~declared_cost:4
        ~symmetry:Proto.Symmetry.Full
        ~note:"players lie with probability 1/10 (private randomness)"
        ~domain:bit_domain
        (lazy
          (And_protocols.noisy_sequential ~k:4
             ~noise:(Exact.Rational.of_ints 1 10)));
      entry ~name:"and/two-copy" ~players:3 ~declared_cost:6
        ~spec:(fun xs -> (2 * and_of_coord 0 xs) + and_of_coord 1 xs)
        ~symmetry:Proto.Symmetry.Full
        ~note:"two independent sequential copies (Theorem 4 witness)"
        ~domain:(vector_domain 2)
        (lazy (And_protocols.two_copy_sequential 3));
      entry ~name:"and/constant" ~players:4 ~declared_cost:0
        ~spec:(fun _ -> 1) ~symmetry:Proto.Symmetry.Full
        ~note:"ignores inputs; the zero-information point"
        ~domain:bit_domain
        (lazy (And_protocols.constant ~k:4 1));
      entry ~name:"compress/xor-coin-sequential" ~players:4 ~declared_cost:4
        ~symmetry:Proto.Symmetry.Full
        ~note:"output XORed with a free public coin (compression fixture)"
        ~domain:bit_domain
        (lazy (Proto.Combinators.xor_output_with_coin (And_protocols.sequential 4)));
      entry ~name:"compress/parallel-copies" ~players:3 ~declared_cost:6
        ~spec:(fun xs -> and_of_coord 0 xs lor (and_of_coord 1 xs lsl 1))
        ~symmetry:Proto.Symmetry.Full
        ~note:"Combinators.parallel_copies of sequential AND_3, 2 copies"
        ~domain:(vector_domain 2)
        (lazy
          (Proto.Combinators.parallel_copies (And_protocols.sequential 3)
             ~copies:2));
      entry ~name:"disj/trivial-tree" ~players:3 ~declared_cost:6
        ~spec:Hard_dist.disj_fn ~symmetry:Proto.Symmetry.Full
        ~note:"tree model of Disj_trivial: everyone announces its set"
        ~domain:(vector_domain 2)
        (lazy (Disj_trees.broadcast_all ~n:2 ~k:3));
      entry ~name:"disj/naive-tree" ~players:3 ~declared_cost:6
        ~spec:Hard_dist.disj_fn ~symmetry:Proto.Symmetry.Full
        ~note:"tree model of Disj_naive: coordinate-by-coordinate"
        ~domain:(vector_domain 2)
        (lazy (Disj_trees.sequential ~n:2 ~k:3));
      entry ~name:"disj/batched-tree" ~players:3 ~declared_cost:6
        ~spec:Hard_dist.disj_fn ~symmetry:Proto.Symmetry.Full
        ~note:"tree model of Disj_batched: shrinking-alphabet batches"
        ~domain:(vector_domain 2)
        (lazy (Disj_trees.batched ~n:2 ~k:3));
      entry ~name:"or/pointwise-tree" ~players:3 ~declared_cost:6
        ~spec:(fun xs ->
          Array.fold_left (fun acc x -> acc lor pack_vector x) 0 xs)
        ~symmetry:Proto.Symmetry.Full
        ~note:"pointwise-OR broadcast tree (output-entropy floor witness)"
        ~domain:(vector_domain 2)
        (lazy (Disj_trees.pointwise_or_broadcast ~n:2 ~k:3));
    ]

(* ------------------------------------------------------------------ *)
(* Trace run mode: execute an entry's tree operationally on a          *)
(* blackboard, so registry protocols can be traced and metered by the  *)
(* observability subsystem exactly like the hand-written solvers.      *)
(* ------------------------------------------------------------------ *)

type run = {
  output : int;
  board : Blackboard.Board.t;
  input_indices : int array;
      (** per-player index into the entry's input domain *)
  msg_rounds : int;  (** Speak nodes traversed (coins excluded) *)
}

(** [run_on_board entry ~seed] draws one input per player uniformly
    from the entry's domain, then walks the tree: every [Speak] node's
    message is sampled from its emit law and written on the board
    fixed-width in [ceil(log2 arity)] bits — the Section-3 charging
    {!Proto.Tree.communication_cost} assumes — and every [Chance] coin
    is resolved with public randomness, free of charge. Board writes
    flow through {!Blackboard.Board.post}, so an installed trace sink
    sees one [Broadcast] event per message (plus the [Round_start] /
    [Round_end] brackets emitted here) and the summed event bits equal
    [Runtime.stats_of_board] of the returned board. *)
let run_on_board (Entry { name; players; domain; tree; _ }) ~seed =
  let rng = Prob.Rng.of_int_seed seed in
  let input_indices =
    Array.init players (fun _ -> Prob.Rng.int rng (Array.length domain))
  in
  let inputs = Array.map (fun i -> domain.(i)) input_indices in
  let board = Blackboard.Board.create ~k:players in
  let sample_int law =
    Prob.Sampler.draw (Prob.Sampler.create (Prob.Dist_exact.to_float_dist law)) rng
  in
  let traced = Obs.Trace.enabled () in
  let rounds = ref 0 in
  let rec walk node =
    match node with
    | Proto.Tree.Output v -> v
    | Proto.Tree.Speak { speaker; emit; children } ->
        let round = !rounds in
        incr rounds;
        if traced then Obs.Trace.emit (Obs.Event.Round_start { round });
        let msg = sample_int (emit inputs.(speaker)) in
        let arity = Array.length children in
        let w = Coding.Bitbuf.Writer.create () in
        Coding.Intcode.write_fixed w ~bound:arity msg;
        Blackboard.Board.post board ~player:speaker ~label:name w;
        if traced then
          Obs.Trace.emit
            (Obs.Event.Round_end
               { round; bits = Coding.Intcode.fixed_width arity });
        walk children.(msg)
    | Proto.Tree.Chance { coin; children } -> walk children.(sample_int coin)
  in
  let output = Obs.Trace.with_span ("registry/" ^ name) (fun () -> walk (Lazy.force tree)) in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.bump "registry.runs" 1;
    Obs.Metrics.bump "registry.msg_rounds" !rounds
  end;
  { output; board; input_indices; msg_rounds = !rounds }

(* ------------------------------------------------------------------ *)
(* Compiled VM run mode: the same observable run as [run_on_board],    *)
(* but off the flat bytecode from [Proto.Compile] instead of the tree  *)
(* walker. Programs are compiled once per entry and cached; the cache  *)
(* key is the entry name, which [register] keeps unique.               *)
(* ------------------------------------------------------------------ *)

let compiled_cache : (string, Proto.Compile.t) Hashtbl.t = Hashtbl.create 16

let compiled (Entry { name; players; domain; tree; _ }) =
  match Hashtbl.find_opt compiled_cache name with
  | Some p -> p
  | None ->
      let p = Proto.Compile.compile ~players ~domain (Lazy.force tree) in
      Hashtbl.add compiled_cache name p;
      p

(** Byte-identical to {!run_on_board} on the same seed: the input draws
    are the same, and each visited node draws from a sampler built from
    the same float law ([Compile] interns laws up to exact-rational
    equality, and [Prob.Sampler.create] is a pure function of the float
    distribution), so the rng stream — and hence every message and the
    board — is consumed identically. *)
let run_on_board_compiled (Entry { name; players; domain; _ } as e) ~seed =
  let p = compiled e in
  let rng = Prob.Rng.of_int_seed seed in
  let input_indices =
    Array.init players (fun _ -> Prob.Rng.int rng (Array.length domain))
  in
  let board = Blackboard.Board.create ~k:players in
  let traced = Obs.Trace.enabled () in
  let rounds = ref 0 in
  let on_msg ~speaker ~arity ~width:_ ~msg =
    let round = !rounds in
    incr rounds;
    if traced then Obs.Trace.emit (Obs.Event.Round_start { round });
    let w = Coding.Bitbuf.Writer.create () in
    Coding.Intcode.write_fixed w ~bound:arity msg;
    Blackboard.Board.post board ~player:speaker ~label:name w;
    if traced then
      Obs.Trace.emit
        (Obs.Event.Round_end { round; bits = Coding.Intcode.fixed_width arity })
  in
  let sample s = Prob.Sampler.draw s rng in
  let output =
    Obs.Trace.with_span ("registry.compiled/" ^ name) (fun () ->
        Proto.Compile.exec ~on_msg p ~sample ~input_indices)
  in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.bump "registry.compiled_runs" 1;
    Obs.Metrics.bump "registry.msg_rounds" !rounds
  end;
  { output; board; input_indices; msg_rounds = !rounds }

(* ------------------------------------------------------------------ *)
(* Engine-hosted form: the entry's tree as a board-driven schedule and *)
(* speak/observe players, so registry protocols run under             *)
(* Blackboard.Engine.run — or any other driver with the same shape,   *)
(* such as the Netsim asynchronous board emulation — unchanged.       *)
(* ------------------------------------------------------------------ *)

type hosted = {
  k : int;
  schedule : Blackboard.Board.t -> int option;
  players : Blackboard.Engine.player array;
  input_indices : int array;
  output_of : Blackboard.Board.t -> int option;
}

let spec_output (Entry { domain; spec; _ }) ~input_indices =
  Option.map
    (fun f -> f (Array.map (fun i -> domain.(i)) input_indices))
    spec

(** [hosted entry ~seed] draws inputs exactly as {!run_on_board} does
    (the first [players] draws from [Rng.of_int_seed seed]), then turns
    the tree into engine players. The schedule carries no mutable
    state: it replays the board through the tree — consuming one write
    per [Speak] node via the same fixed-width code the speaker used,
    resolving every [Chance] coin from a fresh public stream drawn in
    walk order, hence identically on every replay — and reports the
    current node's speaker. Message sampling lives in the speakers'
    private streams and happens exactly once per scheduled write, so
    any driver that calls [speak] in schedule order (the sync engine,
    the async emulation, any fault-free delivery order) produces the
    same board, byte for byte. *)
let hosted (Entry { players = k; domain; tree; _ }) ~seed =
  let rng = Prob.Rng.of_int_seed seed in
  let input_indices =
    Array.init k (fun _ -> Prob.Rng.int rng (Array.length domain))
  in
  let inputs = Array.map (fun i -> domain.(i)) input_indices in
  let tree = Lazy.force tree in
  let replay board =
    let coins = Blackboard.Runtime.public_rng ~seed in
    let sample law =
      Prob.Sampler.draw
        (Prob.Sampler.create (Prob.Dist_exact.to_float_dist law))
        coins
    in
    let rec go node writes =
      match (node, writes) with
      | Proto.Tree.Chance { coin; children }, _ ->
          go children.(sample coin) writes
      | Proto.Tree.Output _, _ | Proto.Tree.Speak _, [] -> node
      | Proto.Tree.Speak { children; _ }, w :: rest ->
          let msg =
            Coding.Intcode.read_fixed
              (Blackboard.Board.reader_of_write w)
              ~bound:(Array.length children)
          in
          go children.(msg) rest
    in
    go tree (Blackboard.Board.writes board)
  in
  let schedule board =
    match replay board with
    | Proto.Tree.Speak { speaker; _ } -> Some speaker
    | Proto.Tree.Output _ -> None
    | Proto.Tree.Chance _ -> assert false (* replay resolves coins *)
  in
  let priv = Blackboard.Runtime.private_rngs ~seed ~k in
  let speak p board =
    match replay board with
    | Proto.Tree.Speak { speaker; emit; children } when speaker = p ->
        let msg =
          Prob.Sampler.draw
            (Prob.Sampler.create
               (Prob.Dist_exact.to_float_dist (emit inputs.(p))))
            priv.(p)
        in
        let w = Coding.Bitbuf.Writer.create () in
        Coding.Intcode.write_fixed w ~bound:(Array.length children) msg;
        w
    | _ -> invalid_arg "Registry.hosted: speak called out of turn"
  in
  let players =
    Array.init k (fun p ->
        { Blackboard.Engine.speak = speak p; observe = (fun _ -> ()) })
  in
  let output_of board =
    match replay board with
    | Proto.Tree.Output v -> Some v
    | _ -> None
  in
  { k; schedule; players; input_indices; output_of }

let registered : entry list ref = ref []

let register e =
  let n = name e in
  if
    List.exists (fun e' -> name e' = n) (Lazy.force builtins)
    || List.exists (fun e' -> name e' = n) !registered
  then invalid_arg ("Registry.register: duplicate name " ^ n);
  registered := e :: !registered

let all () = Lazy.force builtins @ List.rev !registered
let names () = List.map name (all ())
let find n = List.find_opt (fun e -> name e = n) (all ())
