(** Orbit-collapsed exact evaluation of protocol trees.

    Replaces the [2^k] input sweep behind every exact information
    measure with a single tree walk that tracks, per player, the
    {e revealed-weight vector} [g_i : domain -> Q] — the probability of
    player [i]'s past messages along the current path as a function of
    its own input value. On entering a [Speak] branch only the
    speaker's vector changes ([g' v = g v * P(emit v = m)]); public
    coins change no vector and contribute a scalar factor. At a leaf
    the surviving inputs are not enumerated: players are grouped by
    (symmetry block, revealed-weight vector), and each choice of
    per-group value composition yields one {e cell} of inputs that all
    share the same joint probability

      [P(x, t) = mu(x) * prod_i g_i(x_i) * (coin scale)]

    because [mu] is block-exchangeable ({!Prob.Symdist}) and the g
    product depends only on how many players of each group hold each
    value. The cell's cardinality is a product of multinomials, so the
    sum over [2^k] inputs becomes a sum over polynomially many cells —
    an exact {e regrouping} of the rational sum, valid for {e any} tree:
    protocol symmetry is never assumed, it only makes the walk cheaper.

    Subtree results are globally hash-consed in a canonical-state table
    (the orbit-mode extension of {!Semantics.memo}): the key is the
    node's {!Tree.id}, the input law's content, and the g-state {e up
    to within-block permutation of the players that never speak below
    the node}, with each speaking player's block. Branches that reach a
    shared node with permuted-equivalent states — and in particular
    leaves, where no player speaks below — collapse to a single cached
    evaluation, and so do relabelings of one law, such as the
    conditional slices [X | Z = z] of a CIC. *)

module D = Prob.Dist_exact
module R = Exact.Rational
module S = Prob.Symdist

type cell = {
  count : R.t;  (** number of input profiles in the cell *)
  w_each : R.t;  (** joint probability [P(x, t)] of each one *)
  px_each : R.t;  (** marginal [mu(x)] of each one *)
}

type path = {
  transcript : Tree.transcript;
  cells : cell list;
  p_t : R.t;  (** transcript probability: [sum count * w_each] *)
}

type collapsed = path list

(* State keys are int arrays, hashed over every element (the generic
   hash reads only the first ten). *)
module Key = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  let hash (a : t) =
    Array.fold_left (fun h x -> (h * 65599) + x) 0 a land max_int
end)

(* A path as the walk caches it: with each cell's external-IC summand
   [float (count * w_each) * log2 (w_each / (px_each * p_t))] and that
   summand's log factor, computed once per cached result however many
   walks reach it. A [Chance] node scales [w_each] and [p_t] alike, so
   it keeps the log factors and recomputes only the float masses. *)
type costed = { path : path; logs : float array; terms : float array }

(* An interned input law. Laws are equal when their domains are equal
   in order and their classes carry equal weights: the block sizes
   follow from the classes, and the block assignment does not matter
   once the state key records the speakers' blocks. [dom] names the
   domain: the id of the first law interned with an equal one. *)
type law = {
  id : int;
  dom : int;
  domain : Obj.t;
  n_classes : int;
  mass : S.comp -> R.t;
}

type memo = {
  vec_ids : (R.t array, int) Hashtbl.t;  (* g-vector interning *)
  mutable vecs : R.t array array;  (* gid -> vector *)
  mutable n_vecs : int;
  mutable laws : law list;
  speakers : int array Tree.Tbl.t;  (* node id -> sorted speakers below *)
  emit_laws : (int * int, R.t array array) Hashtbl.t;
      (* (node id, domain id) -> emit law rows *)
  group_comps : (int * int, (int array * R.t * R.t) list) Hashtbl.t;
      (* (gid, n) -> per composition of an n-player group with that
         g-vector: (composition, multinomial count, g-weight factor),
         zero-weight compositions dropped. Shared across leaves, paths
         and input laws — the hot loop of the leaf cells. *)
  states : costed list Key.t;
}

let memo () =
  {
    vec_ids = Hashtbl.create 64;
    vecs = [||];
    n_vecs = 0;
    laws = [];
    speakers = Tree.Tbl.create 64;
    emit_laws = Hashtbl.create 64;
    group_comps = Hashtbl.create 64;
    states = Key.create 256;
  }

let memo_size m = Key.length m.states

let intern_vec m v =
  match Hashtbl.find_opt m.vec_ids v with
  | Some id -> id
  | None ->
      let id = m.n_vecs in
      if id = Array.length m.vecs then begin
        let bigger = Array.make (max 16 (2 * (id + 1))) [||] in
        Array.blit m.vecs 0 bigger 0 id;
        m.vecs <- bigger
      end;
      m.vecs.(id) <- v;
      m.n_vecs <- id + 1;
      Hashtbl.add m.vec_ids v id;
      id

(* (domain id, law id) of an input law, interned by content. *)
let law_id m sym =
  let domain = Obj.repr (S.domain sym) and classes = S.classes sym in
  let id = List.length m.laws and n_classes = List.length classes in
  let dom =
    match List.find_opt (fun l -> l.domain = domain) m.laws with
    | Some l -> l.dom
    | None -> id
  in
  let same l =
    l.dom = dom && l.n_classes = n_classes
    && List.for_all (fun (c, w) -> R.equal w (l.mass c)) classes
  in
  match List.find_opt same m.laws with
  | Some l -> (dom, l.id)
  | None ->
      let mass = S.mass_of_comp sym in
      m.laws <- { id; dom; domain; n_classes; mass } :: m.laws;
      (dom, id)

(* Sorted distinct players that may speak in the subtree. *)
let rec speakers_of m node =
  match Tree.Tbl.find_opt m.speakers (Tree.id node) with
  | Some s -> s
  | None ->
      let below children =
        Array.fold_left
          (fun acc c -> List.rev_append (Array.to_list (speakers_of m c)) acc)
          [] children
      in
      let s =
        match node with
        | Tree.Output _ -> []
        | Tree.Speak { speaker; children; _ } -> speaker :: below children
        | Tree.Chance { children; _ } -> below children
      in
      let s = Array.of_list (List.sort_uniq Int.compare s) in
      Tree.Tbl.add m.speakers (Tree.id node) s;
      s

(* Emit law of a Speak node over one domain, tabulated per value:
   row v = [| P(emit domain.(v) = 0); ...; P(emit domain.(v) = arity-1) |]. *)
let emit_rows m node emit domain dom arity =
  let key = (Tree.id node, dom) in
  match Hashtbl.find_opt m.emit_laws key with
  | Some rows -> rows
  | None ->
      let rows =
        Array.map
          (fun x ->
            let d = emit x in
            Array.init arity (fun sym -> D.prob_of d sym))
          domain
      in
      Hashtbl.add m.emit_laws key rows;
      rows

(* Value compositions of an [n]-player group whose members share the
   g-vector [gid], with the multinomial count and the group's g-weight
   [prod_v g(v)^c_v] precomputed via iterated power tables. Cached per
   (gid, n): the same pair recurs across leaves, branches, and input
   laws, and recomputing multinomials/powers per cell dominated the
   walk before this table existed. *)
let group_comps m gid n =
  match Hashtbl.find_opt m.group_comps (gid, n) with
  | Some l -> l
  | None ->
      let g = m.vecs.(gid) in
      let values = Array.length g in
      let pows =
        Array.map
          (fun gv ->
            let row = Array.make (n + 1) R.one in
            for c = 1 to n do
              row.(c) <- R.mul row.(c - 1) gv
            done;
            row)
          g
      in
      let l =
        List.filter_map
          (fun comp ->
            let c = comp.(0) in
            let w = ref R.one and ok = ref true in
            Array.iteri
              (fun v cv ->
                if cv > 0 then
                  if R.is_zero g.(v) then ok := false
                  else w := R.mul !w pows.(v).(cv))
              c;
            if !ok then Some (c, S.multinomial n c, !w) else None)
          (S.all_comps ~block_sizes:[| n |] ~n_values:values)
      in
      Hashtbl.add m.group_comps (gid, n) l;
      l

(* Canonical state key: [| node id; law id |], then each speaking
   player as (player, block, gid) — its identity matters below this
   node, and its block once laws with different block assignments
   share the table — then everyone else as a per-block sorted gid
   multiset (interchangeable: the leaf cells depend only on group
   sizes). The node fixes the speakers and the law the block sizes, so
   the layout needs no separators. *)
let state_key m node law blocks n_blocks gids =
  let sp = speakers_of m node in
  let n = Array.length gids in
  let ns = ref 0 in
  while !ns < Array.length sp && sp.(!ns) < n do
    incr ns
  done;
  let ns = !ns in
  let key = Array.make (2 + (3 * ns) + n - ns) 0 in
  key.(0) <- Tree.id node;
  key.(1) <- law;
  for j = 0 to ns - 1 do
    let i = sp.(j) in
    key.(2 + (3 * j)) <- i;
    key.(3 + (3 * j)) <- blocks.(i);
    key.(4 + (3 * j)) <- gids.(i)
  done;
  let pos = ref (2 + (3 * ns)) in
  for b = 0 to n_blocks - 1 do
    let start = !pos and j = ref 0 in
    for i = 0 to n - 1 do
      if !j < ns && sp.(!j) = i then incr j
      else if blocks.(i) = b then begin
        (* insertion into the sorted run [start, !pos) *)
        let g = gids.(i) and q = ref !pos in
        while !q > start && key.(!q - 1) > g do
          key.(!q) <- key.(!q - 1);
          decr q
        done;
        key.(!q) <- g;
        incr pos
      end
    done
  done;
  key

(* Cells at a leaf: group players by (block, gid); every choice of one
   value composition per group is a cell. All members of a cell share
   the g product and (by block exchangeability) the mu mass, and their
   number is the product of per-group multinomials. Each cell comes
   with its g product. *)
let leaf_cells m sym blocks n_blocks n_values gids =
  let tbl : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i b ->
      let key = (b, gids.(i)) in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    blocks;
  let groups =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
  in
  let cells = ref [] in
  let comp = Array.init n_blocks (fun _ -> Array.make n_values 0) in
  let rec go groups count gprod =
    match groups with
    | [] ->
        let mass = S.mass_of_comp sym comp in
        if not (R.is_zero mass) then
          cells :=
            ({ count; w_each = R.mul mass gprod; px_each = mass }, gprod)
            :: !cells
    | ((b, gid), n) :: rest ->
        List.iter
          (fun (c, mult, w) ->
            Array.iteri (fun v cv -> comp.(b).(v) <- comp.(b).(v) + cv) c;
            go rest (R.mul count mult) (R.mul gprod w);
            Array.iteri (fun v cv -> comp.(b).(v) <- comp.(b).(v) - cv) c)
          (group_comps m gid n)
  in
  go groups R.one R.one;
  List.rev !cells

(* [w_each = px_each * gprod], so a cell's log factor
   [log2 (w_each / (px_each * p_t))] is [log2 (gprod / p_t)]: the same
   canonical rational, hence the same float, without the product. *)
let leaf_path cells =
  let masses = List.map (fun (cl, _) -> R.mul cl.count cl.w_each) cells in
  let p_t = List.fold_left R.add R.zero masses in
  let logs =
    Array.of_list (List.map (fun (_, gprod) -> R.log2 (R.div gprod p_t)) cells)
  in
  let terms =
    Array.of_list (List.mapi (fun j cw -> R.to_float cw *. logs.(j)) masses)
  in
  { path = { transcript = []; cells = List.map fst cells; p_t }; logs; terms }

let prefix event x =
  { x with path = { x.path with transcript = event :: x.path.transcript } }

(* The path below coin outcome [c] of weight [wc]. *)
let scale c wc x =
  let cells =
    List.map (fun cl -> { cl with w_each = R.mul wc cl.w_each }) x.path.cells
  in
  let terms =
    List.mapi
      (fun j cl -> R.to_float (R.mul cl.count cl.w_each) *. x.logs.(j))
      cells
  in
  prefix (Tree.Coin c)
    {
      x with
      path = { x.path with cells; p_t = R.mul wc x.path.p_t };
      terms = Array.of_list terms;
    }

let walk m tree sym =
  let blocks = S.blocks sym in
  let domain = S.domain sym in
  let n_values = Array.length domain in
  let n_blocks = Array.fold_left (fun a b -> max a (b + 1)) 0 blocks in
  let dom, law = law_id m sym in
  let gid_one = intern_vec m (Array.make n_values R.one) in
  let rec go node gids =
    let key = state_key m node law blocks n_blocks gids in
    match Key.find_opt m.states key with
    | Some r -> r
    | None ->
        let r =
          match node with
          | Tree.Output _ -> (
              match leaf_cells m sym blocks n_blocks n_values gids with
              | [] -> []
              | cells -> [ leaf_path cells ])
          | Tree.Speak { speaker; emit; children; _ } ->
              let arity = Array.length children in
              let rows = emit_rows m node emit domain dom arity in
              let g = m.vecs.(gids.(speaker)) in
              List.concat
                (List.init arity (fun sym_m ->
                     let g' =
                       Array.init n_values (fun v ->
                           R.mul g.(v) rows.(v).(sym_m))
                     in
                     if Array.for_all R.is_zero g' then []
                     else begin
                       let gids' = Array.copy gids in
                       gids'.(speaker) <- intern_vec m g';
                       List.map
                         (prefix (Tree.Msg (speaker, sym_m)))
                         (go children.(sym_m) gids')
                     end))
          | Tree.Chance { coin; children; _ } ->
              List.concat_map
                (fun (c, wc) -> List.map (scale c wc) (go children.(c) gids))
                (D.to_alist coin)
        in
        Key.add m.states key r;
        r
  in
  go tree (Array.make (Array.length blocks) gid_one)

let or_fresh = function Some m -> m | None -> memo ()

let collapse ?memo tree sym =
  List.map (fun x -> x.path) (walk (or_fresh memo) tree sym)

(* ------------------------------------------------------------------ *)
(* Measures over the collapsed form. Identical rational terms to the   *)
(* direct enumeration, regrouped; floats appear only at the final      *)
(* logarithms, Kahan-compensated in a deterministic (walk) order.      *)
(* ------------------------------------------------------------------ *)

let kahan () =
  let sum = ref 0.0 and comp = ref 0.0 in
  let add x =
    let y = x -. !comp in
    let t = !sum +. y in
    comp := t -. !sum -. y;
    sum := t
  in
  (add, fun () -> !sum)

(** Total input mass reaching leaves — exactly 1 on any complete tree;
    a cheap engine self-check. *)
let total_mass ?memo tree sym =
  List.fold_left
    (fun acc p -> R.add acc p.p_t)
    R.zero
    (collapse ?memo tree sym)

(** External information cost [I(T; X)] under the collapsed law:
    [sum_t sum_cells count * w * log2 (w / (px * p_t))]. *)
let external_ic ?memo tree sym =
  let add, total = kahan () in
  List.iter (fun x -> Array.iter add x.terms) (walk (or_fresh memo) tree sym);
  total ()

(** Shannon entropy of the transcript, [H(T)]. *)
let transcript_entropy ?memo tree sym =
  let add, total = kahan () in
  List.iter
    (fun p -> add (-.(R.to_float p.p_t *. R.log2 p.p_t)))
    (collapse ?memo tree sym);
  total ()

(** Conditional information cost [I(T; X | D) = sum_d P(d) I(T; X | D=d)]
    given the conditional input law for each value of the conditioning
    variable [D] (e.g. one block-symmetric slice per special player of
    [mu_and]). *)
let conditional_ic ?memo:mo tree slices =
  let m = or_fresh mo in
  let add, total = kahan () in
  List.iter
    (fun (wd, sym) ->
      if not (R.is_zero wd) then
        add (R.to_float wd *. external_ic ~memo:m tree sym))
    slices;
  total ()

(* ------------------------------------------------------------------ *)
(* Reference path: direct 2^k enumeration grouped into the same cell   *)
(* structure, and width-0 rational comparison.                         *)
(* ------------------------------------------------------------------ *)

module For_testing = struct
  (** Collapse by brute force: expand the symmetric law, enumerate the
      joint via {!Semantics.joint}, and group equal-probability inputs
      per transcript. Exponential in the player count. *)
  let collapse_direct tree sym =
    let mu = S.to_dist sym in
    let by_t : (Tree.transcript, (R.t * R.t) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let order = ref [] in
    List.iter
      (fun ((x, t), w) ->
        if not (R.is_zero w) then begin
          let px = S.mass_of_profile sym x in
          match Hashtbl.find_opt by_t t with
          | Some l -> l := (w, px) :: !l
          | None ->
              Hashtbl.add by_t t (ref [ (w, px) ]);
              order := t :: !order
        end)
      (D.to_alist (Semantics.joint tree mu));
    List.rev_map
      (fun t ->
        let pairs = !(Hashtbl.find by_t t) in
        let cells =
          List.sort (fun (a, b) (c, d) ->
              let k = R.compare a c in
              if k <> 0 then k else R.compare b d)
            pairs
          |> List.fold_left
               (fun acc (w, px) ->
                 match acc with
                 | { count; w_each; px_each } :: rest
                   when R.equal w_each w && R.equal px_each px ->
                     { count = R.add count R.one; w_each; px_each } :: rest
                 | _ -> { count = R.one; w_each = w; px_each = px } :: acc)
               []
          |> List.rev
        in
        let p_t =
          List.fold_left
            (fun acc cl -> R.add acc (R.mul cl.count cl.w_each))
            R.zero cells
        in
        { transcript = t; cells; p_t })
      !order

  (* Canonical form for comparison: paths sorted by transcript, cells
     sorted by (w, px) with equal cells merged — the orbit engine may
     legitimately split one probability class across several
     group-composition cells. *)
  let normalize (c : collapsed) =
    List.filter (fun p -> p.cells <> []) c
    |> List.map (fun p ->
           let cells =
             List.sort
               (fun a b ->
                 let k = R.compare a.w_each b.w_each in
                 if k <> 0 then k else R.compare a.px_each b.px_each)
               p.cells
             |> List.fold_left
                  (fun acc cl ->
                    match acc with
                    | top :: rest
                      when R.equal top.w_each cl.w_each
                           && R.equal top.px_each cl.px_each ->
                        { top with count = R.add top.count cl.count } :: rest
                    | _ -> cl :: acc)
                  []
             |> List.rev
           in
           { p with cells })
    |> List.sort (fun a b -> Stdlib.compare a.transcript b.transcript)

  (** Width-0 comparison: exact rational equality of the full collapsed
      joint laws (transcripts, cell counts, cell probabilities, and
      transcript masses), insensitive to cell splitting and ordering. *)
  let equal_collapsed a b =
    let a = normalize a and b = normalize b in
    List.length a = List.length b
    && List.for_all2
         (fun p q ->
           p.transcript = q.transcript
           && R.equal p.p_t q.p_t
           && List.length p.cells = List.length q.cells
           && List.for_all2
                (fun c d ->
                  R.equal c.count d.count
                  && R.equal c.w_each d.w_each
                  && R.equal c.px_each d.px_each)
                p.cells q.cells)
         a b
end
