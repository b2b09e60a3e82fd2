(** Information costs of protocols (Definitions 5 and 6 of the paper),
    computed exactly from the protocol-tree semantics.

    - External information cost: [IC_mu(Pi) = I(Transcript ; X)] where
      [X ~ mu] is the joint input.
    - Conditional information cost: [CIC_mu(Pi) = I(Transcript ; X | D)]
      for a distribution [mu] on pairs [(X, D)] of inputs and an
      auxiliary variable. *)

module D = Prob.Dist_exact
module R = Exact.Rational
module Bigint = Exact.Bigint

(* A growable column. *)
type 'a col = { mutable a : 'a array; mutable n : int }

let col ?(size = 64) x = { a = Array.make (max size 1) x; n = 0 }

let push c x =
  if c.n = Array.length c.a then c.a <- Array.append c.a (Array.make c.n x);
  c.a.(c.n) <- x;
  c.n <- c.n + 1

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* (input, aux, transcript) cells. *)
module Cells = Hashtbl.Make (struct
  type t = int * int * int

  let equal (a, b, c) (a', b', c') = a = a' && b = b' && c = c'
  let hash (a, b, c) = Hashtbl.hash ((((a * 65599) + b) * 65599) + c)
end)

(* A mass: a non-negative integer, a native int while it fits and a
   [Bigint] past that, as [Rational] keeps its [S] and [B] forms, so
   equal masses have equal forms. *)
type mass = I of int | Z of Bigint.t

let big = function I a -> Bigint.of_int a | Z a -> a
let of_big a = match Bigint.to_int_opt a with Some a -> I a | None -> Z a

let add a b =
  match (a, b) with
  | I 0, x | x, I 0 -> x
  | I a, I b when a + b >= 0 -> I (a + b)
  | _ -> Z (Bigint.add (big a) (big b))

let mul a b =
  match (a, b) with
  | I 1, x | x, I 1 -> x
  | I a, I b when a = 0 || b <= max_int / a -> I (a * b)
  | _ -> of_big (Bigint.mul (big a) (big b))

let equal a b =
  match (a, b) with
  | I a, I b -> a = b
  | Z a, Z b -> Bigint.equal a b
  | _ -> false

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The least common multiple of two positive masses. *)
let lcm l d =
  match (l, d) with
  | I a, I b -> if a mod b = 0 then l else mul l (I (b / gcd a b))
  | _ ->
      let a = big l and b = big d in
      if Bigint.is_zero (Bigint.rem a b) then l
      else of_big (Bigint.mul a (Bigint.div_exact b (Bigint.gcd a b)))

(* [quo a b] is [a / b] for a [b] that divides [a]. *)
let quo a b =
  match (a, b) with
  | I a, I b -> if a = b then I 1 else I (a / b)
  | _ -> of_big (Bigint.div_exact (big a) (big b))

(* A weight's canonical numerator and denominator. *)
let fraction w =
  R.parts w ~word:(fun n d -> (I n, I d))
    ~big:(fun n d -> (of_big n, of_big d))

(* [ratio a b] is the canonical rational a/b, [b] positive. *)
let ratio a b =
  match (a, b) with I a, I b -> R.of_ints a b | _ -> R.make (big a) (big b)

(* The float of a/b: [R.to_float] of the canonical rational, bit for
   bit. Below 2^53 both sides convert exactly and the division rounds
   once, as it does on the reduced sides [R.to_float] divides; above
   that a conversion could round, so the rational decides. *)
let to_float a b =
  match (a, b) with
  | I a, I b when a < 1 lsl 53 && b < 1 lsl 53 -> float a /. float b
  | _ -> R.to_float (ratio a b)

(* The joint law of (input, aux, transcript) as int-coded rows: the
   rows of [D.bind mu (fun v -> D.map (fun t -> (v, t))
   (Semantics.transcript_dist (input v)))], in its order, with its exact
   weights and its semantics. Each input's transcript law drops
   non-positive weights and is renormalized unless its mass is exactly
   one; pieces of non-positive weight are dropped; a repeated (input,
   aux, transcript) merges at its first position; and the rows are
   renormalized by their total.

   A row's weight is [mass / total]: each piece's integer numerator and
   denominator (the products of its two weights' canonical parts)
   brought over the lcm of the denominators so far, the rows already
   there scaled up when a piece's denominator raises the lcm. Every
   marginal and slice mass is then an integer sum, and a conditional
   weight a ratio of two of them.

   Inputs are numbered by first occurrence in [mu], aux values by first
   appearance in the rows. A transcript is numbered by the node it ends
   at in a prefix trie: node 0 is the empty prefix (parent -1), and each
   other node extends its parent by one event, keyed by (parent lsl 32)
   lor code, the code 2m for [Msg (_, m)] and 2c + 1 for [Coin c]. The
   speaker is left out because a prefix of one tree's transcripts fixes
   the node it leads to. Parents are numbered below their children. *)
type table = {
  rows : int;
  input : int array;
  aux : int array;
  tr : int array;
  mass : mass array;
  total : mass;
  inputs : int;
  auxes : int;
  nodes : int;
  parent : int array;
  code : int array;
}

let no_mass () = invalid_arg "Dist.of_weighted: no positive mass"

let number tbl key =
  match Hashtbl.find_opt tbl key with
  | Some i -> i
  | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl key i;
      i

let table ?memo tree split mu =
  let child = Itbl.create 256 and parent = col (-1) and code = col 0 in
  push parent (-1);
  push code 0;
  let rec intern node = function
    | [] -> node
    | e :: rest -> (
        let c =
          match e with Tree.Msg (_, m) -> 2 * m | Tree.Coin c -> (2 * c) + 1
        in
        if c lsr 32 <> 0 then invalid_arg "Information: event out of range";
        let key = (node lsl 32) lor c in
        match Itbl.find_opt child key with
        | Some n -> intern n rest
        | None ->
            Itbl.add child key parent.n;
            push parent node;
            push code c;
            intern (parent.n - 1) rest)
  in
  let law x =
    let items = D.to_alist (Semantics.transcript_dist ?memo tree x) in
    match List.filter (fun (_, w) -> R.sign w > 0) items with
    | [] -> no_mass ()
    | (_, w0) :: rest as items ->
        let total = List.fold_left (fun s (_, w) -> R.add s w) w0 rest in
        List.map
          (fun (t, w) ->
            let w = if R.is_one total then w else R.div w total in
            (intern 0 t, fraction w))
          items
  in
  (* One row per item of [mu] when each transcript law is a point: the
     columns start at that size, so they rarely grow. *)
  let size = D.size mu in
  let inputs = Hashtbl.create 256 and auxes = Hashtbl.create 16 in
  let laws = col [] and cells = Cells.create size in
  let input = col ~size 0 and aux = col ~size 0 and tr = col ~size 0
  and mass = col ~size (I 0) in
  let l = ref (I 1) in
  List.iter
    (fun (v, wv) ->
      let x, d = split v in
      let xid = number inputs x in
      if xid = laws.n then push laws (law x);
      if R.sign wv > 0 then begin
        let a, b = fraction wv in
        let z = number auxes d in
        List.iter
          (fun (t, (c, e)) ->
            let e = mul b e in
            let l' = lcm !l e in
            if not (equal l' !l) then begin
              let f = quo l' !l in
              for r = 0 to mass.n - 1 do
                mass.a.(r) <- mul mass.a.(r) f
              done;
              l := l'
            end;
            let w = mul (mul a c) (quo l' e) in
            let key = (xid, z, t) in
            match Cells.find_opt cells key with
            | Some r -> mass.a.(r) <- add mass.a.(r) w
            | None ->
                Cells.add cells key input.n;
                push input xid;
                push aux z;
                push tr t;
                push mass w)
          laws.a.(xid)
      end)
    (D.to_alist mu);
  if input.n = 0 then no_mass ();
  let total = ref (I 0) in
  for r = 0 to input.n - 1 do
    total := add !total mass.a.(r)
  done;
  { rows = input.n; input = input.a; aux = aux.a; tr = tr.a; mass = mass.a;
    total = !total; inputs = laws.n;
    auxes = Hashtbl.length auxes; nodes = parent.n; parent = parent.a;
    code = code.a }

let no_aux x = (x, ())

type Semantics.kept += Joint of table

(* The table of [mu] itself, which [memo] keeps for the other measures
   over the same tree and law. *)
let joint ?memo tree mu =
  match memo with
  | None -> table tree no_aux mu
  | Some memo -> (
      match Semantics.kept memo tree mu with
      | Some (Joint j) -> j
      | _ ->
          let j = table ~memo tree no_aux mu in
          Semantics.keep memo tree mu (Joint j);
          j)

(* The mass of each id in [0, n) over the rows, [ids] giving each row's
   id. *)
let sums n ids j =
  let m = Array.make n (I 0) in
  for r = 0 to j.rows - 1 do
    m.(ids.(r)) <- add m.(ids.(r)) j.mass.(r)
  done;
  m

(* [Infotheory.Fn.kahan_sum]'s update: the same terms in the same order
   give the same bits as [Infotheory.Measures]. *)
type kahan = { mutable sum : float; mutable c : float }

let kahan () = { sum = 0.; c = 0. }

let kadd k x =
  let y = x -. k.c in
  let t = k.sum +. y in
  k.c <- t -. k.sum -. y;
  k.sum <- t

(* One term of [Measures.mutual_information]. *)
let mi_term fw pa pb =
  if fw <= 0. then 0. else fw *. Float.log2 (fw /. (pa *. pb))

(* [slice_mi j rows] is [(wz, mi)]: the mass [wz] of [rows] (a slice of
   the table in row order) and [Measures.mutual_information] of the
   slice after [D.condition] on it — each weight is its mass over [wz],
   against the slice's marginals of its input and transcript, which are
   integer sums over [wz] too. The marginals live in arrays reset lazily
   by a stamp: a fresh even stamp s marks this slice's masses, s + 1
   their floats. *)
let slice_mi j =
  let px = Array.make j.inputs (I 0) and xs = Array.make j.inputs 0
  and fx = Array.make j.inputs 0. in
  let pt = Array.make j.nodes (I 0) and ts = Array.make j.nodes 0
  and ft = Array.make j.nodes 0. in
  let stamp = ref 0 in
  fun rows ->
    stamp := !stamp + 2;
    let s = !stamp in
    let bump m ms i w =
      if ms.(i) = s then m.(i) <- add m.(i) w
      else begin
        ms.(i) <- s;
        m.(i) <- w
      end
    in
    let wz =
      List.fold_left
        (fun acc r ->
          bump px xs j.input.(r) j.mass.(r);
          bump pt ts j.tr.(r) j.mass.(r);
          add acc j.mass.(r))
        (I 0) rows
    in
    let float m ms f i =
      if ms.(i) = s then begin
        ms.(i) <- s + 1;
        f.(i) <- to_float m.(i) wz
      end;
      f.(i)
    in
    let k = kahan () in
    List.iter
      (fun r ->
        let pa = float px xs fx j.input.(r) and pb = float pt ts ft j.tr.(r) in
        kadd k (mi_term (to_float j.mass.(r) wz) pa pb))
      rows;
    (wz, k.sum)

let external_ic ?memo tree mu =
  let j = joint ?memo tree mu in
  snd (slice_mi j (List.init j.rows Fun.id))

(* The values of the aux variable in order of first appearance, each
   weighted by its mass: [Measures.conditional_mutual_information]. The
   table of [mu_xd] is not kept. *)
let conditional_ic ?memo tree mu_xd =
  let j = table ?memo tree Fun.id mu_xd in
  let slices = Array.make j.auxes [] in
  for r = j.rows - 1 downto 0 do
    slices.(j.aux.(r)) <- r :: slices.(j.aux.(r))
  done;
  let mi = slice_mi j and outer = kahan () in
  Array.iter
    (fun rows ->
      let wz, mi = mi rows in
      kadd outer (to_float wz j.total *. mi))
    slices;
  outer.sum

let transcript_entropy ?memo tree mu =
  let j = joint ?memo tree mu in
  let pt = sums j.nodes j.tr j and seen = Array.make j.nodes false in
  let k = kahan () in
  for r = 0 to j.rows - 1 do
    let t = j.tr.(r) in
    if not seen.(t) then begin
      seen.(t) <- true;
      kadd k (-.Infotheory.Fn.xlog2x (to_float pt.(t) j.total))
    end
  done;
  k.sum

(** {2 Orbit-engine entry points}

    The same three measures over the orbit-collapsed law ({!Orbit}):
    identical rational terms, regrouped by symmetry cells, so the
    exponential input sweep becomes polynomial for block-exchangeable
    input laws. The differential suite holds the two paths to exact
    rational equality of the collapsed joints. *)

let external_ic_orbit ?memo tree sym = Orbit.external_ic ?memo tree sym

let conditional_ic_orbit ?memo tree slices =
  Orbit.conditional_ic ?memo tree slices

let transcript_entropy_orbit ?memo tree sym =
  Orbit.transcript_entropy ?memo tree sym

(** Two-party internal information cost,
    [I(T ; X_0 | X_1) + I(T ; X_1 | X_0)] — what each player learns about
    the other's input. The paper compresses to {e external} information
    because (as it notes) the internal notion of Braverman-Rao does not
    extend to the broadcast model beyond two players; for [k = 2] both
    exist and [internal <= external], with equality on product
    distributions — relations the test suite checks exactly. Given
    [X_1], [X] is a function of [X_0], so [I(T ; X_0 | X_1)] is the
    conditional information cost with [D = X_1].
    @raise Invalid_argument if some input vector is not 2-dimensional. *)
let internal_ic_two_party ?memo tree mu =
  List.iter
    (fun (x, w) ->
      if R.sign w > 0 && Array.length x <> 2 then
        invalid_arg "Information.internal_ic_two_party: need k = 2")
    (D.to_alist mu);
  let given i = D.map_injective (fun x -> (x, x.(i))) mu in
  conditional_ic ?memo tree (given 1) +. conditional_ic ?memo tree (given 0)

(** Internal-style per-round decomposition of the external information
    cost via the chain rule (Section 6): [IC(Pi) = sum_j I(M_j ; X | M_<j)].
    Returns the per-round contributions, indexed by round; their sum
    equals [external_ic] up to float noise. We compute each term as the
    expected KL divergence between the speaker's true next-message law
    and the external observer's prediction, which is exactly the quantity
    the Lemma-7 compressor pays for. *)
let per_round_information ?memo tree mu =
  (* The round-j term
       I(M_j ; X | M_<j)
         = sum_{x,p,m} P(x,p,m) log2 (P(x,p,m) P(p) / (P(x,p) P(p,m)))
     where p ranges over board prefixes ending just before the j-th
     message (public coins included in p, not counted as rounds) and m
     over the message written next. A prefix is a trie node p, and
     P(x,p,m) = P(x,p.m) for its child p.m. *)
  let j = joint ?memo tree mu in
  let n = j.nodes and parent = j.parent in
  (* P(p): the transcripts' masses pushed up the trie. *)
  let pn = sums n j.tr j in
  for c = n - 1 downto 1 do
    pn.(parent.(c)) <- add pn.(parent.(c)) pn.(c)
  done;
  (* A message node's round: the messages above it. *)
  let msg c = j.code.(c) land 1 = 0 in
  let msgs = Array.make n 0 and rounds = ref 0 in
  for c = 1 to n - 1 do
    let p = parent.(c) in
    msgs.(c) <- (msgs.(p) + if msg c then 1 else 0);
    if msg c && not (equal pn.(c) (I 0)) then rounds := max !rounds msgs.(c)
  done;
  let out = Array.make !rounds 0. in
  (* log2 (P(p) / P(p.m)), the whole log ratio where P(x,p.m) = P(x,p). *)
  let lratio = Array.make n nan in
  (* P(x,p) over each input's rows, which are contiguous; [stamp] and
     [emitted] hold the group's first row. *)
  let px = Array.make n (I 0) and stamp = Array.make n (-1)
  and emitted = Array.make n (-1) in
  let rec up lo w c =
    if c >= 0 then begin
      px.(c) <- (if stamp.(c) = lo then add px.(c) w else w);
      stamp.(c) <- lo;
      up lo w parent.(c)
    end
  in
  let rec terms lo c =
    let p = parent.(c) in
    if c > 0 && msg c && emitted.(c) <> lo then begin
      emitted.(c) <- lo;
      let l =
        if equal px.(c) px.(p) then begin
          if Float.is_nan lratio.(c) then
            lratio.(c) <- R.log2 (ratio pn.(p) pn.(c));
          lratio.(c)
        end
        else R.log2 (R.mul (ratio px.(c) px.(p)) (ratio pn.(p) pn.(c)))
      in
      out.(msgs.(p)) <- out.(msgs.(p)) +. (to_float px.(c) j.total *. l)
    end;
    if c > 0 then terms lo p
  in
  let lo = ref 0 in
  for r = 0 to j.rows do
    if r = j.rows || j.input.(r) <> j.input.(!lo) then begin
      for r' = !lo to r - 1 do
        terms !lo j.tr.(r')
      done;
      lo := r
    end;
    if r < j.rows then up !lo j.mass.(r) j.tr.(r)
  done;
  out
