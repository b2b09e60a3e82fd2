(** Information costs of protocols (Definitions 5 and 6 of the paper),
    computed exactly from the protocol-tree semantics.

    - External information cost: [IC_mu(Pi) = I(Transcript ; X)] where
      [X ~ mu] is the joint input.
    - Conditional information cost: [CIC_mu(Pi) = I(Transcript ; X | D)]
      for a distribution [mu] on pairs [(X, D)] of inputs and an
      auxiliary variable. *)

module D = Prob.Dist_exact
module R = Exact.Rational

(* A growable column. *)
type 'a col = { mutable a : 'a array; mutable n : int }

let col x = { a = Array.make 64 x; n = 0 }

let push c x =
  if c.n = Array.length c.a then c.a <- Array.append c.a (Array.make c.n x);
  c.a.(c.n) <- x;
  c.n <- c.n + 1

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* The joint law of (input, aux, transcript) as int-coded rows: the
   rows of [D.bind mu (fun v -> D.map (fun t -> (v, t))
   (Semantics.transcript_dist (input v)))], in its order, with its exact
   weights and its semantics. Each input's transcript law drops
   non-positive weights and is renormalized unless its mass is exactly
   one; pieces of non-positive weight are dropped; a repeated (input,
   aux, transcript) merges at its first position; and the rows are
   renormalized unless their total is exactly one.

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
  w : R.t array;
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
            (intern 0 t, if R.is_one total then w else R.div w total))
          items
  in
  let inputs = Hashtbl.create 256 and auxes = Hashtbl.create 16 in
  let laws = col [] and cells = Hashtbl.create 256 in
  let input = col 0 and aux = col 0 and tr = col 0 and w = col R.zero in
  let total = ref R.zero in
  List.iter
    (fun (v, wv) ->
      let x, d = split v in
      let xid = number inputs x in
      if xid = laws.n then push laws (law x);
      if R.sign wv > 0 then begin
        total := R.add !total wv;
        let z = number auxes d in
        List.iter
          (fun (t, wt) ->
            let piece = if R.is_one wt then wv else R.mul wv wt in
            let r = number cells (xid, z, t) in
            if r < w.n then w.a.(r) <- R.add w.a.(r) piece
            else begin
              push input xid;
              push aux z;
              push tr t;
              push w piece
            end)
          laws.a.(xid)
      end)
    (D.to_alist mu);
  if w.n = 0 then no_mass ();
  let total = !total in
  { rows = w.n; input = input.a; aux = aux.a; tr = tr.a;
    w = (if R.is_one total then w.a
         else Array.init w.n (fun r -> R.div w.a.(r) total));
    inputs = laws.n; auxes = Hashtbl.length auxes; nodes = parent.n;
    parent = parent.a; code = code.a }

let no_aux x = (x, ())

(* The exact mass of each id in [0, n) over the rows, [ids] giving each
   row's id. *)
let sums n ids j =
  let m = Array.make n R.zero in
  for r = 0 to j.rows - 1 do
    let i = ids.(r) in
    m.(i) <- (if R.is_zero m.(i) then j.w.(r) else R.add m.(i) j.w.(r))
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
   slice after [D.condition] on it — each weight over [wz] (skipped on a
   mass of one), against the slice's exact marginals of its input and
   transcript. The marginals live in arrays reset lazily by a stamp: a
   fresh even stamp s marks this slice's masses, s + 1 their floats. *)
let slice_mi j =
  let px = Array.make j.inputs R.zero and xs = Array.make j.inputs 0
  and fx = Array.make j.inputs 0. in
  let pt = Array.make j.nodes R.zero and ts = Array.make j.nodes 0
  and ft = Array.make j.nodes 0. in
  let stamp = ref 0 in
  fun rows ->
    stamp := !stamp + 2;
    let s = !stamp in
    let bump m ms i w =
      if ms.(i) = s then m.(i) <- R.add m.(i) w
      else begin
        ms.(i) <- s;
        m.(i) <- w
      end
    in
    let wz =
      List.fold_left
        (fun acc r ->
          bump px xs j.input.(r) j.w.(r);
          bump pt ts j.tr.(r) j.w.(r);
          if R.is_zero acc then j.w.(r) else R.add acc j.w.(r))
        R.zero rows
    in
    let cond w = R.to_float (if R.is_one wz then w else R.div w wz) in
    let float m ms f i =
      if ms.(i) = s then begin
        ms.(i) <- s + 1;
        f.(i) <- cond m.(i)
      end;
      f.(i)
    in
    let k = kahan () in
    List.iter
      (fun r ->
        let pa = float px xs fx j.input.(r) and pb = float pt ts ft j.tr.(r) in
        kadd k (mi_term (cond j.w.(r)) pa pb))
      rows;
    (wz, k.sum)

let external_ic ?memo tree mu =
  let j = table ?memo tree no_aux mu in
  snd (slice_mi j (List.init j.rows Fun.id))

(* The values of the aux variable in order of first appearance, each
   weighted by its mass: [Measures.conditional_mutual_information]. *)
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
      kadd outer (R.to_float wz *. mi))
    slices;
  outer.sum

let transcript_entropy ?memo tree mu =
  let j = table ?memo tree no_aux mu in
  let pt = sums j.nodes j.tr j and seen = Array.make j.nodes false in
  let k = kahan () in
  for r = 0 to j.rows - 1 do
    let t = j.tr.(r) in
    if not seen.(t) then begin
      seen.(t) <- true;
      kadd k (-.Infotheory.Fn.xlog2x (R.to_float pt.(t)))
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
  let j = table ?memo tree no_aux mu in
  let n = j.nodes and parent = j.parent in
  (* P(p): the transcripts' masses pushed up the trie. *)
  let pn = sums n j.tr j in
  for c = n - 1 downto 1 do
    let p = parent.(c) in
    if not (R.is_zero pn.(c)) then
      pn.(p) <- (if R.is_zero pn.(p) then pn.(c) else R.add pn.(p) pn.(c))
  done;
  (* A message node's round: the messages above it. *)
  let msg c = j.code.(c) land 1 = 0 in
  let msgs = Array.make n 0 and rounds = ref 0 in
  for c = 1 to n - 1 do
    let p = parent.(c) in
    msgs.(c) <- (msgs.(p) + if msg c then 1 else 0);
    if msg c && not (R.is_zero pn.(c)) then rounds := max !rounds msgs.(c)
  done;
  let out = Array.make !rounds 0. in
  (* log2 (P(p) / P(p.m)), the whole log ratio where P(x,p.m) = P(x,p). *)
  let lratio = Array.make n nan in
  (* P(x,p) over each input's rows, which are contiguous; [stamp] and
     [emitted] hold the group's first row. *)
  let px = Array.make n R.zero and stamp = Array.make n (-1)
  and emitted = Array.make n (-1) in
  let rec up lo w c =
    if c >= 0 then begin
      px.(c) <- (if stamp.(c) = lo then R.add px.(c) w else w);
      stamp.(c) <- lo;
      up lo w parent.(c)
    end
  in
  let rec terms lo c =
    let p = parent.(c) in
    if c > 0 && msg c && emitted.(c) <> lo then begin
      emitted.(c) <- lo;
      let l =
        if R.equal px.(c) px.(p) then begin
          if Float.is_nan lratio.(c) then
            lratio.(c) <- R.log2 (R.div pn.(p) pn.(c));
          lratio.(c)
        end
        else R.log2 (R.div (R.mul px.(c) pn.(p)) (R.mul px.(p) pn.(c)))
      in
      out.(msgs.(p)) <- out.(msgs.(p)) +. (R.to_float px.(c) *. l)
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
    if r < j.rows then up !lo j.w.(r) j.tr.(r)
  done;
  out
