(** The Braverman-Weinstein discrepancy lower bound (arXiv:1112.2000)
    over the leaf summaries of {!Analysis.Infoflow} — the second
    information lower-bound engine beside Lemma 5.

    Braverman-Weinstein bound the information cost of any protocol that
    computes [f] against the {e discrepancy} of [f]: every transcript of
    a protocol induces a combinatorial rectangle of inputs, and a
    rectangle on which the protocol is (nearly) committed to an answer
    cannot carry much more probability mass than the discrepancy allows,
    so the transcript distribution has min-entropy — hence information
    cost — at least [log2 (1 / disc_mu(f))]. This module implements the
    zero-error specialization of that argument, where it is exact and
    fully certifiable with rational arithmetic:

    - For a {e deterministic} protocol tree, the transcript is a
      function of the inputs, so [IC_mu = I(T;X) = H(T)], and
      [H(T) >= log2 (1 / max_l mass_l)] — the {e partition bound},
      computable from the leaf masses alone, protocol by protocol.
    - For any deterministic tree that computes [f] with zero error,
      every reachable leaf rectangle is monochromatic under [f], so
      [max_l mass_l <= mono_mu(f)], the largest mass of any
      [f]-monochromatic product rectangle — giving the {e
      protocol-independent} bound [IC_mu >= log2 (1 / mono_mu(f))].
      A monochromatic rectangle [R] has
      [|mu(R inter f^-1(1)) - mu(R inter f^-1(0))| = mu(R)], so always
      [mono_mu(f) <= disc_mu(f)] and this specialization dominates the
      generic [log2 (1 / disc)] form, which is also provided.

    Both [mono_mu] and [disc_mu] are computed {e exactly} over every
    product rectangle of the (tiny) domain — [(2^d - 1)^k] rectangles
    of up to [d^k] points — by one sweep that runs a subset-sum pass
    per axis, behind a work cap that returns [None] rather than
    stalling on large domains. All logarithms go through
    {!Infotheory.Rlog.log2_lo}, so every returned bound is a sound
    rational. *)

module R = Exact.Rational
module F = Analysis.Infoflow

let default_work_cap = 160_000_000

(* ------------------------------------------------------------------ *)
(* Partition bound: per-protocol, from the leaf masses                 *)
(* ------------------------------------------------------------------ *)

let partition_bound ?prec (flow : F.t) =
  if flow.F.sound && flow.F.deterministic && R.sign flow.F.max_leaf_mass > 0
  then Some (Infotheory.Rlog.log2_lo ?prec (R.inv flow.F.max_leaf_mass))
  else None

(* ------------------------------------------------------------------ *)
(* Exact rectangle sweep                                               *)
(* ------------------------------------------------------------------ *)

(* The two rectangle quantities, from one sweep. *)
type sweep = { mono : R.t; disc : R.t }

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

(* Per-point tables over the [d^k] points of the full domain cube,
   indexed by the mixed-radix point code [sum_p x_p d^p]: the colour
   [f x] as a dense id (first-seen order), and the signed point mass,
   [+mu(x)] where [f x = 1] and [-mu(x)] elsewhere. *)
let point_tables ~players:k ~domain_size:d ~mu ~f =
  let npoints = pow d k in
  let colour = Array.make npoints 0 in
  let signed = Array.make npoints R.zero in
  let ids = Hashtbl.create 4 in
  let profile = Array.make k 0 in
  let rec fill p idx stride mass =
    if p = k then begin
      let c = f profile in
      colour.(idx) <-
        (match Hashtbl.find_opt ids c with
        | Some i -> i
        | None ->
            let i = Hashtbl.length ids in
            Hashtbl.add ids c i;
            i);
      signed.(idx) <- (if c = 1 then mass else R.neg mass)
    end
    else
      for v = 0 to d - 1 do
        profile.(p) <- v;
        fill (p + 1) (idx + (v * stride)) (stride * d) (R.mul mass mu.(v))
      done
  in
  fill 0 0 1 R.one;
  (colour, signed)

(* Every positive-mass product rectangle (a product of nonempty
   per-player domain subsets, bitmask-encoded) in one pass: axis [p]'s
   subset-sum table over the remaining axes is built from the table of
   the rectangle prefix above it, each subset from the subset without
   its lowest element plus that element's slice. A table cell holds the
   signed mass summed over the rectangle's points there and their
   common colour id, or [-1] once two colours meet; after the last axis
   each cell is one rectangle. So each rectangle costs about one
   rational addition instead of a re-sum over up to [d^k] points. The
   mono quantity is the largest mu-mass of a one-colour rectangle, and
   the discrepancy the largest |signed mass|, both starting at zero.
   [None] when [(2^d - 1)^k] rectangles of up to [d^k] points each
   would exceed the work cap. *)
let sweep ~work_cap ~players ~domain_size ~mu ~f =
  let d = domain_size and k = players in
  if d <= 0 || k <= 0 || d > Sys.int_size - 2 then None
  else begin
    let subsets = (1 lsl d) - 1 in
    (* rectangles x points-per-rectangle, overflow-safe in floats *)
    let work =
      (float_of_int subsets ** float_of_int k)
      *. (float_of_int d ** float_of_int k)
    in
    if work > float_of_int work_cap then None
    else begin
      let subset_mass = Array.make (subsets + 1) R.zero in
      let low_bit = Array.make (subsets + 1) 0 in
      for m = 1 to subsets do
        let mass = ref R.zero in
        for v = d - 1 downto 0 do
          if m land (1 lsl v) <> 0 then begin
            mass := R.add !mass mu.(v);
            low_bit.(m) <- v
          end
        done;
        subset_mass.(m) <- !mass
      done;
      let colour, signed = point_tables ~players ~domain_size ~mu ~f in
      (* Level [p] reduces axis [p]: [width.(p)] cells per subset, one
         per point of the axes after [p]. *)
      let width = Array.init k (fun p -> pow d (k - p - 1)) in
      let cols = Array.map (fun w -> Array.make ((subsets + 1) * w) 0) width in
      let sums =
        Array.map (fun w -> Array.make ((subsets + 1) * w) R.zero) width
      in
      let mono = ref R.zero and hi = ref R.zero and lo = ref R.zero in
      let rec level p src_col src_sum off mass =
        let w = width.(p) and col = cols.(p) and sum = sums.(p) in
        for m = 1 to subsets do
          let b = low_bit.(m) in
          let rest = m land (m - 1) in
          for j = 0 to w - 1 do
            let i = off + b + (d * j) and c = (m * w) + j in
            if rest = 0 then begin
              col.(c) <- src_col.(i);
              sum.(c) <- src_sum.(i)
            end
            else begin
              let r = (rest * w) + j in
              col.(c) <- (if col.(r) = src_col.(i) then col.(r) else -1);
              sum.(c) <- R.add sum.(r) src_sum.(i)
            end
          done
        done;
        for m = 1 to subsets do
          if R.sign subset_mass.(m) > 0 then
            if p < k - 1 then
              level (p + 1) col sum (m * w) (R.mul mass subset_mass.(m))
            else begin
              let s = sum.(m) in
              if R.compare s !hi > 0 then hi := s
              else if R.compare s !lo < 0 then lo := s;
              if col.(m) >= 0 then begin
                let mass = R.mul mass subset_mass.(m) in
                if R.compare mass !mono > 0 then mono := mass
              end
            end
        done
      in
      level 0 colour signed 0 R.one;
      Some { mono = !mono; disc = R.max !hi (R.neg !lo) }
    end
  end

let mono_mass ?(work_cap = default_work_cap) ~players ~domain_size ~mu ~f () =
  Option.map (fun s -> s.mono) (sweep ~work_cap ~players ~domain_size ~mu ~f)

let disc ?(work_cap = default_work_cap) ~players ~domain_size ~mu ~f () =
  Option.map (fun s -> s.disc) (sweep ~work_cap ~players ~domain_size ~mu ~f)

let log_inv ?prec x =
  if R.sign x > 0 && R.compare x R.one <= 0 then
    Some (Infotheory.Rlog.log2_lo ?prec (R.inv x))
  else None

let mono_bound ?work_cap ?prec ~players ~domain_size ~mu ~f () =
  Option.bind (mono_mass ?work_cap ~players ~domain_size ~mu ~f ())
    (log_inv ?prec)

let disc_bound ?work_cap ?prec ~players ~domain_size ~mu ~f () =
  Option.bind (disc ?work_cap ~players ~domain_size ~mu ~f ())
    (log_inv ?prec)

(* ------------------------------------------------------------------ *)
(* The pluggable engine                                                *)
(* ------------------------------------------------------------------ *)

let engine ?(work_cap = default_work_cap) ?prec ~zero_error_spec (flow : F.t) =
  let partition =
    match partition_bound ?prec flow with
    | Some b -> [ ("bw-partition", b) ]
    | None -> []
  in
  let rectangles =
    match zero_error_spec with
    | Some f when flow.F.sound && flow.F.deterministic -> (
        match
          sweep ~work_cap ~players:flow.F.players
            ~domain_size:flow.F.domain_size ~mu:flow.F.mu ~f
        with
        | None -> []
        | Some s ->
            List.filter_map
              (fun (name, x) -> Option.map (fun b -> (name, b)) (log_inv ?prec x))
              [ ("bw-mono-rectangle", s.mono); ("bw-discrepancy", s.disc) ])
    | _ -> []
  in
  partition @ rectangles
