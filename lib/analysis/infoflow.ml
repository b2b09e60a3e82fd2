(** Static information-cost certification: abstract interpretation over
    protocol trees whose abstract state is a {e transcript-distribution
    summary}.

    {!Absint} answers "which leaf rectangles are reachable"; this engine
    additionally answers "with what probability" — under a declared
    product input distribution [mu] — and from that derives {e sound}
    rational bounds on the external and internal information cost
    without ever enumerating input profiles jointly.

    {2 The abstract domain}

    Fix a per-player marginal [mu] over the domain (the input profile is
    the product [mu^k]; the broadcast lower bounds of the paper are
    proven against product-like distributions for exactly the reason
    this analysis exploits). For a transcript prefix [t], the
    restriction of the joint input law to "executions consistent with
    [t]" {e factorizes per player} — the same Lemma-6 structure behind
    {!Absint}'s rectangles, refined from sets to weights:

    [Pr[X = x, T follows t] = cm_t * prod_i mu(x_i) * w_{t,i}(x_i)]

    where [cm_t] is the product of public-coin probabilities along [t]
    and [w_{t,i}(v)] is the product of player [i]'s emission
    probabilities along [t] when holding input [v]. The abstract state
    pushed down the tree is exactly [(cm, w)]: one rational per player
    per domain point. It is {e exact} — no abstraction loss — because a
    message law depends only on the speaker's own input and the board.

    {2 The derived bounds}

    At each leaf, let [s_i = sum_v mu(v) w_i(v)]; the leaf's transcript
    probability is [mass = cm * prod_i s_i]. External information cost
    decomposes exactly over (leaf, player):

    [IC_ext = sum_l cm_l * sum_j (prod_{i<>j} s_{l,i})
                * sum_v mu(v) w_{l,j}(v) log2 (w_{l,j}(v) / s_{l,j})]

    and each inner sum is a Kullback-Leibler form, hence non-negative.
    A (leaf, player) term is [mass_l] times a factor that depends only
    on the row [w_{l,j}]: its coefficient is [mass_l / s_{l,j}]. A row
    is built once, at the [Speak] node that refines it, and shared by
    every leaf below, so each distinct row is summarized once, as [s],
    [lo = max(0, KL_lo) / s] and [hi = KL_hi / s], and each leaf adds
    [mass_l * sum_j lo_j] and [mass_l * sum_j hi_j]. In exact
    rationals that is the per-(leaf, player) sum term for term, so no
    bound moves.
    Every quantity except the [log2] is an exact rational; bracketing
    each logarithm with {!Infotheory.Rlog} (all coefficients are
    non-negative, and the inner sums may additionally be clamped at 0)
    yields sound lower {e and} upper bounds whose gap vanishes like
    [2^-prec] — and is exactly zero when every ratio is a power of two,
    as happens for deterministic trees over power-of-two domains under
    uniform [mu]. Two independent upper bounds tighten the cap:
    [E[charged bits]] (Kraft: [I(T;X) = I(M;X|coins) <= H(M|coins) <=
    E[bits]], a pure rational, no logs) and the partition entropy
    [H(T) = sum_l mass_l log2 (1/mass_l) >= I(T;X)].

    Internal information cost needs no separate traversal: summing the
    chain rule [I(T;X) = I(T;X_i) + I(T;X_{-i}|X_i)] over [i] and
    evaluating both sides with the factorization above gives the exact
    identity [sum_i I(T;X_{-i}|X_i) = (k-1) * I(T;X)] under product
    [mu], so the internal interval is [(k-1)] times the external one.

    {2 Widening and soundness}

    The traversal walks the unfolded tree with {!Walk}'s node budget and
    law split, like {!Absint} (DESIGN.md §9); past the budget the
    analysis {e widens}: the only still-sound summary is the trivial
    [[0, CC(tree)]] (information never exceeds communication), the
    result is flagged [widened] and {!Certify} reports it inconclusive.
    Emission laws that raise, overflow their arity, or are not exactly
    normalized, and coins that are not exactly normalized, likewise
    poison soundness ([law_failures]) and trigger the same fallback —
    never a silently wrong certificate. Such an input is dropped rather
    than sent to top: a weight vector has no top. *)

module D = Prob.Dist_exact
module R = Exact.Rational
module L = Infotheory.Rlog
module T = Proto.Tree

type bound = { lo : R.t; hi : R.t }

let pp_bound fmt { lo; hi } =
  Format.fprintf fmt "[%s, %s]" (R.to_string lo) (R.to_string hi)

let bound_to_string b = Format.asprintf "%a" pp_bound b

type leaf = {
  leaf_path : Path.t;
  output : int;
  bits : int;  (** charged bits along the path to this leaf *)
  mass : R.t;  (** exact transcript probability under [mu] *)
}

type t = {
  players : int;
  domain_size : int;
  prec : int;
  mu : R.t array;  (** the per-player marginal the analysis ran under *)
  leaves : leaf list;
  total_mass : R.t;  (** exactly 1 whenever [sound] *)
  nodes : int;
  struct_max : int;
  widened : bool;
  law_failures : int;
  deterministic : bool;
      (** the transcript is a function of the input profile: no live
          public randomness and every live emission is a point mass *)
  sound : bool;
      (** the intervals below are the tight decomposition bounds; when
          false they are the trivial fallback [[0, struct_max]] *)
  external_ic : bound;
  internal_ic : bound;
  expected_bits : R.t;  (** exact [E[charged bits]]; 0 unless [sound] *)
  entropy_hi : R.t;
      (** sound upper bound on the transcript entropy [H(T)]; 0 unless
          [sound] *)
  max_leaf_mass : R.t;
      (** largest leaf probability; the discrepancy / partition lower
          bound engine ({!Lowerbound.Discrepancy}) feeds on it. 0
          unless [sound] or there are no leaves *)
}

let default_prec = L.default_prec

let uniform_mu n = Array.make n (R.of_ints 1 n)

let soundness_reason a =
  if a.widened then
    Some
      (Printf.sprintf
         "node budget exhausted after %d nodes; transcript masses are \
          incomplete"
         a.nodes)
  else if a.law_failures > 0 then
    Some
      (Printf.sprintf
         "%d emission laws raised, overflowed their arity, or were not \
          exactly normalized; run proto-lint"
         a.law_failures)
  else if not (R.equal a.total_mass R.one) then
    Some
      (Printf.sprintf "leaf masses sum to %s, not 1"
         (R.to_string a.total_mass))
  else None

(* Rlog calls dominate the row summaries and the leaf entropies, and
   the same ratios recur across rows and leaves (deterministic subtrees
   yield few distinct ratios), so memoize per analysis. The rational
   itself is the key: [Rational] keeps one representation per value
   (small when it fits, big otherwise), so structural hashing and
   equality agree with numeric equality, as in [Prob.Dist_core]. A
   value that did break that invariant would only miss and recompute
   the same bounds. *)
let memoized_log2_bounds ~prec =
  let memo = Hashtbl.create 64 in
  fun x ->
    match Hashtbl.find_opt memo x with
    | Some b -> b
    | None ->
        let b = L.log2_bounds ~prec x in
        Hashtbl.add memo x b;
        b

(* One player's weight row [w(v)] with its summary: [s = sum_v mu(v)
   w(v)], and the row's KL bracket divided by [s] (both 0 when [s] is,
   as every leaf holding such a row has mass 0). *)
type row = { w : R.t array; s : R.t; lo : R.t; hi : R.t }

let analyze ?(budget = Absint.default_budget) ?players
    ?(prec = default_prec) ?mu ~domain tree =
  let walk = Walk.start ~name:"infoflow" ?players ~budget ~domain tree in
  let d = Array.length domain in
  if prec < 1 then invalid_arg "Infoflow.analyze: prec must be positive";
  let mu =
    match mu with
    | None -> uniform_mu d
    | Some m ->
        if Array.length m <> d then
          invalid_arg "Infoflow.analyze: mu length differs from domain";
        Array.iter
          (fun p ->
            if R.sign p < 0 then
              invalid_arg "Infoflow.analyze: mu carries a negative weight")
          m;
        if not (R.equal (R.sum (Array.to_list m)) R.one) then
          invalid_arg "Infoflow.analyze: mu does not sum to 1";
        m
  in
  let players = walk.players in
  let struct_max = T.communication_cost tree in
  let log2_bounds = memoized_log2_bounds ~prec in
  (* Rows recur across the tree (a deterministic speaker's rows are
     point masses), so they are interned by content, like the log
     bounds above: each distinct row is summarized once, and equal
     rows share one record. *)
  let summaries = Hashtbl.create 64 in
  let summarize w =
    match Hashtbl.find_opt summaries w with
    | Some r -> r
    | None ->
        let a =
          Array.mapi
            (fun v wv ->
              if R.sign wv > 0 && R.sign mu.(v) > 0 then R.mul mu.(v) wv
              else R.zero)
            w
        in
        let s = Array.fold_left R.add R.zero a in
        let lo = ref R.zero and hi = ref R.zero in
        Array.iteri
          (fun v av ->
            if R.sign av > 0 then begin
              let llo, lhi = log2_bounds (R.div w.(v) s) in
              lo := R.add !lo (R.mul av llo);
              hi := R.add !hi (R.mul av lhi)
            end)
          a;
        (* the KL form is truly >= 0; a row with [s = 0] has no term *)
        let per x = if R.is_zero s then R.zero else R.div x s in
        let r = { w; s; lo = per (R.max R.zero !lo); hi = per !hi } in
        Hashtbl.add summaries w r;
        r
  in
  (* Raw leaves carry the per-player rows; masses and bounds are
     derived after the walk. *)
  let raw_leaves = ref [] in
  let init_w = Array.make players (summarize (Array.make d R.one)) in
  let rec go path w cm bits t =
    if Walk.tick walk then
      match t with
      | T.Output { value = v; _ } ->
          raw_leaves := (path, v, bits, cm, w) :: !raw_leaves
      | T.Chance { coin; children; _ } ->
          if not (R.equal (D.mass coin) R.one) then Walk.fail walk
          else begin
            let live = ref 0 in
            Array.iteri
              (fun i _ ->
                if R.sign (D.prob_of coin i) > 0 then incr live)
              children;
            if !live > 1 then walk.deterministic <- false;
            Array.iteri
              (fun i c ->
                let p = D.prob_of coin i in
                if R.sign p > 0 then
                  go (Path.child path i) w (R.mul cm p) bits c)
              children
          end
      | T.Speak { speaker; emit; children; id } ->
          let arity = Array.length children in
          let charge = T.bits_of_arity arity in
          (* Per-symbol weight row for the speaker; other players' rows
             are unchanged and shared (rows are immutable once built).
             An input whose law fails is dropped from every row. *)
          let row = w.(speaker).w in
          let rows = Array.init arity (fun _ -> Array.make d R.zero) in
          let any = Array.make arity false in
          ignore
            (Walk.split walk ~count:true ~normalized:true ~id emit ~arity
               (List.filter (fun v -> R.sign row.(v) > 0) walk.inputs)
               (fun v s p ->
                 rows.(s).(v) <- R.mul row.(v) p;
                 any.(s) <- true));
          Array.iteri
            (fun m c ->
              if any.(m) then begin
                let w' = Array.copy w in
                w'.(speaker) <- summarize rows.(m);
                go (Path.child path m) w' cm (bits + charge) c
              end)
            children
  in
  Walk.run walk (fun () -> go Path.root init_w R.one 0 tree);
  if Obs.Metrics.enabled () && walk.widened then
    Obs.Metrics.bump "infoflow.widenings" 1;
  (* ---------------- derive masses and bounds ---------------- *)
  let total_mass = ref R.zero
  and max_leaf_mass = ref R.zero
  and expected_bits = ref R.zero
  and entropy_hi = ref R.zero
  and ext_lo = ref R.zero
  and ext_hi = ref R.zero in
  let leaves =
    List.rev_map
      (fun (leaf_path, output, bits, cm, w) ->
        let mass = Array.fold_left (fun m r -> R.mul m r.s) cm w in
        if R.sign mass > 0 then begin
          total_mass := R.add !total_mass mass;
          max_leaf_mass := R.max !max_leaf_mass mass;
          expected_bits := R.add !expected_bits (R.mul_int mass bits);
          let hlo, _ = log2_bounds mass in
          (* log2_hi (1/mass) = -(log2_lo mass), avoiding an inversion *)
          entropy_hi := R.sub !entropy_hi (R.mul mass hlo);
          let lo = ref R.zero and hi = ref R.zero in
          Array.iter
            (fun r ->
              lo := R.add !lo r.lo;
              hi := R.add !hi r.hi)
            w;
          ext_lo := R.add !ext_lo (R.mul mass !lo);
          ext_hi := R.add !ext_hi (R.mul mass !hi)
        end;
        { leaf_path; output; bits; mass })
      !raw_leaves
  in
  let leaves = List.rev leaves in
  let partial =
    {
      players;
      domain_size = d;
      prec;
      mu;
      leaves;
      total_mass = !total_mass;
      nodes = walk.nodes;
      struct_max;
      widened = walk.widened;
      law_failures = walk.law_failures;
      deterministic = walk.deterministic && not walk.widened;
      sound = false;
      external_ic = { lo = R.zero; hi = R.of_int struct_max };
      internal_ic =
        { lo = R.zero; hi = R.mul_int (R.of_int struct_max) (max 0 (players - 1)) };
      expected_bits = R.zero;
      entropy_hi = R.zero;
      max_leaf_mass = R.zero;
    }
  in
  match soundness_reason partial with
  | Some _ ->
      (* Unsound masses: keep only the trivial IC <= CC fallback. *)
      partial
  | None ->
      let ext_hi = R.min !ext_hi (R.min !expected_bits !entropy_hi) in
      let ext = { lo = !ext_lo; hi = ext_hi } in
      let scale = max 0 (players - 1) in
      {
        partial with
        sound = true;
        external_ic = ext;
        internal_ic =
          { lo = R.mul_int ext.lo scale; hi = R.mul_int ext.hi scale };
        expected_bits = !expected_bits;
        entropy_hi = !entropy_hi;
        max_leaf_mass = !max_leaf_mass;
      }
