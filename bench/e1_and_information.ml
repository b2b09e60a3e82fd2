(** E1 — Theorem 1: the conditional information cost of [AND_k] under
    the hard distribution grows like [log k].

    We compute, exactly, [CIC_mu(Pi)] of the sequential protocol (the
    natural zero-error witness) for a sweep of [k], and report the ratio
    to [log2 k]: Theorem 1 says every small-error protocol is
    [Omega(log k)], and the witness confirms the shape from above while
    the ratio column being bounded away from 0 confirms it from below
    for this protocol. The table also shows the external IC and the
    noisy-protocol variant (a genuinely randomized, small-error
    protocol) to show the bound is not an artifact of determinism.

    The direct [2^k] enumeration carries the sweep to [k = 11]; beyond
    that the orbit-collapsed engine ({!Proto.Orbit}) continues it to
    [k = 24] by exploiting the full exchangeability of [mu] — the
    [k <= 11] rows stay on the direct path untouched, so they remain
    bit-identical to earlier benchmark artifacts, and the two engines
    are held equal by the differential gate below (E1c additionally
    cross-checks both against closed forms). *)

module R = Exact.Rational

(* ------------------------------------------------------------------ *)
(* Orbit feasibility check. The old harness hardcoded [k > 8] for the  *)
(* noisy column; instead, ask the abstract interpreter for the live    *)
(* node count and bound the collapsed state space it implies. Each     *)
(* live node contributes at most one path; a deterministic tree keeps  *)
(* one revealed-weight class per block (O(k) cells per leaf), while a  *)
(* randomized emit law can split every player into its own class,      *)
(* costing up to (k+1)^2 value compositions per group pair times the   *)
(* k conditional slices. The noisy chain's big-rational cell weights   *)
(* make each unit genuinely expensive, so the budget is deliberately   *)
(* small: it admits the noisy column through k = 12 and cuts it off    *)
(* where the exact computation would dominate the whole experiment.    *)
(* ------------------------------------------------------------------ *)

let orbit_cell_budget = 60_000

let orbit_ok ~k tree =
  let a = Analysis.Absint.analyze ~players:k ~domain:[| 0; 1 |] tree in
  let estimate =
    if a.Analysis.Absint.deterministic then a.nodes * k
    else a.nodes * (k + 1) * (k + 1) * k
  in
  (not a.widened) && estimate <= orbit_cell_budget

let noisy_tree k =
  Protocols.And_protocols.noisy_sequential ~k
    ~noise:(Exact.Rational.of_ints 1 50)

let cic_noisy_orbit k =
  let noisy = noisy_tree k in
  if not (orbit_ok ~k noisy) then None
  else
    Some
      (Proto.Information.conditional_ic_orbit noisy
         (Protocols.Hard_dist.mu_and_aux_slices ~k))

(* ------------------------------------------------------------------ *)
(* Closed forms for the sequential witness under mu (E1c). With        *)
(* q = 1/k the transcript is determined by the first announced zero:   *)
(*   P[T = j] = (1-q)^j (1 + (k-1-j) q) / k          j = 0..k-1       *)
(* (position j is the special player, or an earlier-than-Z spontaneous *)
(* zero), so IC = I(T;X) = H(T) exactly (T is a function of X); and    *)
(* conditioned on Z = z,                                               *)
(*   P[T = j | z] = q (1-q)^j  (j < z),   (1-q)^z  (j = z),            *)
(* giving CIC = (1/k) sum_z H(T | Z = z). All probabilities are exact  *)
(* rationals; floats enter only at the final log2, matching the        *)
(* engines' float discipline.                                          *)
(* ------------------------------------------------------------------ *)

let plogp p = if R.is_zero p then 0.0 else -.R.to_float p *. R.log2 p

let ic_closed k =
  let q = R.of_ints 1 k in
  let r = R.sub R.one q in
  let acc = ref 0.0 in
  for j = 0 to k - 1 do
    let p_j =
      R.div_int (R.mul (R.pow r j) (R.add R.one (R.mul_int q (k - 1 - j)))) k
    in
    acc := !acc +. plogp p_j
  done;
  !acc

let cic_closed k =
  let q = R.of_ints 1 k in
  let r = R.sub R.one q in
  let acc = ref 0.0 in
  for z = 0 to k - 1 do
    let h = ref (plogp (R.pow r z)) in
    for j = 0 to z - 1 do
      h := !h +. plogp (R.mul q (R.pow r j))
    done;
    acc := !acc +. (!h /. float_of_int k)
  done;
  !acc

let run () =
  Exp_util.heading "E1" "CIC_mu(AND_k) scales like log k (Theorem 1)";
  (* k <= 11 stays on the direct 2^k path: these rows are the
     byte-stable artifact prefix. The rows run one after another on one
     domain: the k = 11 row is most of the work, and fanning the rows
     over the domain pool read slower than one domain. CIC and IC share
     one memo of transcript laws per row. *)
  let data =
    List.map
      (fun k ->
        let tree = Protocols.And_protocols.sequential k in
        let mu_aux = Protocols.Hard_dist.mu_and_with_aux ~k in
        let mu = Protocols.Hard_dist.mu_and ~k in
        let memo = Proto.Semantics.memo () in
        let cic = Proto.Information.conditional_ic ~memo tree mu_aux in
        let cic_noisy = cic_noisy_orbit k in
        let ic = Proto.Information.external_ic ~memo tree mu in
        let logk = Float.log2 (float_of_int k) in
        (k, cic, cic_noisy, ic, logk))
      [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]
  in
  (* Orbit-collapsed continuation: mu is fully exchangeable, so the
     collapsed law has k Hamming-weight classes instead of 2^k atoms
     and the sweep keeps going where enumeration stops. *)
  let orbit_data =
    List.map
      (fun k ->
        let tree = Protocols.And_protocols.sequential k in
        let memo = Proto.Orbit.memo () in
        let ic =
          Proto.Information.external_ic_orbit ~memo tree
            (Protocols.Hard_dist.mu_and_orbit ~k)
        in
        let cic =
          Proto.Information.conditional_ic_orbit ~memo tree
            (Protocols.Hard_dist.mu_and_aux_slices ~k)
        in
        let cic_noisy = cic_noisy_orbit k in
        let logk = Float.log2 (float_of_int k) in
        (k, cic, cic_noisy, ic, logk))
      [ 12; 16; 20; 24 ]
  in
  let ratios = List.map (fun (_, cic, _, _, logk) -> cic /. logk) data in
  let json_rows =
    List.map
      (fun (k, cic, _, ic, logk) ->
        Obs.Jsonw.
          [
            ("k", Int k);
            ("cic_bits", Float cic);
            ("ic_bits", Float ic);
            ("log2k_bound", Float logk);
            ("cic_over_log2k", Float (cic /. logk));
          ])
      data
  in
  let orbit_json_rows =
    List.map
      (fun (k, cic, _, ic, logk) ->
        Obs.Jsonw.
          [
            ("k", Int k);
            ("cic_bits", Float cic);
            ("ic_bits", Float ic);
            ("log2k_bound", Float logk);
            ("cic_over_log2k", Float (cic /. logk));
          ])
      orbit_data
  in
  let table_rows engine rows =
    List.map
      (fun (k, cic, cic_noisy, ic, logk) ->
        Exp_util.
          [
            I k;
            F cic;
            (match cic_noisy with Some c -> F c | None -> S "-");
            F ic;
            F2 logk;
            F2 (cic /. logk);
            S engine;
          ])
      rows
  in
  Exp_util.table
    ~header:
      [
        "k"; "CIC(seq)"; "CIC(noisy)"; "IC(seq)"; "log2 k"; "CIC/log2 k";
        "engine";
      ]
    (table_rows "direct" data @ table_rows "orbit" orbit_data);
  Exp_util.note
    "Expected shape: CIC/log2 k bounded below by a constant (paper: Omega(log k)).";
  Exp_util.note
    "Corollary 1 then gives CIC(DISJ_{n,k}) >= n * CIC(AND_k) = Omega(n log k).";
  Exp_util.note
    "The noisy column stops where the Absint cell budget (%d) cuts it off,"
    orbit_cell_budget;
  Exp_util.note
    "not at a hardcoded k: randomized laws cost ~(k+1)^2 cells per leaf.";
  Exp_util.record_rows "rows" json_rows;
  Exp_util.record_rows "orbit_rows" orbit_json_rows;
  Exp_util.record_i "orbit_k_max"
    (List.fold_left (fun acc (k, _, _, _, _) -> max acc k) 0 orbit_data);
  Exp_util.record_i "noisy_k_max"
    (List.fold_left
       (fun acc (k, _, noisy, _, _) -> if noisy = None then acc else max acc k)
       0 (data @ orbit_data));
  Exp_util.record_f "cic_over_log2k_min" (List.fold_left min infinity ratios);
  Exp_util.record_f "cic_over_log2k_max"
    (List.fold_left max neg_infinity ratios);

  (* Differential gate: the orbit engine must agree with the direct
     enumeration — exactly (width 0, collapsed joint laws compared cell
     by cell as rationals) at small k for both the deterministic and
     the randomized tree, and to 1e-9 on every float the direct table
     reports at k <= 11. *)
  let exact_ok = ref true in
  for k = 2 to 7 do
    let mu = Protocols.Hard_dist.mu_and_orbit ~k in
    List.iter
      (fun tree ->
        let orbit = Proto.Orbit.collapse tree mu in
        let direct = Proto.Orbit.For_testing.collapse_direct tree mu in
        if not (Proto.Orbit.For_testing.equal_collapsed orbit direct) then
          exact_ok := false)
      [ Protocols.And_protocols.sequential k; noisy_tree k ]
  done;
  let float_ok = ref true in
  List.iter
    (fun (k, cic, _, ic, _) ->
      let tree = Protocols.And_protocols.sequential k in
      let memo = Proto.Orbit.memo () in
      let ic' =
        Proto.Information.external_ic_orbit ~memo tree
          (Protocols.Hard_dist.mu_and_orbit ~k)
      in
      let cic' =
        Proto.Information.conditional_ic_orbit ~memo tree
          (Protocols.Hard_dist.mu_and_aux_slices ~k)
      in
      if Float.abs (ic -. ic') > 1e-9 || Float.abs (cic -. cic') > 1e-9 then
        float_ok := false)
    data;
  let orbit_identical = if !exact_ok && !float_ok then 1 else 0 in
  Exp_util.record_i "orbit_identical_all" orbit_identical;
  Exp_util.note
    "Orbit vs direct: width-0 rational equality (k<=7, seq+noisy) %s; float"
    (if !exact_ok then "holds" else "FAILS");
  Exp_util.note "agreement at 1e-9 on all k<=11 rows %s."
    (if !float_ok then "holds" else "FAILS");

  (* Ablation of the distribution's design: Section 4.1 explains that
     the non-special players' zero probability must be large enough to
     leave residual entropy but small enough that zeros stay
     surprising; 1/k balances the two. Runs on the orbit engine (every
     ablated law is still exchangeable given Z), which is what lets the
     sweep reach k = 16 cheaply. *)
  Exp_util.heading "E1b"
    "Ablation: how the hard distribution's zero probability must scale";
  let cic_at k p_zero =
    Proto.Information.conditional_ic_orbit
      (Protocols.And_protocols.sequential k)
      (Protocols.Hard_dist.mu_and_aux_slices_p ~k ~p_zero)
  in
  let rows =
    Par.parallel_map
      (fun k ->
        Exp_util.
          [
            I k;
            F (cic_at k Exact.Rational.zero);
            F (cic_at k (Exact.Rational.of_ints 1 (k * k)));
            F (cic_at k (Exact.Rational.of_ints 1 k));
            F (cic_at k (Exact.Rational.of_ints 1 4));
            F2 (Float.log2 (float_of_int k));
          ])
      [ 4; 6; 8; 10; 12; 16 ]
  in
  Exp_util.table
    ~header:
      [ "k"; "p=0"; "p=1/k^2"; "p=1/k (paper)"; "p=1/4 fixed"; "log2 k" ]
    rows;
  Exp_util.note
    "Expected (the Section-4.1 design bullets): p = 0 leaves no residual entropy,";
  Exp_util.note
    "so CIC = 0 exactly; p = 1/k^2 makes the second zero vanish and CIC decays";
  Exp_util.note
    "toward 0; a fixed p saturates at H(Geometric(p)) = O(1) as k grows (~3.3";
  Exp_util.note
    "bits at p = 1/4, already flattening); only p ~ 1/k keeps the zero-holder's";
  Exp_util.note "identity worth log k bits, so CIC keeps growing like log k.";

  (* Cross-check against closed forms. The sequential witness under mu
     has an analytic transcript law (first announced zero), so both IC
     and CIC have closed forms — the kind of exact small-k anchors the
     multiparty AND literature computes symbolically (cf. the exact
     AND-complexity analyses of Filmus-Hatami-Li-You, arXiv:1703.07833,
     and Gronemeier's optimal NIH bound via AND, arXiv:0902.1609).
     Every engine row — direct k <= 11 and orbit
     k >= 12 — must land within 1e-9 of the formula. *)
  Exp_util.heading "E1c"
    "Closed-form cross-check of both engines (first-zero transcript law)";
  let check =
    List.map
      (fun (k, cic, _, ic, _) ->
        let ic_cf = ic_closed k and cic_cf = cic_closed k in
        let d = Float.max (Float.abs (ic -. ic_cf)) (Float.abs (cic -. cic_cf)) in
        ( Exp_util.
            [
              I k;
              F ic;
              F ic_cf;
              F cic;
              F cic_cf;
              S (Printf.sprintf "%.1e" d);
            ],
          d ))
      (data @ orbit_data)
  in
  Exp_util.table
    ~header:
      [ "k"; "IC(engine)"; "IC(closed)"; "CIC(engine)"; "CIC(closed)"; "max|d|" ]
    (List.map fst check);
  let worst = List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 check in
  let within = if worst <= 1e-9 then 1 else 0 in
  Exp_util.record_f "fhly_delta_max" worst;
  Exp_util.record_i "fhly_within_tol" within;
  Exp_util.note
    "P[T=j] = (1-q)^j (1+(k-1-j)q)/k with q = 1/k; IC = H(T) (deterministic";
  Exp_util.note
    "tree), CIC = (1/k) sum_z H(T|Z=z). Worst engine-vs-formula delta: %.2e." worst
