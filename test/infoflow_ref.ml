(** Reference implementation of {!Analysis.Infoflow.analyze}, kept as
    the straightforward version the library's per-row summaries are
    held equal to (test_infoflow_diff).

    The walk is the library's; the derivation after it recomputes, at
    every (leaf, player) pair, the player's row sum [s_j] and the KL
    bracket of its row, and adds [mass / s_j] times the bracket. *)

module F = Analysis.Infoflow
module Walk = Analysis.Walk
module Path = Analysis.Path
module D = Prob.Dist_exact
module R = Exact.Rational
module L = Infotheory.Rlog
module T = Proto.Tree

let analyze ?(budget = Analysis.Absint.default_budget) ?players
    ?(prec = F.default_prec) ?mu ~domain tree =
  let walk = Walk.start ~name:"infoflow" ?players ~budget ~domain tree in
  let d = Array.length domain in
  let mu = match mu with None -> F.uniform_mu d | Some m -> m in
  let players = walk.players in
  let struct_max = T.communication_cost tree in
  let raw_leaves = ref [] in
  let init_w = Array.init players (fun _ -> Array.make d R.one) in
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
              (fun i _ -> if R.sign (D.prob_of coin i) > 0 then incr live)
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
          let row = w.(speaker) in
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
                w'.(speaker) <- rows.(m);
                go (Path.child path m) w' cm (bits + charge) c
              end)
            children
  in
  Walk.run walk (fun () -> go Path.root init_w R.one 0 tree);
  let log2_bounds = L.log2_bounds ~prec in
  let total_mass = ref R.zero
  and max_leaf_mass = ref R.zero
  and expected_bits = ref R.zero
  and entropy_hi = ref R.zero
  and ext_lo = ref R.zero
  and ext_hi = ref R.zero in
  let leaves =
    List.rev_map
      (fun (leaf_path, output, bits, cm, w) ->
        let s =
          Array.init players (fun i ->
              let acc = ref R.zero in
              Array.iteri
                (fun v wv ->
                  if R.sign wv > 0 && R.sign mu.(v) > 0 then
                    acc := R.add !acc (R.mul mu.(v) wv))
                w.(i);
              !acc)
        in
        let mass =
          if Array.exists R.is_zero s then R.zero
          else Array.fold_left R.mul cm s
        in
        if R.sign mass > 0 then begin
          total_mass := R.add !total_mass mass;
          max_leaf_mass := R.max !max_leaf_mass mass;
          expected_bits := R.add !expected_bits (R.mul_int mass bits);
          let hlo, _ = log2_bounds mass in
          entropy_hi := R.sub !entropy_hi (R.mul mass hlo);
          for j = 0 to players - 1 do
            (* coefficient cm * prod_{i<>j} s_i, as mass / s_j *)
            let coeff = R.div mass s.(j) in
            let inner_lo = ref R.zero and inner_hi = ref R.zero in
            Array.iteri
              (fun v wv ->
                if R.sign wv > 0 && R.sign mu.(v) > 0 then begin
                  let a = R.mul mu.(v) wv in
                  let llo, lhi = log2_bounds (R.div wv s.(j)) in
                  inner_lo := R.add !inner_lo (R.mul a llo);
                  inner_hi := R.add !inner_hi (R.mul a lhi)
                end)
              w.(j);
            let inner_lo = R.max R.zero !inner_lo in
            ext_lo := R.add !ext_lo (R.mul coeff inner_lo);
            ext_hi := R.add !ext_hi (R.mul coeff !inner_hi)
          done
        end;
        { F.leaf_path; output; bits; mass })
      !raw_leaves
  in
  let partial =
    {
      F.players;
      domain_size = d;
      prec;
      mu;
      leaves = List.rev leaves;
      total_mass = !total_mass;
      nodes = walk.nodes;
      struct_max;
      widened = walk.widened;
      law_failures = walk.law_failures;
      deterministic = walk.deterministic && not walk.widened;
      sound = false;
      external_ic = { F.lo = R.zero; hi = R.of_int struct_max };
      internal_ic =
        {
          F.lo = R.zero;
          hi = R.mul_int (R.of_int struct_max) (max 0 (players - 1));
        };
      expected_bits = R.zero;
      entropy_hi = R.zero;
      max_leaf_mass = R.zero;
    }
  in
  match F.soundness_reason partial with
  | Some _ -> partial
  | None ->
      let ext_hi = R.min !ext_hi (R.min !expected_bits !entropy_hi) in
      let ext = { F.lo = !ext_lo; hi = ext_hi } in
      let scale = max 0 (players - 1) in
      {
        partial with
        sound = true;
        external_ic = ext;
        internal_ic =
          { F.lo = R.mul_int ext.lo scale; hi = R.mul_int ext.hi scale };
        expected_bits = !expected_bits;
        entropy_hi = !entropy_hi;
        max_leaf_mass = !max_leaf_mass;
      }
