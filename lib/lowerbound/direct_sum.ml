(** The direct-sum embedding behind Lemma 1.

    Given a protocol for [DISJ_{n,k}] and a coordinate [j], we construct
    a protocol for one-bit [AND_k]: the special players [Z_{j'}] of all
    other coordinates are sampled {e publicly}; each player then privately
    samples its own bits at the other coordinates from the hard
    distribution conditioned on those [Z] values (so the joint law of the
    fabricated coordinates is exactly [mu^{n-1}]), plants its real bit at
    coordinate [j], and the players run the disjointness protocol on the
    fabricated instance. Because every fabricated coordinate contains a
    forced zero, the instance is disjoint iff coordinate [j] is not
    all-ones, so [AND_k = 1 - DISJ].

    Private sampling is folded into exact message distributions: at each
    node we carry, for every player and every value of its real bit, the
    exact posterior over its fabricated coordinates given the messages it
    has sent so far. The construction therefore yields an ordinary
    protocol tree whose conditional information cost can be computed
    exactly — giving a machine-checked instance of
    [CIC(AND embedding at j) <= CIC_{mu^n}(DISJ) ] summed over [j]. *)

module D = Prob.Dist_exact
module R = Exact.Rational
module T = Proto.Tree

(* Fabricated-coordinate codes: bit [t] of the code is the player's bit
   at the [t]-th coordinate different from [j]. *)
let other_coords ~n ~j =
  List.filter (fun c -> c <> j) (List.init n (fun c -> c))

let full_input ~n ~j ~others b code =
  let x = Array.make n 0 in
  x.(j) <- b;
  List.iteri (fun t c -> x.(c) <- (code lsr t) land 1) others;
  x

(* Prior weight of a fabricated-coordinate code for player [i], given
   the public Z-assignment [z_other] (a list aligned with [others]). *)
let code_prior ~k ~others ~z_other ~i code =
  let w = ref R.one in
  List.iteri
    (fun t z ->
      let bit = (code lsr t) land 1 in
      let factor =
        if z = i then if bit = 0 then R.one else R.zero
        else if bit = 0 then R.of_ints 1 k
        else R.of_ints (k - 1) k
      in
      w := R.mul !w factor)
    z_other;
  ignore others;
  !w

(** [embed ~disj_tree ~n ~k ~j] builds the AND_k protocol tree. *)
let embed ~disj_tree ~n ~k ~j =
  if j < 0 || j >= n then invalid_arg "Direct_sum.embed: bad coordinate";
  let others = other_coords ~n ~j in
  let codes = 1 lsl (n - 1) in
  (* Enumerate public Z-assignments for the other coordinates. *)
  let rec z_assignments t =
    if t = n - 1 then [ [] ]
    else
      List.concat_map
        (fun z -> List.map (fun rest -> z :: rest) (z_assignments (t + 1)))
        (List.init k (fun z -> z))
  in
  let assignments = z_assignments 0 in
  let simulate_for z_other =
    (* weights.(i).(b).(code): posterior weight of player i's fabricated
       coordinates when its real bit is b. *)
    let initial_weights =
      Array.init k (fun i ->
          Array.init 2 (fun _ ->
              Array.init codes (fun code ->
                  code_prior ~k ~others ~z_other ~i code)))
    in
    let rec simulate node weights =
      match node with
      | T.Output { value = v; _ } -> T.output (1 - v)
      | T.Chance { coin; children; _ } ->
          T.chance ~coin (Array.map (fun c -> simulate c weights) children)
      | T.Speak { speaker = i; emit; children; _ } ->
          let arity = Array.length children in
          (* message weights per bit value *)
          let msg_weight b m =
            let acc = ref R.zero in
            for code = 0 to codes - 1 do
              let w = weights.(i).(b).(code) in
              if not (R.is_zero w) then begin
                let x = full_input ~n ~j ~others b code in
                acc := R.add !acc (R.mul w (D.prob_of (emit x) m))
              end
            done;
            !acc
          in
          let emit' b =
            let pairs = List.init arity (fun m -> (m, msg_weight b m)) in
            if List.for_all (fun (_, w) -> R.is_zero w) pairs then
              (* unreachable for this bit value; emit anything *)
              D.return 0
            else D.of_weighted pairs
          in
          let child m =
            let weights' =
              Array.mapi
                (fun i' per_bit ->
                  if i' <> i then per_bit
                  else
                    Array.mapi
                      (fun b per_code ->
                        Array.mapi
                          (fun code w ->
                            if R.is_zero w then w
                            else
                              let x = full_input ~n ~j ~others b code in
                              R.mul w (D.prob_of (emit x) m))
                          per_code)
                      per_bit)
                weights
            in
            simulate children.(m) weights'
          in
          T.speak ~speaker:i ~emit:emit'
            (Array.init arity child)
    in
    simulate disj_tree initial_weights
  in
  match assignments with
  | [ [] ] ->
      (* n = 1: no public sampling needed *)
      simulate_for []
  | _ ->
      let children = Array.of_list (List.map simulate_for assignments) in
      let coin = D.uniform (List.init (Array.length children) (fun c -> c)) in
      T.chance ~coin children

(** Conditional information cost of the embedding at coordinate [j],
    under the hard AND distribution — the per-coordinate term of the
    direct sum. *)
let embedded_cic ~disj_tree ~n ~k ~j =
  let and_tree = embed ~disj_tree ~n ~k ~j in
  Proto.Information.conditional_ic and_tree
    (Protocols.Hard_dist.mu_and_with_aux ~k)

(** Both sides of (the protocol-level instance of) Lemma 1:
    [sum_j CIC(embed_j)] vs [CIC_{mu^n}(Pi_DISJ)]. The former must not
    exceed the latter (up to float noise). *)
let direct_sum_check ~disj_tree ~n ~k =
  let total =
    Proto.Information.conditional_ic disj_tree
      (Protocols.Hard_dist.mu_disj_with_aux ~n ~k)
  in
  let per_coord =
    Array.init n (fun j -> embedded_cic ~disj_tree ~n ~k ~j)
  in
  (total, per_coord)
