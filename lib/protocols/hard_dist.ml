(** The hard input distributions of the paper.

    Section 4.1: the distribution [mu] for one-bit [AND_k] — pick a
    uniformly random special player [Z], force [X_Z = 0], and give every
    other player an independent zero with probability [1/k]. Conditioned
    on [Z] the inputs are independent, and every input in the support has
    [AND = 0] (conditions (1) and (2) of Lemma 1).

    Section 4 (Lemma 6): the distribution for the [Omega(k)] bound —
    all-ones with probability [eps'], otherwise a single uniformly random
    player gets zero.

    All laws are exact-rational. Inputs are bit vectors [int array] of
    length [k] (entries 0/1); the auxiliary variable [Z] is the special
    player's index. *)

module D = Prob.Dist_exact
module R = Exact.Rational

(** All bit-vectors over [k] players with exactly [c] zeros — the slice
    [X_c] of the paper. *)
let slice ~k ~c =
  List.filter
    (fun x -> Array.fold_left (fun acc b -> acc + (1 - b)) 0 x = c)
    (Proto.Semantics.all_bit_inputs k)

let check_p ~fn ~k p_zero =
  if k < 2 then invalid_arg ("Hard_dist." ^ fn ^ ": need k >= 2");
  if R.sign p_zero < 0 || R.compare p_zero R.one > 0 then
    invalid_arg ("Hard_dist." ^ fn ^ ": p_zero out of range")

(* The number of zeros among the low [k] bits of [code]. *)
let zeros ~k code =
  let c = ref 0 in
  for i = 0 to k - 1 do
    if (code lsr i) land 1 = 0 then incr c
  done;
  !c

(* The mass of one input with [c >= 1] zeros under the [p_zero] law:
   [(c/k) p_zero^(c-1) (1-p_zero)^(k-c)], as each of its zeros can be
   the special player's and the other [c - 1] are spontaneous. *)
let and_mass ~k ~p_zero c =
  R.mul (R.of_ints c k)
    (R.mul (R.pow p_zero (c - 1)) (R.pow (R.sub R.one p_zero) (k - c)))

(** Like {!mu_and_with_aux} but with the non-special players' zero
    probability as a parameter — the Section 4.1 design discussion made
    explorable. [p_zero = 0] gives the "all others get 1" extreme (zero
    residual entropy, so zero CIC is achievable); [p_zero] large makes
    zeros unsurprising. The paper's [1/k] balances the two; the E1b
    ablation sweeps this.

    Given [Z = z] the other [k - 1] bits are iid, so an atom's weight
    is [P(Z = z)] times one of [k] masses, one per zero count of the
    other bits' code [r], and [X] is [r] with a zero inserted at [z].
    The atoms come by [z], then by ascending [r] (ascending input
    code); codes of weight zero are left out, as [D.of_weighted] drops
    them. The weights sum to exactly one. *)
let mu_and_with_aux_p ~k ~p_zero =
  check_p ~fn:"mu_and_with_aux_p" ~k p_zero;
  let p_one = R.sub R.one p_zero and pz = R.of_ints 1 k in
  let weight =
    Array.init k (fun c ->
        R.mul pz (R.mul (R.pow p_zero c) (R.pow p_one (k - 1 - c))))
  in
  let codes =
    Array.of_list
      (List.filter
         (fun r -> R.sign weight.(zeros ~k:(k - 1) r) > 0)
         (List.init (1 lsl (k - 1)) Fun.id))
  in
  let m = Array.length codes in
  D.of_distinct
    (Array.init (k * m) (fun a ->
         let z = a / m and r = codes.(a mod m) in
         ( ( Array.init k (fun i ->
                 if i < z then (r lsr i) land 1
                 else if i = z then 0
                 else (r lsr (i - 1)) land 1),
             z ),
           weight.(zeros ~k:(k - 1) r) )))

(** The full joint law of [(X, Z)] for the Section 4.1 distribution:
    the [p_zero = 1/k] instance of {!mu_and_with_aux_p}. *)
let mu_and_with_aux ~k = mu_and_with_aux_p ~k ~p_zero:(R.of_ints 1 k)

(** Marginal law of the inputs alone, from its closed form (an input
    with [c] zeros has mass [(c/k) p^(c-1) (1-p)^(k-c)], [p = 1/k]), in
    the order of [D.map fst (mu_and_with_aux ~k)]: by the position of the
    first zero, then by input code. *)
let mu_and ~k =
  if k < 2 then invalid_arg "Hard_dist.mu_and: need k >= 2";
  let p_zero = R.of_ints 1 k in
  let weight = Array.init k (fun i -> and_mass ~k ~p_zero (i + 1)) in
  (* Codes whose first zero is bit [f]: bits below [f] set, bit [f]
     clear, the [k - 1 - f] bits above free. *)
  let codes =
    List.concat
      (List.init k (fun f ->
           List.init (1 lsl (k - 1 - f)) (fun h ->
               let code = (h lsl (f + 1)) lor ((1 lsl f) - 1) in
               (code, weight.(zeros ~k code - 1)))))
  in
  D.map_injective
    (fun code -> Array.init k (fun i -> (code lsr i) land 1))
    (D.of_weighted codes)

(** [mu] conditioned on the input lying in the slice [X_c]; used to
    define [pi_2] and [pi_3], the transcript laws on two- and three-zero
    inputs. Under [mu], conditioned on [|zeros| = c], all [c]-zero
    inputs are equally likely (the paper uses this symmetry), so this is
    just the uniform law on the slice. *)
let mu_on_slice ~k ~c = D.uniform (slice ~k ~c)

(** Exact probability that [X] has exactly [c] zeros under [mu]. *)
let slice_mass ~k ~c =
  D.prob (mu_and ~k) (fun x ->
      Array.fold_left (fun acc b -> acc + (1 - b)) 0 x = c)

(* ------------------------------------------------------------------ *)
(* Orbit-collapsed forms of the Section 4.1 laws. [mu] is fully        *)
(* exchangeable, so its marginal is k weighted Hamming-weight classes  *)
(* instead of 2^k atoms; conditioned on Z = z it is a product law that *)
(* is exchangeable over the non-special block. These feed the orbit    *)
(* evaluation engine (Proto.Orbit) for the large-k E1 sweeps.          *)
(* ------------------------------------------------------------------ *)

let bit_domain = [| 0; 1 |]

(** Orbit form of the [mu_and_with_aux_p] marginal: an input with
    [c >= 1] zeros has mass [(c/k) p_zero^(c-1) (1-p_zero)^(k-c)] — each
    of its zero positions can be the special player, the remaining
    [c - 1] zeros are spontaneous. Exactly [mu_and]'s law collapsed to
    Hamming-weight classes; the test suite holds {!Prob.Symdist.to_dist}
    of this equal to {!mu_and}. *)
let mu_and_orbit_p ~k ~p_zero =
  check_p ~fn:"mu_and_orbit_p" ~k p_zero;
  let classes =
    List.init k (fun i ->
        let c = i + 1 in
        ([| [| c; k - c |] |], and_mass ~k ~p_zero c))
  in
  Prob.Symdist.of_classes ~domain:bit_domain ~blocks:(Array.make k 0) classes

let mu_and_orbit ~k = mu_and_orbit_p ~k ~p_zero:(R.of_ints 1 k)

(** Orbit form of [mu_and_with_aux_p] as conditional slices: one
    [(P(Z = z), law of X | Z = z)] pair per special player. Conditioned
    on [Z = z] the law is a product — [X_z = 0] deterministically, the
    others iid zero w.p. [p_zero] — hence block-exchangeable over
    [{z}] and the rest. This is the shape {!Proto.Orbit.conditional_ic}
    consumes. The slices differ only in which player is special, so
    slice 0 is built once and the others relabel its classes. *)
let mu_and_aux_slices_p ~k ~p_zero =
  check_p ~fn:"mu_and_aux_slices_p" ~k p_zero;
  let blocks z = Array.init k (fun i -> if i = z then 0 else 1) in
  let weights = [| [| R.one; R.zero |]; [| p_zero; R.sub R.one p_zero |] |] in
  let slice0 =
    Prob.Symdist.iid_blocks ~domain:bit_domain ~blocks:(blocks 0) weights
  in
  let pz = R.of_ints 1 k in
  List.init k (fun z ->
      ( pz,
        if z = 0 then slice0
        else Prob.Symdist.relabel slice0 ~blocks:(blocks z) ))

let mu_and_aux_slices ~k = mu_and_aux_slices_p ~k ~p_zero:(R.of_ints 1 k)

(** The Lemma 6 distribution: all-ones w.p. [eps'], else one uniformly
    random player gets 0. [eps'] is given as an exact rational. *)
let mu_lemma6 ~k ~eps' =
  if R.sign eps' < 0 || R.compare eps' R.one > 0 then
    invalid_arg "Hard_dist.mu_lemma6: eps' out of range";
  let ones = Array.make k 1 in
  let single_zero z =
    Array.init k (fun i -> if i = z then 0 else 1)
  in
  let rest = R.sub R.one eps' in
  D.of_weighted
    ((ones, eps')
    :: List.init k (fun z -> (single_zero z, R.div_int rest k)))

(** The n-fold product of [mu] with its auxiliary variables: inputs are
    per-player bit vectors of length [n] (player [i]'s input is
    [x.(i)], an [int array] of coordinates), and the auxiliary variable
    is the vector [Z = (Z_1, ..., Z_n)] of special players per
    coordinate. This is [mu^n] of Lemma 1, shaped for the DISJ trees. *)
let mu_disj_with_aux ~n ~k =
  let coordinate = mu_and_with_aux ~k in
  let columns = D.iid n coordinate in
  D.map
    (fun cols ->
      let x =
        Array.init k (fun i -> Array.init n (fun j -> (fst cols.(j)).(i)))
      in
      let z = Array.map snd cols in
      (x, z))
    columns

let mu_disj ~n ~k = D.map fst (mu_disj_with_aux ~n ~k)

(** Reference functions. *)
let and_fn x = Array.fold_left (fun acc b -> acc land b) 1 x

(** [DISJ_{n,k}]: 1 iff the sets are disjoint (no coordinate is 1 for
    every player). Inputs as per-player coordinate vectors. *)
let disj_fn x =
  let k = Array.length x in
  let n = if k = 0 then 0 else Array.length x.(0) in
  let intersect = ref false in
  for j = 0 to n - 1 do
    let all_one = ref true in
    for i = 0 to k - 1 do
      if x.(i).(j) = 0 then all_one := false
    done;
    if !all_one then intersect := true
  done;
  if !intersect then 0 else 1
