(** Cost-faithful simulation of the Lemma-7 sampler over {e product}
    universes too large to enumerate.

    The literal point process needs about [|U|] public points per round;
    with [n] parallel binary-message copies [|U| = 2^n], so the literal
    simulator ({!Point_sampler}) stops being runnable around 20 copies.
    But the {e communicated values} — block index, log-ratio [s], rank
    width — have simple laws that can be sampled directly:

    - the selected joint symbol is a product sample [x_c ~ eta_c]
      (that is what rejection sampling outputs);
    - [s = ceil(sum_c log2 (eta_c(x_c) / nu_c(x_c)))];
    - the block index is geometric: the per-block acceptance probability
      is [1 - (1 - 1/u)^u] (about [1 - 1/e] for huge [u]);
    - the number of other block points under the scaled prior [2^s nu]
      is [Binomial(u - 1, q)] with [q = E_unif min(1, 2^s nu(x'))] —
      for huge [u] a Poisson with mean [lambda = u*q], taken in closed
      form as [2^min(s, log2 u)]: without the cap [sum_x' 2^s nu(x') =
      2^s], since the product prior sums to 1.

    The resulting per-round bit cost has the same law as the literal
    protocol's wherever the cap at 1 shaves no mass (elsewhere it is a
    slight overestimate); the agreement of the two simulators at small
    sizes is a unit test, and the large-copy Theorem-3 experiment (E6c)
    is run on this one. *)

type result = {
  sent : int array;  (** per-copy message symbols, jointly [prod eta_c] *)
  bits : int;
  aborted : bool;
  log_ratio : int;
}

let sample_from rng (law : float array) =
  let x = ref (Prob.Rng.float rng) in
  let pick = ref (Array.length law - 1) in
  (try
     Array.iteri
       (fun i p ->
         if !x < p then begin
           pick := i;
           raise Exit
         end
         else x := !x -. p)
       law
   with Exit -> ());
  !pick

(* Poisson sampler: Knuth for small means, normal approximation for
   large ones (only the bit-width of the value matters downstream). *)
let poisson rng lambda =
  if lambda <= 0. then 0
  else if lambda < 30. then begin
    let l = Float.exp (-.lambda) in
    let rec go k p =
      let p = p *. Prob.Rng.float rng in
      if p <= l then k else go (k + 1) p
    in
    go 0 1.
  end
  else begin
    (* Box-Muller normal *)
    let u1 = Float.max 1e-12 (Prob.Rng.float rng) in
    let u2 = Prob.Rng.float rng in
    let z = Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2) in
    Stdlib.max 0 (int_of_float (Float.round (lambda +. (Float.sqrt lambda *. z))))
  end

(** [transmit ~rng ~etas ~nus ?eps writer] simulates one
    joint transmission for copies with per-copy laws [etas.(c)] over
    arity [Array.length etas.(c)], against observer priors [nus.(c)].
    Writes the (simulated) bits into [writer] so the accounting matches
    the literal protocol's framing. *)
let transmit ~rng ~etas ~nus ?(eps = 0.01) writer =
  let copies = Array.length etas in
  if copies = 0 || Array.length nus <> copies then
    invalid_arg "Factored_sampler.transmit";
  let max_blocks = Point_sampler.default_max_blocks eps in
  let bits_before = Coding.Bitbuf.Writer.length writer in
  (* 1. the sample itself *)
  let sent = Array.map (fun eta -> sample_from rng eta) etas in
  (* 2. the log-ratio *)
  let log_ratio =
    let acc = ref 0. in
    Array.iteri
      (fun c x ->
        let e = etas.(c).(x) and n = nus.(c).(x) in
        if n <= 0. then
          invalid_arg "Factored_sampler.transmit: eta not dominated by nu";
        acc := !acc +. Float.log2 (e /. n))
      sent;
    !acc
  in
  let s = int_of_float (Float.ceil log_ratio) in
  (* 3. the block index: per-block acceptance 1 - (1-1/u)^u; log2 u =
     sum of per-copy log-arities *)
  let log2_u =
    Array.fold_left
      (fun acc eta -> acc +. Float.log2 (float_of_int (Array.length eta)))
      0. etas
  in
  let per_block_miss =
    if log2_u > 50. then Float.exp (-1.)
    else begin
      let u = Float.round (Float.pow 2. log2_u) in
      Float.pow (1. -. (1. /. u)) u
    end
  in
  let block =
    let rec go b = if b > max_blocks then None
      else if Prob.Rng.float rng >= per_block_miss then Some b
      else go (b + 1)
    in
    go 1
  in
  match block with
  | None ->
      (* fallback framing: abort marker + plain symbols *)
      Coding.Intcode.write_gamma writer (max_blocks + 1);
      Array.iteri
        (fun c x ->
          Coding.Intcode.write_fixed writer ~bound:(Array.length etas.(c)) x)
        sent;
      {
        sent;
        bits = Coding.Bitbuf.Writer.length writer - bits_before;
        aborted = true;
        log_ratio = s;
      }
  | Some block ->
      (* 4. |P'| = 1 + Poisson(lambda). Without the min(1, .) cap,
         lambda = sum_{x'} 2^s nu(x') = 2^s exactly, because the product
         prior nu sums to 1 over the product universe. The cap can only
         shave mass where nu(x') > 2^-s, so lambda = 2^min(s, log2 u) is
         an exact value in the typical regime and a slight overestimate
         (hence a cost upper bound) in degenerate ones. (Sampling the
         summand is hopeless: it is lognormal with enormous variance.) *)
      let log2_lambda = Float.min log2_u (float_of_int s) in
      let rank_width =
        if log2_lambda > 20. then
          (* |P'| ~ Poisson(2^log2_lambda) concentrates tightly; the
             width is its log2, no sampling needed (and 2^log2_lambda
             may vastly exceed the float/int range) *)
          int_of_float (Float.ceil log2_lambda)
        else
          Coding.Intcode.fixed_width
            (1 + poisson rng (Float.pow 2. log2_lambda))
      in
      Coding.Intcode.write_gamma writer block;
      Coding.Intcode.write_signed_gamma writer s;
      (* rank payload: content is irrelevant to the cost simulation *)
      for _ = 1 to rank_width do
        Coding.Bitbuf.Writer.add_bit writer false
      done;
      {
        sent;
        bits = Coding.Bitbuf.Writer.length writer - bits_before;
        aborted = false;
        log_ratio = s;
      }
