(** Theorem 3: amortized compression of many parallel copies.

    Given [n] independent inputs drawn from [mu], the players run [n]
    copies of the protocol {e in parallel, round by round}: at each
    round, the messages of all copies (whose current speaker coincides)
    are transmitted {e jointly} by one invocation of the Lemma-7 point
    sampler over the product universe. The per-round divergence adds up
    across copies to the round's information cost, while the
    [O(log(...))] overhead of the sampler is paid once per round — not
    once per copy — which is exactly why the per-copy cost converges to
    [IC_mu(Pi)] as [n] grows.

    One round loop serves two samplers. The literal one runs the actual
    point process, so the product universe must stay enumerable:
    [prod arities <= 2^max_log_u] per transmission — with binary
    messages, a few dozen parallel copies, enough to exhibit the
    convergence. The factored one samples the communicated values from
    their closed-form laws and has no such cap. *)

module T = Proto.Tree

type run = {
  copies : int;
  total_bits : int;
  per_copy_bits : float;
  rounds : int;  (** parallel rounds executed *)
  transmissions : int;  (** point-sampler invocations *)
  aborted : int;  (** transmissions that hit the fallback path *)
  outputs : int array;  (** per-copy protocol outputs *)
  agreed : bool;  (** every decoder matched every speaker *)
}

let max_log_u = 20

(* D(eta || nu) in bits — only evaluated when a trace sink is
   installed, to label each transmission with the divergence budget it
   is entitled to spend (Lemma 7). *)
let divergence_bits eta nu =
  let d = ref 0. in
  Array.iteri
    (fun i p -> if p > 0. then d := !d +. (p *. Float.log2 (p /. nu.(i))))
    eta;
  !d

let mixed_radix_decode arities code =
  let n = Array.length arities in
  let values = Array.make n 0 in
  let c = ref code in
  for i = n - 1 downto 0 do
    values.(i) <- !c mod arities.(i);
    c := !c / arities.(i)
  done;
  values

(* The coin a uniform [x] picks from [law] by inverse CDF (0 when
   rounding leaves [x] past the last mass). *)
let rec pick_coin law x i =
  if i = Array.length law then 0
  else if x < law.(i) then i
  else pick_coin law (x -. law.(i)) (i + 1)

(* The Theorem-3 round loop: every round, settle public coins, group
   the active copies by speaker, and transmit each group jointly.
   [transmit ~public ~traced ~etas ~nus writer] is the sampler: given
   the shared public stream (split there as the sampler needs), the
   group's per-copy speaker laws [etas] and observer priors [nus], it
   writes the joint encoding and returns the per-copy messages sent,
   whether the fallback path was taken, and whether the receivers
   decoded what was sent. *)
let run_rounds ~what ~seed ~tree ~mu ~inputs transmit =
  let copies = Array.length inputs in
  if copies = 0 then invalid_arg what;
  let public = Blackboard.Runtime.public_rng ~seed in
  let writer = Coding.Bitbuf.Writer.create () in
  (* One root: copies with equal transcripts share a state (Observer). *)
  let observers = Array.make copies (Observer.create tree mu) in
  let rounds = ref 0 in
  let transmissions = ref 0 in
  let aborted = ref 0 in
  let agreed = ref true in
  let any_active () = Array.exists (fun o -> not (Observer.finished o)) observers in
  (* Resolve chance nodes with shared public coins until every active
     copy sits at a Speak node. *)
  let settle_chance () =
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iteri
        (fun c o ->
          match Observer.chance_view o with
          | Some law ->
              let coin_rng = Prob.Rng.split public in
              let coin = pick_coin law (Prob.Rng.float coin_rng) 0 in
              observers.(c) <- Observer.advance_coin o coin;
              changed := true
          | None -> ())
        observers
    done
  in
  while any_active () do
    incr rounds;
    let traced = Obs.Trace.enabled () in
    if traced then Obs.Trace.emit (Obs.Event.Round_start { round = !rounds });
    let round_mark = Coding.Bitbuf.Writer.length writer in
    settle_chance ();
    (* Group active copies by speaker. *)
    let groups = Hashtbl.create 4 in
    Array.iteri
      (fun c o ->
        match Observer.speak_view o with
        | Some (speaker, _, _) ->
            let existing =
              Option.value ~default:[] (Hashtbl.find_opt groups speaker)
            in
            Hashtbl.replace groups speaker (c :: existing)
        | None -> ())
      observers;
    let speakers =
      List.sort compare (Hashtbl.fold (fun sp _ acc -> sp :: acc) groups [])
    in
    List.iter
      (fun speaker ->
        let group = Array.of_list (List.rev (Hashtbl.find groups speaker)) in
        let etas =
          Array.map
            (fun c -> Observer.speaker_eta observers.(c) inputs.(c).(speaker))
            group
        in
        let nus =
          Array.map
            (fun c ->
              match Observer.speak_view observers.(c) with
              | Some (_, _, nu) -> nu
              | None -> assert false)
            group
        in
        let sent, fell_back, decoded =
          transmit ~public ~traced ~etas ~nus writer
        in
        incr transmissions;
        if fell_back then incr aborted;
        if not decoded then agreed := false;
        (* Advance every copy in the group on its component message. *)
        Array.iteri
          (fun gi c ->
            observers.(c) <- Observer.advance_msg observers.(c) sent.(gi))
          group)
      speakers;
    settle_chance ();
    if traced then
      Obs.Trace.emit
        (Obs.Event.Round_end
           {
             round = !rounds;
             bits = Coding.Bitbuf.Writer.length writer - round_mark;
           })
  done;
  let total_bits = Coding.Bitbuf.Writer.length writer in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.bump "amortized.rounds" !rounds;
    Obs.Metrics.bump "amortized.transmissions" !transmissions;
    Obs.Metrics.bump "amortized.aborts" !aborted;
    Obs.Metrics.bump "amortized.bits" total_bits
  end;
  {
    copies;
    total_bits;
    per_copy_bits = float_of_int total_bits /. float_of_int copies;
    rounds = !rounds;
    transmissions = !transmissions;
    aborted = !aborted;
    outputs = Array.map Observer.output_exn observers;
    agreed = !agreed;
  }

(* The product law of a group, expanded in place one factor at a time,
   the first most significant: entry [j] becomes [j*a .. j*a + a - 1],
   all at or past [j], so a descending sweep reads it first. Each entry
   ends as [((1 * f_0(v_0)) * ...) * f_n(v_n)] over its mixed-radix
   digits, the products of decoding each code in their order. *)
let product_law u factors =
  let law = Array.make u 1. and len = ref 1 in
  if u > 0 then
    Array.iter
      (fun f ->
        let a = Array.length f in
        for j = !len - 1 downto 0 do
          let p = law.(j) in
          for v = a - 1 downto 0 do
            law.((j * a) + v) <- p *. f.(v)
          done
        done;
        len := !len * a)
      factors;
  law

(** [compress_parallel ~seed ~tree ~mu ~inputs ()] runs the compressed
    [n]-fold protocol on the given per-copy inputs (each an array of
    per-player inputs): each group is one {!Point_sampler} invocation
    over the product universe, checked by the honest decoder. *)
let compress_parallel ?(eps = 0.01) ~seed ~tree ~mu ~inputs () =
  let max_blocks = Point_sampler.default_max_blocks eps in
  run_rounds ~what:"Amortized.compress_parallel: no copies" ~seed ~tree ~mu
    ~inputs (fun ~public ~traced ~etas ~nus writer ->
      let arities = Array.map Array.length nus in
      let log_u =
        Array.fold_left
          (fun acc a -> acc +. Float.log2 (float_of_int a))
          0. arities
      in
      if log_u > float_of_int max_log_u then
        invalid_arg
          "Amortized.compress_parallel: product universe too large \
           (reduce copies)";
      let u = Array.fold_left (fun acc a -> acc * a) 1 arities in
      let eta = product_law u etas and nu = product_law u nus in
      if traced then
        Obs.Trace.emit
          (Obs.Event.Sampler_budget
             { divergence = divergence_bits eta nu; eps });
      (* Fresh shared round stream; the decoder gets an equal copy. *)
      let round_rng = Prob.Rng.split public in
      let decoder_rng = Prob.Rng.copy round_rng in
      let reader_mark = Coding.Bitbuf.Writer.length writer in
      let res =
        Point_sampler.transmit ~rng:round_rng ~eta ~nu ~eps ~max_blocks writer
      in
      (* Run the honest decoder on the bits just written: slice the
         round out of the stream writer as a packed vector (no per-bit
         boxing of the whole history). *)
      let round_vec =
        Coding.Bitbuf.Writer.extract writer ~pos:reader_mark
          ~len:(Coding.Bitbuf.Writer.length writer - reader_mark)
      in
      let reader = Coding.Bitbuf.Reader.of_vec round_vec in
      let decoded =
        Point_sampler.decode ~rng:decoder_rng ~nu ~u ~max_blocks reader
      in
      ( mixed_radix_decode arities res.sent,
        res.aborted,
        decoded = res.sent ))

(** Like {!compress_parallel} but driven by the cost-faithful
    {!Factored_sampler}, so the number of copies is unbounded by the
    product-universe size (hundreds of copies are fine). No honest
    decoder runs (there are no literal points to replay), so [agreed]
    is reported true; the two simulators are cross-validated at small
    sizes by the test suite. *)
let compress_parallel_factored ?(eps = 0.01) ~seed ~tree ~mu ~inputs () =
  run_rounds ~what:"Amortized.compress_parallel_factored" ~seed ~tree ~mu
    ~inputs (fun ~public ~traced ~etas ~nus writer ->
      if traced then begin
        (* Product-law divergence adds across the group's factors. *)
        let d = ref 0. in
        Array.iteri
          (fun gi eta -> d := !d +. divergence_bits eta nus.(gi))
          etas;
        Obs.Trace.emit (Obs.Event.Sampler_budget { divergence = !d; eps })
      end;
      let round_rng = Prob.Rng.split public in
      let res =
        Factored_sampler.transmit ~rng:round_rng ~etas ~nus ~eps writer
      in
      (res.Factored_sampler.sent, res.Factored_sampler.aborted, true))

let draw_inputs ~seed ~mu ~copies =
  let sampler = Prob.Sampler.create (Prob.Dist_exact.to_float_dist mu) in
  let rng = Prob.Rng.of_int_seed (seed * 7919) in
  Array.init copies (fun _ -> Prob.Sampler.draw sampler rng)

(** Draw [copies] iid inputs from [mu] (by its float image) and run the
    compressed protocol; convenience for experiments. *)
let compress_random ?(eps = 0.01) ~seed ~tree ~mu ~copies () =
  let inputs = draw_inputs ~seed ~mu ~copies in
  (compress_parallel ~eps ~seed ~tree ~mu ~inputs (), inputs)

(** {!compress_random} on the factored simulator. *)
let compress_random_factored ?(eps = 0.01) ~seed ~tree ~mu ~copies () =
  let inputs = draw_inputs ~seed ~mu ~copies in
  (compress_parallel_factored ~eps ~seed ~tree ~mu ~inputs (), inputs)
