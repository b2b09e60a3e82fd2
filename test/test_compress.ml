(** Tests for the Lemma-7 point sampler, the observer, and the
    Theorem-3 amortized compression. *)

module PS = Compress.Point_sampler
module Obs = Compress.Observer
module Am = Compress.Amortized
module D = Prob.Dist_exact
module R = Exact.Rational
open Test_util

let transmit_and_decode ~seed ~eta ~nu ~eps =
  let rng = Prob.Rng.of_int_seed seed in
  let round = Prob.Rng.split rng in
  let dec = Prob.Rng.copy round in
  let w = Coding.Bitbuf.Writer.create () in
  let res = PS.transmit ~rng:round ~eta ~nu ~eps w in
  let reader = Coding.Bitbuf.Reader.of_writer w in
  let decoded =
    PS.decode ~rng:dec ~nu ~u:(Array.length eta)
      ~max_blocks:(PS.default_max_blocks eps)
      reader
  in
  (res, decoded, Coding.Bitbuf.Writer.length w)

let t_agreement () =
  let eta = [| 0.7; 0.1; 0.1; 0.1 |] in
  let nu = [| 0.25; 0.25; 0.25; 0.25 |] in
  for seed = 0 to 499 do
    let res, decoded, total = transmit_and_decode ~seed ~eta ~nu ~eps:0.01 in
    Alcotest.(check int) "decoder agrees" res.PS.sent decoded;
    Alcotest.(check int) "bits accounted" res.PS.bits total
  done

let t_sample_distribution () =
  (* the sent symbol must be eta-distributed *)
  let eta = [| 0.5; 0.25; 0.125; 0.125 |] in
  let nu = [| 0.1; 0.2; 0.3; 0.4 |] in
  let counts = Array.make 4 0 in
  let trials = 20_000 in
  for seed = 0 to trials - 1 do
    let res, _, _ = transmit_and_decode ~seed ~eta ~nu ~eps:0.05 in
    counts.(res.PS.sent) <- counts.(res.PS.sent) + 1
  done;
  Array.iteri
    (fun i c ->
      check_close
        ~msg:(Printf.sprintf "freq of %d" i)
        ~eps:0.02 eta.(i)
        (float_of_int c /. float_of_int trials))
    counts

let t_point_mass_cheap () =
  (* eta = nu = point mass: cost should be tiny and constant *)
  let eta = [| 1.; 0. |] and nu = [| 1.; 0. |] in
  let res, decoded, _ = transmit_and_decode ~seed:1 ~eta ~nu ~eps:0.01 in
  Alcotest.(check int) "symbol 0" 0 res.PS.sent;
  Alcotest.(check int) "decoded" 0 decoded;
  check_le ~msg:"few bits" (float_of_int res.PS.bits) 8.

let t_cost_tracks_divergence () =
  (* sweep divergences; measured mean bits must stay within the model's
     envelope and grow with D *)
  let u = 64 in
  let nu = Array.make u (1. /. float_of_int u) in
  let avg_bits_for p0 =
    (* eta concentrates mass p0 on symbol 0 *)
    let rest = (1. -. p0) /. float_of_int (u - 1) in
    let eta = Array.init u (fun i -> if i = 0 then p0 else rest) in
    let total = ref 0 in
    let trials = 600 in
    for seed = 0 to trials - 1 do
      let res, _, _ = transmit_and_decode ~seed ~eta ~nu ~eps:0.01 in
      total := !total + res.PS.bits
    done;
    let d =
      Infotheory.Measures.Float.kl
        (Prob.Dist.of_weighted (Array.to_list (Array.mapi (fun i p -> (i, p)) eta)))
        (Prob.Dist.uniform (List.init u (fun i -> i)))
    in
    (float_of_int !total /. float_of_int trials, d)
  in
  let low, d_low = avg_bits_for 0.1 in
  let high, d_high = avg_bits_for 0.95 in
  Alcotest.(check bool) "divergences ordered" true (d_low < d_high);
  Alcotest.(check bool)
    (Printf.sprintf "cost grows with D (%.2f @D=%.2f vs %.2f @D=%.2f)" low
       d_low high d_high)
    true (low < high);
  (* envelope: D + O(log D + log 1/eps) with a generous constant *)
  check_le ~msg:"within model envelope" high
    (d_high +. (4. *. Float.log2 (d_high +. 2.)) +. 14.)

let t_abort_path () =
  (* force aborts with max_blocks = 0: fallback must still agree *)
  let eta = [| 0.5; 0.5 |] and nu = [| 0.5; 0.5 |] in
  let rng = Prob.Rng.of_int_seed 3 in
  let round = Prob.Rng.split rng in
  let dec = Prob.Rng.copy round in
  let w = Coding.Bitbuf.Writer.create () in
  let res = PS.transmit ~rng:round ~eta ~nu ~max_blocks:0 w in
  Alcotest.(check bool) "aborted" true res.PS.aborted;
  let decoded =
    PS.decode ~rng:dec ~nu ~u:2 ~max_blocks:0 (Coding.Bitbuf.Reader.of_writer w)
  in
  Alcotest.(check int) "fallback agrees" res.PS.sent decoded

let t_domination_violation () =
  let eta = [| 1.; 0. |] and nu = [| 0.; 1. |] in
  let rng = Prob.Rng.of_int_seed 4 in
  let w = Coding.Bitbuf.Writer.create () in
  Alcotest.check_raises "eta not dominated"
    (Invalid_argument "Point_sampler.transmit: eta not dominated by nu")
    (fun () -> ignore (PS.transmit ~rng ~eta ~nu w))

let t_negative_log_ratio () =
  (* eta below nu at the sampled point: s <= 0, the scaled prior shrinks
     and P' gets small — the footnote-4 branch *)
  let eta = [| 0.2; 0.8 |] and nu = [| 0.9; 0.1 |] in
  let saw_negative = ref false in
  for seed = 0 to 199 do
    let res, decoded, _ = transmit_and_decode ~seed ~eta ~nu ~eps:0.01 in
    Alcotest.(check int) "agrees" res.PS.sent decoded;
    if res.PS.log_ratio < 0 then saw_negative := true
  done;
  Alcotest.(check bool) "negative s exercised" true !saw_negative

let t_skewed_nu () =
  (* non-uniform prior: cost still tracks the divergence *)
  let eta = [| 0.9; 0.05; 0.03; 0.02 |] in
  let nu = [| 0.02; 0.03; 0.05; 0.9 |] in
  let total = ref 0 in
  let trials = 400 in
  for seed = 0 to trials - 1 do
    let res, decoded, _ = transmit_and_decode ~seed ~eta ~nu ~eps:0.01 in
    Alcotest.(check int) "agrees" res.PS.sent decoded;
    total := !total + res.PS.bits
  done;
  let d =
    Infotheory.Measures.Float.kl
      (Prob.Dist.of_weighted (Array.to_list (Array.mapi (fun i p -> (i, p)) eta)))
      (Prob.Dist.of_weighted (Array.to_list (Array.mapi (fun i p -> (i, p)) nu)))
  in
  let mean = float_of_int !total /. float_of_int trials in
  check_ge ~msg:"cost >= D - slack" mean (d -. 2.);
  check_le ~msg:"cost bounded" mean (d +. 14.)

let t_amortized_with_chance_nodes () =
  (* a protocol containing public coins must flow through the
     compressor's settle_chance path *)
  let k = 3 in
  let tree =
    Proto.Combinators.xor_output_with_coin (Protocols.And_protocols.sequential k)
  in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let run, _ = Am.compress_random ~seed:13 ~tree ~mu ~copies:4 () in
  Alcotest.(check bool) "agreed" true run.Am.agreed;
  Alcotest.(check bool) "ran" true (run.Am.total_bits > 0)

let t_oneshot_exact_matches_sampled () =
  let k = 4 in
  let tree = Protocols.And_protocols.sequential k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let exact =
    Compress.Oneshot.expected_bits_exact ~single_stream:true ~tree ~mu
  in
  let sampled, ok =
    Compress.Oneshot.expected_bits Compress.Oneshot.omniscient ~seed:4 ~tree
      ~mu ~samples:800
  in
  Alcotest.(check bool) "decoded" true ok;
  check_close ~msg:(Printf.sprintf "exact %.3f vs sampled %.3f" exact sampled)
    ~eps:0.5 exact sampled

(* --- observer --- *)

let t_observer_prior_is_mixture () =
  let k = 3 in
  let tree = Protocols.And_protocols.sequential k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let o = Obs.create tree mu in
  match Obs.speak_view o with
  | None -> Alcotest.fail "at a speak node"
  | Some (speaker, arity, nu) ->
      Alcotest.(check int) "speaker 0" 0 speaker;
      Alcotest.(check int) "binary" 2 arity;
      (* prior of message 0 = Pr[X_0 = 0] under mu *)
      let p0 = R.to_float (D.prob mu (fun x -> x.(0) = 0)) in
      check_close ~msg:"nu(0) = Pr[X_0=0]" ~eps:1e-12 p0 nu.(0)

let t_observer_posterior_update () =
  let k = 3 in
  let tree = Protocols.And_protocols.sequential k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let o = Obs.create tree mu in
  (* player 0 writes 1; now player 1 speaks, and the prior of its bit
     must be the conditional Pr[X_1 = 0 | X_0 = 1] *)
  let o = Obs.advance_msg o 1 in
  match Obs.speak_view o with
  | None -> Alcotest.fail "speak node"
  | Some (speaker, _, nu) ->
      Alcotest.(check int) "speaker 1" 1 speaker;
      let cond = D.condition_exn mu (fun x -> x.(0) = 1) in
      let expected = R.to_float (D.prob cond (fun x -> x.(1) = 0)) in
      check_close ~msg:"posterior prior" ~eps:1e-12 expected nu.(0)

let t_observer_finish () =
  let tree = Protocols.And_protocols.sequential 2 in
  let mu = Protocols.Hard_dist.mu_and ~k:2 in
  let o = Obs.create tree mu in
  let o = Obs.advance_msg o 0 in
  Alcotest.(check bool) "finished" true (Obs.finished o);
  Alcotest.(check int) "output 0" 0 (Obs.output_exn o)

let t_observer_eta_deterministic () =
  let tree = Protocols.And_protocols.sequential 2 in
  let mu = Protocols.Hard_dist.mu_and ~k:2 in
  let o = Obs.create tree mu in
  let eta = Obs.speaker_eta o 0 in
  Alcotest.(check (array (float 1e-12))) "point mass on 0" [| 1.; 0. |] eta

(* --- amortized --- *)

let t_amortized_outputs_correct () =
  (* sequential AND is deterministic: compressed outputs must equal the
     true AND of each copy's input *)
  let k = 4 in
  let tree = Protocols.And_protocols.sequential k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let run, inputs = Am.compress_random ~seed:3 ~tree ~mu ~copies:8 () in
  Alcotest.(check bool) "decoders agreed" true run.Am.agreed;
  Array.iteri
    (fun c x ->
      Alcotest.(check int)
        (Printf.sprintf "copy %d output" c)
        (Protocols.Hard_dist.and_fn x)
        run.Am.outputs.(c))
    inputs

let t_amortized_per_copy_decreases () =
  let k = 4 in
  let tree = Protocols.And_protocols.sequential k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let cost copies =
    let run, _ = Am.compress_random ~seed:5 ~tree ~mu ~copies () in
    run.Am.per_copy_bits
  in
  let c1 = cost 1 and c8 = cost 8 in
  Alcotest.(check bool)
    (Printf.sprintf "per-copy decreases (%.2f -> %.2f)" c1 c8)
    true (c8 < c1)

let t_amortized_approaches_ic () =
  let k = 3 in
  let tree = Protocols.And_protocols.sequential k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let ic = Proto.Information.external_ic tree mu in
  (* average several seeds at 12 copies; must be within IC + overhead,
     where overhead <= rounds * ~12 bits / copies *)
  let total = ref 0. in
  let seeds = 5 in
  for s = 1 to seeds do
    let run, _ = Am.compress_random ~seed:s ~tree ~mu ~copies:12 () in
    total := !total +. run.Am.per_copy_bits
  done;
  let mean = !total /. float_of_int seeds in
  check_le ~msg:(Printf.sprintf "per-copy %.2f near IC %.2f" mean ic) mean
    (ic +. 4.)

let t_amortized_randomized_protocol () =
  (* the compressor must also handle genuinely randomized messages *)
  let k = 3 in
  let tree =
    Protocols.And_protocols.noisy_sequential ~k ~noise:(R.of_ints 1 10)
  in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let run, _ = Am.compress_random ~seed:7 ~tree ~mu ~copies:6 () in
  Alcotest.(check bool) "agreed" true run.Am.agreed;
  Alcotest.(check bool) "bits positive" true (run.Am.total_bits > 0)

let t_amortized_deterministic_repro () =
  let k = 3 in
  let tree = Protocols.And_protocols.sequential k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let r1, i1 = Am.compress_random ~seed:11 ~tree ~mu ~copies:4 () in
  let r2, i2 = Am.compress_random ~seed:11 ~tree ~mu ~copies:4 () in
  Alcotest.(check int) "same bits" r1.Am.total_bits r2.Am.total_bits;
  Alcotest.(check bool) "same inputs" true (i1 = i2)

let t_mixed_radix () =
  (* the first digit is the most significant *)
  let arities = [| 2; 3; 2 |] in
  for code = 0 to 11 do
    Alcotest.(check (array int)) "digits"
      [| code / 6; code / 2 mod 3; code mod 2 |]
      (Am.mixed_radix_decode arities code)
  done

let suite =
  [
    slow "sampler agreement (500 seeds)" t_agreement;
    slow "sampler output is eta-distributed" t_sample_distribution;
    quick "point-mass transmission is cheap" t_point_mass_cheap;
    slow "cost tracks divergence" t_cost_tracks_divergence;
    quick "abort fallback agrees" t_abort_path;
    slow "negative log-ratio branch" t_negative_log_ratio;
    slow "skewed prior" t_skewed_nu;
    quick "amortized through chance nodes" t_amortized_with_chance_nodes;
    slow "one-shot: exact expectation matches sampling" t_oneshot_exact_matches_sampled;
    quick "domination violation detected" t_domination_violation;
    quick "observer prior is the mixture" t_observer_prior_is_mixture;
    quick "observer posterior update" t_observer_posterior_update;
    quick "observer finish/output" t_observer_finish;
    quick "observer eta (deterministic)" t_observer_eta_deterministic;
    quick "amortized outputs correct" t_amortized_outputs_correct;
    slow "amortized per-copy decreases" t_amortized_per_copy_decreases;
    slow "amortized approaches IC" t_amortized_approaches_ic;
    quick "amortized with randomized protocol" t_amortized_randomized_protocol;
    quick "amortized reproducible" t_amortized_deterministic_repro;
    quick "mixed radix codec" t_mixed_radix;
  ]
