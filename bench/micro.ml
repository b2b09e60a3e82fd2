(** Bechamel micro-benchmarks of the library's hot kernels. These are
    engineering benchmarks (throughput of the building blocks), separate
    from the paper-reproduction experiment tables E1-E9. *)

open Bechamel
open Toolkit

(* ~2048-bit operands: far above the native-int Euclid fast path and
   the Karatsuba threshold, so these exercise the bigint slow paths. *)
let big_a = Exact.Bigint.of_string (String.make 620 '7')
let big_b = Exact.Bigint.of_string (String.make 619 '3')

let tests () =
  let rng = Prob.Rng.of_int_seed 31337 in
  let inst_small =
    Protocols.Disj_common.random_disjoint_single_zero rng ~n:1024 ~k:16
  in
  let inst_large =
    Protocols.Disj_common.random_disjoint_single_zero rng ~n:16384 ~k:64
  in
  let subset =
    List.init 64 (fun i -> i * 7) (* 64-subset of [0, 448) *)
  in
  let eta = Array.init 64 (fun i -> if i = 0 then 0.6 else 0.4 /. 63.) in
  let nu = Array.make 64 (1. /. 64.) in
  let and_tree6 = Protocols.And_protocols.sequential 6 in
  let mu6 = Protocols.Hard_dist.mu_and ~k:6 in
  (* Small-word rationals: stays on the native-int representation. *)
  let r13 = Exact.Rational.of_ints 1 3 in
  let r57 = Exact.Rational.of_ints 5 7 in
  (* DAG-shaped tree: two_copy_sequential shares subtrees heavily, so
     transcript_dist hits the per-node memo table. *)
  let two_copy = Protocols.And_protocols.two_copy_sequential 3 in
  let two_copy_input = Array.make 3 [| 1; 1 |] in
  (* Packed bit-plane kernels (PR 5): the wire representation of every
     posted message. The boxed-read kernel is the old per-bit boxed
     traversal, kept as the baseline the packed reader is compared
     against. *)
  let vec_4096 =
    let w = Coding.Bitbuf.Writer.create () in
    for i = 0 to 127 do
      Coding.Bitbuf.Writer.add_bits w (i * 0x9e3779b1 land 0x3fffffff) 32
    done;
    Coding.Bitbuf.Writer.freeze w
  in
  (* Flat-VM kernels (PR 9): tree -> bytecode compilation, the scalar
     evaluator, and the 62-lane bit-sliced sweep over the full input
     cube — the three stages of the compiled sweep pipeline. *)
  let and6_compiled =
    Proto.Compile.compile ~players:6 ~domain:[| 0; 1 |] and_tree6
  in
  let and6_profiles =
    Array.init 64 (fun i -> Array.init 6 (fun j -> (i lsr j) land 1))
  in
  (* Orbit-collapse kernel (PR 10): exact IC of sequential AND_12 via
     the symmetry-reduced engine — 12 Hamming-weight classes instead of
     a 4096-input sweep, fresh canonical-state table per run. *)
  let and_tree12 = Protocols.And_protocols.sequential 12 in
  let mu12_orbit = Protocols.Hard_dist.mu_and_orbit ~k:12 in
  [
    Test.make ~name:"exact-ic-orbit-and12"
      (Staged.stage (fun () ->
           ignore (Proto.Information.external_ic_orbit and_tree12 mu12_orbit)));
    Test.make ~name:"bitvec-append-4096"
      (Staged.stage (fun () -> ignore (Coding.Bitvec.append vec_4096 vec_4096)));
    Test.make ~name:"writer-fill-freeze-4096"
      (Staged.stage (fun () ->
           let w = Coding.Bitbuf.Writer.create () in
           for i = 0 to 127 do
             Coding.Bitbuf.Writer.add_bits w (i land 0xffff) 32
           done;
           ignore (Coding.Bitbuf.Writer.freeze w)));
    Test.make ~name:"bitvec-read-packed-4096"
      (Staged.stage (fun () ->
           let r = Coding.Bitbuf.Reader.of_vec vec_4096 in
           let acc = ref 0 in
           for _ = 0 to 127 do
             acc := !acc lxor Coding.Bitbuf.Reader.read_bits r 32
           done;
           ignore !acc));
    Test.make ~name:"bitvec-read-boxed-4096"
      (Staged.stage (fun () ->
           (* pre-packing baseline: box every bit, walk the list *)
           let acc = ref 0 in
           List.iter
             (fun b -> if b then incr acc)
             (Coding.Bitvec.For_testing.to_bool_list vec_4096);
           ignore !acc));
    Test.make ~name:"bigint-mul-256bit"
      (Staged.stage
         (let a = Exact.Bigint.of_string (String.make 70 '7') in
          let b = Exact.Bigint.of_string (String.make 70 '3') in
          fun () -> ignore (Exact.Bigint.mul a b)));
    Test.make ~name:"binomial-1024-512"
      (Staged.stage (fun () -> ignore (Exact.Bigint.binomial 1024 512)));
    Test.make ~name:"subset-rank-64-of-448"
      (Staged.stage (fun () -> ignore (Coding.Subset_codec.rank ~z:448 subset)));
    Test.make ~name:"disj-batched-n1024-k16"
      (Staged.stage (fun () -> ignore (Protocols.Disj_batched.solve inst_small)));
    Test.make ~name:"disj-batched-n16384-k64"
      (Staged.stage (fun () -> ignore (Protocols.Disj_batched.solve inst_large)));
    Test.make ~name:"disj-naive-n1024-k16"
      (Staged.stage (fun () -> ignore (Protocols.Disj_naive.solve inst_small)));
    Test.make ~name:"point-sampler-u64"
      (Staged.stage
         (let counter = ref 0 in
          fun () ->
            incr counter;
            let r = Prob.Rng.of_int_seed !counter in
            let w = Coding.Bitbuf.Writer.create () in
            ignore (Compress.Point_sampler.transmit ~rng:r ~eta ~nu w)));
    Test.make ~name:"exact-ic-and6"
      (Staged.stage (fun () ->
           ignore (Proto.Information.external_ic and_tree6 mu6)));
    Test.make ~name:"bigint-gcd-2048bit"
      (Staged.stage (fun () -> ignore (Exact.Bigint.gcd big_a big_b)));
    Test.make ~name:"bigint-mul-2048bit"
      (Staged.stage (fun () -> ignore (Exact.Bigint.mul big_a big_b)));
    Test.make ~name:"rational-add-small"
      (Staged.stage (fun () -> ignore (Exact.Rational.add r13 r57)));
    Test.make ~name:"rational-mul-small"
      (Staged.stage (fun () -> ignore (Exact.Rational.mul r13 r57)));
    Test.make ~name:"transcript-dist-two-copy"
      (Staged.stage (fun () ->
           ignore (Proto.Semantics.transcript_dist two_copy two_copy_input)));
    Test.make ~name:"compile-tree-and6"
      (Staged.stage (fun () ->
           ignore (Proto.Compile.compile ~players:6 ~domain:[| 0; 1 |] and_tree6)));
    Test.make ~name:"compile-tree-exec-and6"
      (Staged.stage
         (let rng = Prob.Rng.of_int_seed 5 in
          let sample s = Prob.Sampler.draw s rng in
          fun () ->
            ignore
              (Proto.Compile.exec and6_compiled ~sample
                 ~input_indices:[| 1; 1; 1; 1; 1; 1 |])));
    Test.make ~name:"compile-tree-batch-sweep-and6-64"
      (Staged.stage (fun () ->
           ignore
             (Proto.Compile.exec_sweep and6_compiled
                ~input_indices:and6_profiles)));
  ]

(* Spot check of the Obs overhead policy (DESIGN.md section 8): with the
   null sink installed and no metrics registry, an instrumentation site
   is one load and a predictable branch — it must not allocate. We
   measure minor-heap words across a hot loop of guarded emits and
   disabled bumps; the harness may have a metrics registry installed for
   the whole run, so it is stashed for the duration of the check. *)
let null_sink_alloc_check () =
  let saved = Obs.Metrics.installed () in
  Obs.Metrics.uninstall ();
  assert (Obs.Sink.is_null (Obs.Trace.sink ()));
  let iters = 200_000 in
  let words_per_iter f =
    let before = Gc.minor_words () in
    for i = 0 to iters - 1 do
      f i
    done;
    (Gc.minor_words () -. before) /. float_of_int iters
  in
  let guarded_emit =
    words_per_iter (fun _ ->
        if Obs.Trace.enabled () then
          Obs.Trace.emit (Obs.Event.Mark { name = "hot" }))
  in
  let disabled_bump = words_per_iter (fun i -> Obs.Metrics.bump "hot" i) in
  (* The netsim runtime emits one typed event per point-to-point
     message; its guard must keep the disabled path allocation-free too
     (the event payload record is only built when a sink is live). *)
  let guarded_netsim_emit =
    words_per_iter (fun i ->
        if Obs.Trace.enabled () then
          Obs.Trace.emit
            (Obs.Event.Rbc_echo { slot = i; src = 0; dst = 1; bits = 7 }))
  in
  (match saved with Some m -> Obs.Metrics.install m | None -> ());
  Exp_util.record_f "null_sink_words_per_emit" guarded_emit;
  Exp_util.record_f "disabled_metrics_words_per_bump" disabled_bump;
  Exp_util.record_f "null_sink_words_per_netsim_emit" guarded_netsim_emit;
  Exp_util.note "Obs disabled-path allocation (minor words per site over %dk iterations):"
    (iters / 1000);
  Exp_util.note
    "  guarded Trace.emit: %.5f   disabled Metrics.bump: %.5f   (expected: ~0)"
    guarded_emit disabled_bump;
  Exp_util.note "  guarded netsim Rbc_echo emit: %.5f   (expected: ~0)"
    guarded_netsim_emit

(* Mean wall time of [f] over [reps] back-to-back calls, for the
   regression guards below. *)
let per_iter reps f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

(* Regression guard for the word-aligned Bitvec fast path (PR 9): the
   56-bit [word_at] scan must beat the bit-at-a-time loop it replaced
   in the disjointness solvers. Measured directly (not via bechamel)
   so the ratio lands in BENCH.json as a single gateable metric. *)
let bitvec_word_regression () =
  let bits = 1 lsl 16 in
  let v =
    let w = Coding.Bitbuf.Writer.create () in
    for i = 0 to (bits / 32) - 1 do
      Coding.Bitbuf.Writer.add_bits w (i * 0x9e3779b1 land 0x3fffffff) 32
    done;
    Coding.Bitbuf.Writer.freeze w
  in
  let words = Coding.Bitvec.word_count v in
  let sink = ref 0 in
  let word_t =
    per_iter 2000 (fun () ->
        for w = 0 to words - 1 do
          sink := !sink lxor Coding.Bitvec.word_at v w
        done)
  in
  let bit_t =
    per_iter 50 (fun () ->
        let acc = ref 0 in
        for i = 0 to bits - 1 do
          if Coding.Bitvec.get v i then incr acc
        done;
        sink := !sink lxor !acc)
  in
  let speedup = bit_t /. word_t in
  assert (speedup > 1.0);
  Exp_util.record_f "bitvec_word_speedup" speedup;
  Exp_util.note
    "bitvec word_at scan vs bit loop over %d bits: %.0fx faster (%.2f vs %.2f us/scan)"
    bits speedup (word_t *. 1e6) (bit_t *. 1e6)

(* Regression guard for the orbit-collapsed IC engine (PR 10): at
   k = 10 the symmetry-reduced evaluation must beat the direct 2^k
   enumeration it replaces for the large-k E1 sweep. Both paths
   produce the same exact rationals (held equal by test_symmetry and
   the E1 width-0 gate); this guards the speed claim itself. *)
let orbit_ic_regression () =
  let k = 10 in
  let tree = Protocols.And_protocols.sequential k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let mu_orbit = Protocols.Hard_dist.mu_and_orbit ~k in
  let sink = ref 0.0 in
  let direct_t =
    per_iter 3 (fun () -> sink := Proto.Information.external_ic tree mu)
  in
  let orbit_t =
    per_iter 20 (fun () ->
        sink := Proto.Information.external_ic_orbit tree mu_orbit)
  in
  let speedup = direct_t /. orbit_t in
  assert (speedup > 1.0);
  Exp_util.record_f "orbit_ic_speedup" speedup;
  Exp_util.note
    "orbit-collapsed vs direct external_ic at k=%d: %.0fx faster (%.2f vs %.2f ms/run)"
    k speedup (orbit_t *. 1e3) (direct_t *. 1e3);
  ignore !sink

(* Sharing guard for the orbit state table: cached states after IC and
   CIC of sequential AND_20 under mu on one memo. The k conditional
   slices are relabelings of one product law, so a table keyed on the
   law's content shares their subtrees: 329 states, against 861 when
   each slice was keyed on its physical identity. A deterministic
   count. *)
let orbit_cic_states () =
  let k = 20 in
  let tree = Protocols.And_protocols.sequential k in
  let memo = Proto.Orbit.memo () in
  ignore
    (Proto.Information.external_ic_orbit ~memo tree
       (Protocols.Hard_dist.mu_and_orbit ~k));
  ignore
    (Proto.Information.conditional_ic_orbit ~memo tree
       (Protocols.Hard_dist.mu_and_aux_slices ~k));
  let states = Proto.Orbit.memo_size memo in
  assert (states < 430);
  Exp_util.record_i "orbit_cic_states" states;
  Exp_util.note "orbit IC + CIC of sequential AND_%d on one memo: %d states" k
    states

(* Allocation guard for the Section-4.1 slices: minor words per slice
   of [Hard_dist.mu_and_aux_slices ~k:20]. Slice 0 enumerates its
   classes and the other 19 relabel them, ~1,670 words per slice; an
   [iid_blocks] enumeration per slice read 42,020. A deterministic
   count. *)
let aux_slices_words () =
  let k = 20 in
  let before = Gc.minor_words () in
  let slices = Sys.opaque_identity (Protocols.Hard_dist.mu_and_aux_slices ~k) in
  let words =
    (Gc.minor_words () -. before) /. float_of_int (List.length slices)
  in
  assert (words < 21000.0);
  Exp_util.record_f "aux_slices_words_per_slice" words;
  Exp_util.note "mu_and_aux_slices ~k:%d: %.0f minor words per slice" k words

(* Allocation guard for the direct engine's joint table: minor words
   per atom of [mu_and_with_aux ~k:9] (2,304 atoms) for one warm-memo
   [conditional_ic] of sequential AND_9. The table over this law is
   not kept in the memo, so each run builds it: ~67 with integer row
   masses and pre-sized columns (~73 with rational weights), a root hit in the shared memo
   returning before [transcript_dist] builds its per-call table (~94
   without that);
   conditioning the hashed joint once per value of Z, with three
   hash-deduping [D.map]s per slice, read 456. *)
let direct_cic_words () =
  let k = 9 in
  let tree = Protocols.And_protocols.sequential k in
  let mu_aux = Protocols.Hard_dist.mu_and_with_aux ~k in
  let memo = Proto.Semantics.memo () in
  ignore (Proto.Information.conditional_ic ~memo tree mu_aux);
  let atoms = float_of_int (Prob.Dist_exact.size mu_aux) in
  let before = Gc.minor_words () in
  ignore
    (Sys.opaque_identity (Proto.Information.conditional_ic ~memo tree mu_aux));
  let words = (Gc.minor_words () -. before) /. atoms in
  assert (words < 304.0);
  Exp_util.record_f "direct_cic_words_per_atom" words;
  Exp_util.note
    "direct CIC of sequential AND_%d, warm memo (%.0f atoms): %.1f minor \
     words per atom"
    k atoms words

(* Allocation guard for one whole direct request, as [broadcast_cli
   info] and the benchmark's direct operations make it: minor words of
   sequential AND_9's two Section-4.1 laws, its worst-case error and
   the four measures on a fresh memo (the tree is built beforehand).
   With the input law's joint table kept in the memo, integer row
   masses and the error summed per node, ~526k; 819k when each measure
   built its own table and the error built every input's transcript
   law. A deterministic count. *)
let direct_request_words () =
  let k = 9 in
  let tree = Protocols.And_protocols.sequential k in
  let before = Gc.minor_words () in
  let mu_aux = Protocols.Hard_dist.mu_and_with_aux ~k
  and mu = Protocols.Hard_dist.mu_and ~k in
  let err =
    Proto.Semantics.worst_case_error tree ~f:Protocols.Hard_dist.and_fn
      (Proto.Semantics.all_bit_inputs k)
  in
  let memo = Proto.Semantics.memo () in
  let ic = Proto.Information.external_ic ~memo tree mu in
  let cic = Proto.Information.conditional_ic ~memo tree mu_aux in
  let ht = Proto.Information.transcript_entropy ~memo tree mu in
  let rounds = Proto.Information.per_round_information ~memo tree mu in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity (err, ic, cic, ht, rounds));
  assert (words < 700_000.0);
  Exp_util.record_f "direct_request_words" words;
  Exp_util.note
    "direct request on sequential AND_%d (laws, error, four measures): \
     %.0f minor words"
    k words

(* Allocation guards for the Theorem-3 compressors, on sequential AND_4
   under its Section-4.1 law. (a) Minor words of literal
   [compress_parallel] runs at 16 copies, seeds 1-4, per point of their
   2^16-symbol first transmissions: a block in two flat columns and the
   product laws expanded in place leave about the boxed height each
   [Rng.float] returns, drawn by the speaker and again by the decoder;
   boxed (symbol, height) points and a digit array per product code
   read ~112. (b) Minor words per copy of one 1,024-copy factored run
   at seed 1: copies with equal transcripts share one observer state;
   a state per copy, with its exact-rational prior mixed twice a round,
   read ~2,400. *)
let compress_words () =
  let k = 4 in
  let tree = Protocols.And_protocols.sequential k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let seeds = [ 1; 2; 3; 4 ] in
  let runs =
    List.map
      (fun seed ->
        let inputs = Compress.Amortized.draw_inputs ~seed ~mu ~copies:16 in
        fun () -> Compress.Amortized.compress_parallel ~seed ~tree ~mu ~inputs ())
      seeds
  in
  let literal =
    List.fold_left (fun acc run -> acc +. words run) 0. runs
    /. float_of_int (List.length seeds * (1 lsl 16))
  in
  let copies = 1024 in
  let inputs = Compress.Amortized.draw_inputs ~seed:1 ~mu ~copies in
  let factored =
    words (fun () ->
        Compress.Amortized.compress_parallel_factored ~seed:1 ~tree ~mu ~inputs
          ())
    /. float_of_int copies
  in
  assert (literal < 40.0 && factored < 800.0);
  Exp_util.record_f "literal_words_per_point" literal;
  Exp_util.record_f "factored_words_per_copy" factored;
  Exp_util.note
    "compress_parallel, sequential AND_%d, 16 copies, seeds 1-4: %.1f minor \
     words per point of 4 x 2^16"
    k literal;
  Exp_util.note
    "compress_parallel_factored, sequential AND_%d, %d copies, seed 1: %.0f \
     minor words per copy"
    k copies factored

(* Regression guard for exact division by the gcd in
   [Rational.canonical]: on a 6-limb multiple of a 3-limb divisor, the
   Jebelean kernel behind [Bigint.div_exact] must beat the
   one-bit-per-pass long division of [Bigint.div] it replaced there.
   Both give the same quotient (held equal by test_bigint). *)
let exact_div_regression () =
  let limbs salt n =
    let rec go i acc =
      if i = n then acc
      else
        go (i + 1)
          (Exact.Bigint.add (Exact.Bigint.shift_left acc 30)
             (Exact.Bigint.of_int ((salt + (i * 0x9e3779b1)) land 0x3fffffff)))
    in
    go 1 (Exact.Bigint.of_int ((1 lsl 29) lor salt))
  in
  let d = limbs 977 3 in
  let a = Exact.Bigint.mul d (limbs 31 3) in
  assert (Exact.Bigint.equal (Exact.Bigint.div a d) (Exact.Bigint.div_exact a d));
  let sink = ref Exact.Bigint.zero in
  let div_t = per_iter 2_000 (fun () -> sink := Exact.Bigint.div a d) in
  let exact_t = per_iter 200_000 (fun () -> sink := Exact.Bigint.div_exact a d) in
  let speedup = div_t /. exact_t in
  assert (speedup > 1.0);
  Exp_util.record_f "exact_div_speedup" speedup;
  Exp_util.note
    "div_exact vs div, 6-limb multiple of a 3-limb divisor: %.0fx faster (%.0f vs %.0f ns/div)"
    speedup (exact_t *. 1e9) (div_t *. 1e9);
  ignore !sink

(* Allocation guard for the Stein gcd: minor words of one warm
   [Bigint.gcd] of the ~2,048-bit pair above (69 limbs each). The loop
   compares, subtracts and shifts in place on two accumulators, so a
   call allocates their buffers and its result (~160 words); a compare
   that built a closure over both operands on every step read 14,895.
   A deterministic count. *)
let bigint_gcd_alloc_regression () =
  ignore (Exact.Bigint.gcd big_a big_b);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Exact.Bigint.gcd big_a big_b));
  let words = Gc.minor_words () -. before in
  assert (words < 1_000.0);
  Exp_util.record_f "bigint_gcd_words" words;
  Exp_util.note "Bigint.gcd, ~2048-bit pair, warm call: %.0f minor words" words

(* Regression guard for node-id keyed compilation: [Proto.Compile]
   keys its per-node table on [Tree.id], so its cost per node must not
   grow with the tree. disj/bcast at n = 2 has 1,365 nodes at k = 5 and
   21,845 at k = 7; a bounded-depth structural hash of the node (the
   key before ids) put the k = 7 nodes into 10 buckets and read ~8.7.
   The guard is the per-node time at k = 7 over that at k = 5. *)
let compile_scaling_regression () =
  let domain = Array.of_list (Proto.Semantics.all_bit_inputs 2) in
  let per_node k reps =
    let tree = Protocols.Disj_trees.broadcast_all ~n:2 ~k in
    let nodes = ref 0 in
    let t =
      per_iter reps (fun () ->
          nodes :=
            Proto.Compile.node_count
              (Proto.Compile.compile ~players:k ~domain tree))
    in
    (t /. float_of_int !nodes, !nodes)
  in
  let small_t, small_n = per_node 5 64 in
  let big_t, big_n = per_node 7 4 in
  let scaling = big_t /. small_t in
  assert (scaling < 3.0);
  Exp_util.record_f "compile_scaling" scaling;
  Exp_util.note
    "compile per node, disj/bcast n=2 k=7 (%d nodes) over k=5 (%d nodes): \
     %.2f (%.0f vs %.0f ns/node)"
    big_n small_n scaling (big_t *. 1e9) (small_t *. 1e9)

(* Allocation guard for the netsim queue: minor words per message
   delivered through [Netsim.Sim] alone, after one warm-up wave. The
   traffic is RBC-shaped: 10 slots at k = 10 and jitter 0, where a
   player's first receipt of a phase of a slot fans the next phase out
   to its k - 1 peers (1,800 messages). A warm radix heap over recycled
   int columns allocates the 5-word envelope it hands to [deliver]; the
   binary heap of boxed records it replaced read 9.31. *)
let sim_alloc_regression () =
  let module Sim = Netsim.Sim in
  let k = 10 and slots = 10 in
  (* A message's handle is [3 * slot + phase]. *)
  let seen = Array.make (3 * slots * k) false in
  let wave () =
    Array.fill seen 0 (Array.length seen) false;
    let sim = Sim.create ~seed:1 () in
    let fan_out src h =
      for dst = 0 to k - 1 do
        if dst <> src then ignore (Sim.send sim ~src ~dst ~bits:8 h)
      done
    in
    for slot = 0 to slots - 1 do
      fan_out (slot mod k) (3 * slot)
    done;
    Sim.run sim ~deliver:(fun env ->
        let h = env.Sim.payload and p = env.Sim.dst in
        if not seen.((k * h) + p) then begin
          seen.((k * h) + p) <- true;
          if h mod 3 < 2 then fan_out p (h + 1)
        end);
    Sim.delivered sim
  in
  ignore (wave ());
  let before = Gc.minor_words () in
  let delivered = wave () in
  let words = (Gc.minor_words () -. before) /. float_of_int delivered in
  assert (words < 6.0);
  Exp_util.record_f "sim_words_per_msg" words;
  Exp_util.note
    "netsim queue, warm wave of %d messages: %.2f minor words per message"
    delivered words

(* Allocation guards for the async board, over one warm [Board_emu.run]
   of and/bcast at k = 12, f = 1, no fault (12 slots, 3,300 messages),
   with the hosted value built before the count. (a) Minor words per
   network message: a message that crosses no RBC threshold allocates
   only its [Sim] envelope, and the rest is the wave's encodes, decodes
   and action lists, ~11 words in all. String-keyed votes and a closure
   per delivery read 33.1, and an encode and a decode per fan-out ~14.
   (b) Bitbuf writers per board slot: the payload and one wire per
   distinct (phase, value), 4; one wire per fan-out read 26. Both are
   deterministic counts. *)
let emu_alloc_regression () =
  let module Reg = Protocols.Registry in
  let module Emu = Netsim.Board_emu in
  let module W = Coding.Bitbuf.Writer in
  let entry =
    Reg.entry ~name:"micro/and-bcast-k12" ~players:12 ~domain:[| 0; 1 |]
      (lazy (Protocols.And_protocols.broadcast_all 12))
  in
  let run seed =
    let h = Reg.hosted entry ~seed in
    let writers = (W.stats ()).W.writers in
    let before = Gc.minor_words () in
    let out =
      Emu.run ~k:h.Reg.k ~schedule:h.Reg.schedule ~players:h.Reg.players
        ~config:{ Emu.f = 1; seed; faults = Netsim.Fault.none }
        ()
    in
    let words = Gc.minor_words () -. before in
    let writers = (W.stats ()).W.writers - writers in
    match out with
    | Ok (Emu.Delivered { stats; writes; _ }) ->
        ( words /. float_of_int stats.Emu.net_messages,
          stats.Emu.net_messages,
          float_of_int writers /. float_of_int writes )
    | _ -> failwith "emu_alloc_regression: the fault-free run must deliver"
  in
  ignore (run 1);
  let words, messages, wires = run 2 in
  assert (words < 20.0 && wires < 8.0);
  Exp_util.record_f "emu_words_per_msg" words;
  Exp_util.record_f "emu_wires_per_slot" wires;
  Exp_util.note
    "async board, and/bcast k=12 f=1, warm run of %d messages: %.2f minor \
     words per message, %.1f Bitbuf writers per slot"
    messages words wires

(* Allocation guard for [Prob.Rng]: minor words per [Rng.int] draw over
   100,000 draws. The state is one [Bytes] and the rejection loop a
   top-level function, so a draw allocates nothing; four boxed [int64]
   fields read 27. *)
let rng_alloc_regression () =
  let rng = Prob.Rng.of_int_seed 1 in
  let draws = 100_000 and sink = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    sink := !sink + Prob.Rng.int rng 1_000
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int draws in
  assert (words < 1.0);
  Exp_util.record_f "rng_words_per_draw" words;
  Exp_util.note "Rng.int, %d draws: %.3f minor words per draw" draws words;
  ignore !sink

(* Allocation guard for the analyzers' law table: minor words per node
   of one [Depgraph.analyze] of and/bcast at k = 10 (11,264 walk and
   matched-descent steps). The run evaluates each (node, input) law
   once and replays its split from the table; re-evaluating both laws
   at every matched-descent step, with a fresh [prob_of] index on each,
   read ~189. *)
let depgraph_alloc_regression () =
  let tree = Protocols.And_protocols.broadcast_all 10 in
  let before = Gc.minor_words () in
  let dg = Analysis.Depgraph.analyze ~domain:[| 0; 1 |] tree in
  let nodes = dg.Analysis.Depgraph.nodes in
  let words = (Gc.minor_words () -. before) /. float_of_int nodes in
  assert (words < 95.0);
  Exp_util.record_f "depgraph_words_per_node" words;
  Exp_util.note
    "depgraph, and/bcast k=10 (%d nodes): %.1f minor words per node" nodes
    words

(* Allocation guard for the information certifier: minor words per leaf
   of one warm [Infoflow.analyze] of and/bcast at k = 12 (4,096 leaves).
   Each distinct weight row is summarized once, at the [Speak] node that
   first builds it, and a leaf adds k of those summaries: ~385.
   Recomputing each row's sum and KL bracket at every (leaf, player)
   pair read ~1,133; the gate sits at two thirds of that. A
   deterministic count. *)
let infoflow_alloc_regression () =
  let tree = Protocols.And_protocols.broadcast_all 12 in
  let analyze () = Analysis.Infoflow.analyze ~domain:[| 0; 1 |] tree in
  ignore (analyze ());
  let before = Gc.minor_words () in
  let a = Sys.opaque_identity (analyze ()) in
  let leaves = List.length a.Analysis.Infoflow.leaves in
  let words = (Gc.minor_words () -. before) /. float_of_int leaves in
  assert (a.Analysis.Infoflow.sound && words < 760.0);
  Exp_util.record_f "infoflow_words_per_leaf" words;
  Exp_util.note
    "infoflow, and/bcast k=12 (%d leaves), warm run: %.0f minor words per \
     leaf"
    leaves words

(* Allocation guard for the discrepancy sweep: minor words per product
   rectangle of one exact [Discrepancy.disc] on uniform AND_8 (3^8
   rectangles). One subset-sum pass per axis costs about one rational
   addition per rectangle; re-summing every rectangle's points read
   ~262. *)
let disc_alloc_regression () =
  let k = 8 in
  let f profile = Array.fold_left (fun a b -> a land b) 1 profile in
  let mu = Analysis.Infoflow.uniform_mu 2 in
  let rects = 3. ** float_of_int k in
  let before = Gc.minor_words () in
  let disc = Lowerbound.Discrepancy.disc ~players:k ~domain_size:2 ~mu ~f () in
  let words = (Gc.minor_words () -. before) /. rects in
  assert (disc <> None && words < 131.0);
  Exp_util.record_f "disc_words_per_rect" words;
  Exp_util.note
    "discrepancy sweep, uniform AND_%d (%.0f rectangles): %.1f minor words \
     per rectangle"
    k rects words

let run () =
  Exp_util.heading "MICRO" "bechamel micro-benchmarks (ns per run, OLS fit)";
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"kernels" (tests ()))
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name res ->
      match Analyze.OLS.estimates res with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | _ -> ())
    results;
  let rows = List.sort (fun (_, a) (_, b) -> compare a b) !rows in
  Exp_util.table
    ~header:[ "kernel"; "time/run" ]
    (List.map
       (fun (name, ns) ->
         let pretty =
           if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         Exp_util.[ S name; S pretty ])
       rows);
  (* Kernel timings also land in BENCH.json so perf PRs can quote
     before/after numbers from the same artifact CI archives. *)
  Exp_util.record_rows "kernels"
    (List.map
       (fun (name, ns) ->
         Obs.Jsonw.[ ("kernel", String name); ("ns_per_run", Float ns) ])
       rows);
  null_sink_alloc_check ();
  bitvec_word_regression ();
  orbit_ic_regression ();
  orbit_cic_states ();
  aux_slices_words ();
  direct_cic_words ();
  direct_request_words ();
  compress_words ();
  exact_div_regression ();
  bigint_gcd_alloc_regression ();
  compile_scaling_regression ();
  sim_alloc_regression ();
  emu_alloc_regression ();
  rng_alloc_regression ();
  depgraph_alloc_regression ();
  infoflow_alloc_regression ();
  disc_alloc_regression ()
