(** Broadcast information complexity — public API facade.

    Reproduction of Braverman & Oshman, "On Information Complexity in
    the Broadcast Model" (PODC 2015). The sub-libraries are re-exported
    here under one roof; see each module's documentation for details.

    {2 Layering}

    - {!Exact}: arbitrary-precision integers and rationals (built from
      scratch) for exact probability computations.
    - {!Prob}: deterministic PRNG, finite distributions (float and
      exact-rational), fast samplers.
    - {!Infotheory}: entropy, KL divergence, (conditional) mutual
      information over finite distributions.
    - {!Coding}: bit buffers, self-delimiting integer codes, and the
      combinatorial subset codec used by the Section-5 protocol.
    - {!Proto}: exact protocol-tree semantics of the broadcast model —
      transcript laws, communication cost, error probabilities, external
      and conditional information cost, and the Lemma-3/4
      [q]-decomposition.
    - {!Blackboard}: the operational shared-blackboard runtime with real
      bit accounting.
    - {!Netsim}: the asynchronous faulty-broadcast runtime — a seeded
      discrete-event network simulator, Bracha '87 ECHO/READY reliable
      broadcast, and a board emulation that runs engine-hosted
      protocols unchanged on top, with crash/drop/delay/equivocation
      fault injection and exact wire-bit accounting.
    - {!Protocols}: concrete protocols — sequential/broadcast [AND_k],
      the Section-5 batched disjointness protocol and its baselines, the
      hard distributions of Sections 4 and 6.
    - {!Compress}: the Lemma-7 point-sampling compressor and the
      Theorem-3 amortized parallel compression.
    - {!Lowerbound}: the Section-4 lower-bound machinery as exact
      computations — good-transcript classification, Lemma-2 and
      eq.(3)-(7) checks, the Lemma-1 direct-sum embedding, the Lemma-6
      fooling argument.
    - {!Analysis}: proto-lint — static well-formedness analysis of
      protocol trees (distribution validity, schedule consistency, bit
      accounting, state-space budgets) with structured diagnostics;
      runs over the {!Protocols.Registry} in CI.
    - {!Obs}: observability — typed trace events with pluggable sinks
      (null / ring buffer / line-JSON), exact-int metrics with
      snapshot-and-merge, and the hand-rolled JSON writer behind
      [BENCH.json] and [broadcast_cli trace]. Dependency-free and
      zero-cost when disabled.
    - {!Par}: domain-pool [parallel_map] used by the verification and
      lint registry sweeps and the benchmark experiment loops; runs
      sequentially when only one domain is available.

    {2 Quickstart}

    {[
      let k = 6 in
      let tree = Core.Protocols.And_protocols.sequential k in
      let mu = Core.Protocols.Hard_dist.mu_and ~k in
      let ic = Core.Proto.Information.external_ic tree mu in
      Format.printf "IC of sequential AND_%d: %.4f bits@." k ic
    ]} *)

module Exact = Exact
module Prob = Prob
module Infotheory = Infotheory
module Coding = Coding
module Proto = Proto
module Blackboard = Blackboard
module Netsim = Netsim
module Protocols = Protocols
module Compress = Compress
module Lowerbound = Lowerbound
module Analysis = Analysis
module Obs = Obs
module Par = Par

let version = "1.0.0"
