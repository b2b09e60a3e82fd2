let () =
  Alcotest.run "broadcast-information-complexity"
    [
      ("bigint", Test_bigint.suite);
      ("bigint-diff", Test_bigint_diff.suite);
      ("rational", Test_rational.suite);
      ("rng", Test_rng.suite);
      ("dist", Test_dist.suite);
      ("infotheory", Test_infotheory.suite);
      ("coding", Test_coding.suite);
      ("bitvec", Test_bitvec.suite);
      ("arith", Test_arith.suite);
      ("huffman", Test_huffman.suite);
      ("board", Test_board.suite);
      ("engine", Test_engine.suite);
      ("netsim", Test_netsim.suite);
      ("pinned", Test_pinned.suite);
      ("proto", Test_proto.suite);
      ("hard-dist", Test_hard_dist.suite);
      ("disjointness", Test_disj.suite);
      ("pointwise-or", Test_pointwise_or.suite);
      ("compress", Test_compress.suite);
      ("factored-sampler", Test_factored.suite);
      ("compress-diff", Test_compress_diff.suite);
      ("lowerbound", Test_lowerbound.suite);
      ("combinators", Test_combinators.suite);
      ("random-trees", Test_random_trees.suite);
      ("information", Test_information.suite);
      ("symmetry", Test_symmetry.suite);
      ("compile", Test_compile.suite);
      ("analysis", Test_analysis.suite);
      ("absint", Test_absint.suite);
      ("depgraph", Test_depgraph.suite);
      ("infoflow", Test_infoflow.suite);
      ("infoflow-diff", Test_infoflow_diff.suite);
      ("obs", Test_obs.suite);
      ("par", Test_par.suite);
    ]
