(** E6 — Theorem 3: amortized compression approaches the external
    information cost.

    We run [n] parallel copies of the sequential [AND_k] protocol through
    the Lemma-7 compressor (one joint transmission per round, product
    universe), and report the measured per-copy bits against the exact
    [IC_mu(Pi)]. The series must decrease toward IC as the number of
    copies grows — while a single copy costs {e more} than just running
    the protocol (the E5 gap in action: one-shot compression does not
    pay). *)

(* Mean per-copy bits over seeds 1..[seeds] at each copy count. *)
let series ?(factored = false) ~tree ~mu ~copies_list ~seeds () =
  List.map
    (fun copies ->
      let per =
        List.init seeds (fun s ->
            let seed = s + 1 in
            if factored then
              (fst
                 (Compress.Amortized.compress_random_factored ~seed ~tree ~mu
                    ~copies ()))
                .Compress.Amortized.per_copy_bits
            else begin
              let run, _ =
                Compress.Amortized.compress_random ~seed ~tree ~mu ~copies ()
              in
              assert run.Compress.Amortized.agreed;
              run.Compress.Amortized.per_copy_bits
            end)
      in
      (copies, Exp_util.mean per))
    copies_list

(* Each row is also recorded, at full precision, under [name]. *)
let record name ~ic rows =
  Exp_util.record_rows name
    (List.map
       (fun (copies, avg) ->
         Obs.Jsonw.
           [ ("copies", Int copies); ("per_copy_bits", Float avg);
             ("ic", Float ic); ("overhead", Float (avg -. ic)) ])
       rows)

let table name ~ic rows =
  record name ~ic rows;
  Exp_util.table
    ~header:[ "copies n"; "per-copy bits"; "IC"; "overhead"; "ratio" ]
    (List.map
       (fun (copies, avg) ->
         Exp_util.[ I copies; F2 avg; F2 ic; F2 (avg -. ic); F2 (avg /. ic) ])
       rows)

let run () =
  Exp_util.heading "E6"
    "Theorem 3: per-copy cost of compressed parallel copies tends to IC";
  let k = 4 in
  let tree = Protocols.And_protocols.sequential k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let ic = Proto.Information.external_ic tree mu in
  Exp_util.note "protocol: sequential AND_%d, CC = %d bits, exact IC = %.4f bits" k
    (Proto.Tree.communication_cost tree)
    ic;
  table "rows" ~ic
    (series ~tree ~mu ~copies_list:[ 1; 2; 4; 8; 12; 16 ] ~seeds:8 ());
  Exp_util.note
    "Expected: overhead ~ r * O(log(n IC) + log 1/eps) / n -> 0; note copies=1 costs";
  Exp_util.note
    "far more than CC — one-shot compression cannot work (E5), amortized does.";

  Exp_util.heading "E6b" "Theorem 3 with a randomized protocol (noisy AND_3)";
  let k = 3 in
  let tree =
    Protocols.And_protocols.noisy_sequential ~k ~noise:(Exact.Rational.of_ints 1 10)
  in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let ic = Proto.Information.external_ic tree mu in
  Exp_util.note "exact IC = %.4f bits (below the deterministic variant: noise hides input)" ic;
  table "noisy_rows" ~ic
    (series ~tree ~mu ~copies_list:[ 1; 2; 4; 8; 16 ] ~seeds:8 ());

  Exp_util.heading "E6c"
    "Theorem 3 at scale: the analytic (factored) simulator up to 512 copies";
  let k = 4 in
  let tree = Protocols.And_protocols.sequential k in
  let mu = Protocols.Hard_dist.mu_and ~k in
  let ic = Proto.Information.external_ic tree mu in
  (* cross-check the two simulators where both run *)
  let at_16 factored =
    snd (List.hd (series ~factored ~tree ~mu ~copies_list:[ 16 ] ~seeds:8 ()))
  in
  let literal_16 = at_16 false and factored_16 = at_16 true in
  Exp_util.record_f "literal_16" literal_16;
  Exp_util.record_f "factored_16" factored_16;
  Exp_util.note
    "cross-check at 16 copies: literal %.2f vs factored %.2f bits/copy"
    literal_16 factored_16;
  let rows =
    series ~factored:true ~tree ~mu
      ~copies_list:[ 16; 32; 64; 128; 256; 512 ]
      ~seeds:6 ()
  in
  record "factored_rows" ~ic rows;
  Exp_util.table
    ~header:[ "copies n"; "per-copy bits (analytic)"; "IC"; "overhead" ]
    (List.map
       (fun (copies, avg) -> Exp_util.[ I copies; F2 avg; F2 ic; F2 (avg -. ic) ])
       rows);
  Exp_util.note
    "Expected: the overhead column vanishes like r * O(log n)/n — the full";
  Exp_util.note "Theorem-3 limit, beyond the reach of the literal point process."
