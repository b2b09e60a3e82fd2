(* info-exact: [broadcast_cli info]-style requests. Each operation
   builds a Hard_dist law, and computes the exact information
   quantities of an AND_k protocol with one memo shared within the
   operation.

   Direct engine ([Proto.Semantics] over all 2^k inputs): worst-case
   error, IC, CIC, H(T) and the per-round chain rule, on sequential,
   broadcast-all and noisy AND. Orbit engine ([Proto.Orbit]): IC and
   CIC of sequential AND at large k, of noisy AND, and of sequential
   AND under E1b-style [p_zero] laws.

   The three protocol families differ in how much work they share:
   sequential AND is a deep DAG with heavy memo reuse, noisy AND has
   randomized laws and big rationals, broadcast-all has 2^k leaves and
   no reuse. *)

module R = Exact.Rational
module HD = Protocols.Hard_dist
module AP = Protocols.And_protocols
module Sem = Proto.Semantics
module Info = Proto.Information

let law = Span.id "protocols.hard_dist.law"
let wce = Span.id "proto.semantics.worst_case_error"
let eic = Span.id "proto.information.external_ic"
let cic = Span.id "proto.information.conditional_ic"
let ent = Span.id "proto.information.transcript_entropy"
let pri = Span.id "proto.information.per_round_information"
let eic_orbit = Span.id "proto.information.external_ic_orbit"
let cic_orbit = Span.id "proto.information.conditional_ic_orbit"

let spans =
  List.map Span.name [ law; wce; eic; cic; ent; pri; eic_orbit; cic_orbit ]

type family = Seq | Bcast | Noisy of int * int  (* noise num/den *)

(* The noise rates and E1b zero probabilities an operation can draw.
   Each pair shares a denominator, which keeps the cost of a request
   nearly independent of the draw. *)
let noises = [| (1, 10); (3, 10) |]
let p_zeros = [| (1, 3); (2, 3) |]

(* One round: (class, family kind, k) slots; the seed draws the noise
   of noisy slots, the [p_zero] of E1b slots, and the order. Direct
   noisy AND stops at k = 6: at k = 7 one request already takes 0.5 s,
   and at k = 10 it takes 24 s.

   The slots are laid out so that the percentile ranks fall inside a
   group of equal-cost requests: of the 20 slots, ranks 9-12 (the
   median) are four direct sequential AND_9 requests, ranks 18-19
   (p90) two orbit sequential AND_20 requests, and rank 20 is orbit
   noisy AND_12. *)
type slot = Direct of [ `Seq | `Bcast | `Noisy ] * int
          | Orbit of [ `Seq | `Noisy | `Pzero ] * int

let round_slots =
  [ Direct (`Seq, 6); Direct (`Seq, 7); Direct (`Seq, 8);
    Direct (`Seq, 9); Direct (`Seq, 9); Direct (`Seq, 9); Direct (`Seq, 9);
    Direct (`Bcast, 6); Direct (`Bcast, 7); Direct (`Bcast, 8);
    Direct (`Noisy, 6);
    Orbit (`Seq, 14); Orbit (`Seq, 20); Orbit (`Seq, 20);
    Orbit (`Noisy, 10); Orbit (`Noisy, 12);
    Orbit (`Pzero, 12); Orbit (`Pzero, 16); Orbit (`Pzero, 20);
    Orbit (`Pzero, 24) ]

let class_of = function
  | Direct (`Seq, _) -> "direct-seq"
  | Direct (`Bcast, _) -> "direct-bcast"
  | Direct (`Noisy, _) -> "direct-noisy"
  | Orbit (`Seq, _) -> "orbit-seq"
  | Orbit (`Noisy, _) -> "orbit-noisy"
  | Orbit (`Pzero, _) -> "orbit-pzero"

let direct_classes = [ "direct-seq"; "direct-bcast"; "direct-noisy" ]
let orbit_classes = [ "orbit-seq"; "orbit-noisy"; "orbit-pzero" ]

(* The test-size round: one slot per class, small k. *)
let smoke_slots =
  [ Direct (`Seq, 6); Direct (`Bcast, 6); Direct (`Noisy, 6);
    Orbit (`Seq, 12); Orbit (`Noisy, 6); Orbit (`Pzero, 12) ]

(* Set-up: every protocol tree a round can ask for, built once. *)
type state = {
  slots : slot list;
  trees : (family * int, int Proto.Tree.t) Hashtbl.t;
}

let tree st fam k = Hashtbl.find st.trees (fam, k)

let setup ~smoke ~tag:_ =
  let slots = if smoke then smoke_slots else round_slots in
  let trees = Hashtbl.create 64 in
  let add fam k t = Hashtbl.replace trees (fam, k) t in
  List.iter
    (fun slot ->
      match slot with
      | Direct (`Seq, k) | Orbit ((`Seq | `Pzero), k) ->
          add Seq k (AP.sequential k)
      | Direct (`Bcast, k) -> add Bcast k (AP.broadcast_all k)
      | Direct (`Noisy, k) | Orbit (`Noisy, k) ->
          Array.iter
            (fun (a, b) ->
              add (Noisy (a, b)) k
                (AP.noisy_sequential ~k ~noise:(R.of_ints a b)))
            noises)
    slots;
  { slots; trees }

(* ------------------------------------------------------------------ *)
(* Independent closed forms, in floats.                                *)
(* ------------------------------------------------------------------ *)

let h p = if p <= 0. then 0. else -.p *. Float.log2 p

(* E1c first-zero transcript law of sequential AND under the Section
   4.1 law with zero probability [q] for the non-special players:
   P[T = j] = (1-q)^j (1 + (k-1-j) q) / k, and IC = H(T) because T is
   a function of X. Conditioned on Z = z, P[T = j | z] = q (1-q)^j for
   j < z and (1-q)^z for j = z. Valid for any q. *)
let seq_ic ~k q =
  let s = ref 0. in
  for j = 0 to k - 1 do
    s := !s +. h ((1. -. q) ** float j *. (1. +. (float (k - 1 - j) *. q))
                  /. float k)
  done;
  !s

let seq_cic ~k q =
  let s = ref 0. in
  for z = 0 to k - 1 do
    let hz = ref (h ((1. -. q) ** float z)) in
    for j = 0 to z - 1 do
      hz := !hz +. h (q *. ((1. -. q) ** float j))
    done;
    s := !s +. (!hz /. float k)
  done;
  !s

(* Broadcast-all reveals X: IC = H(X), from the atoms of the law (an
   input with c >= 1 zeros has mass (c/k) q^(c-1) (1-q)^(k-c), and
   there are C(k, c) of them); CIC = H(X | Z) = (k-1) h2(q). *)
let binom n r =
  let acc = ref 1. in
  for i = 1 to r do
    acc := !acc *. float (n - r + i) /. float i
  done;
  !acc

let bcast_ic ~k q =
  let s = ref 0. in
  for c = 1 to k do
    let p = float c /. float k *. (q ** float (c - 1))
            *. ((1. -. q) ** float (k - c)) in
    s := !s +. (binom k c *. h p)
  done;
  !s

let bcast_cic ~k q = float (k - 1) *. (h q +. h (1. -. q))

(* ------------------------------------------------------------------ *)
(* Operations.                                                         *)
(* ------------------------------------------------------------------ *)

let direct st fam k =
  let tree = tree st fam k in
  fun () ->
    let mu_aux = Span.wrap law (fun () -> HD.mu_and_with_aux ~k) in
    let mu = Span.wrap law (fun () -> HD.mu_and ~k) in
    let err =
      Span.wrap wce (fun () ->
          Sem.worst_case_error tree ~f:HD.and_fn (Sem.all_bit_inputs k))
    in
    let memo = Sem.memo () in
    let ic = Span.wrap eic (fun () -> Info.external_ic ~memo tree mu) in
    let cic = Span.wrap cic (fun () -> Info.conditional_ic ~memo tree mu_aux) in
    let ht = Span.wrap ent (fun () -> Info.transcript_entropy ~memo tree mu) in
    let rounds =
      Span.wrap pri (fun () -> Info.per_round_information ~memo tree mu)
    in
    fun () ->
      let q = 1. /. float k in
      (match fam with
      | Seq ->
          Oracle.close "IC vs closed form" ~got:ic ~want:(seq_ic ~k q);
          Oracle.close "CIC vs closed form" ~got:cic ~want:(seq_cic ~k q)
      | Bcast ->
          Oracle.close "IC vs H(X)" ~got:ic ~want:(bcast_ic ~k q);
          Oracle.close "CIC vs H(X|Z)" ~got:cic ~want:(bcast_cic ~k q)
      | Noisy _ ->
          (* The orbit engine on the same law and tree. *)
          let sym = HD.mu_and_orbit ~k and slices = HD.mu_and_aux_slices ~k in
          Oracle.close "IC direct vs orbit" ~got:ic
            ~want:(Info.external_ic_orbit tree sym);
          Oracle.close "CIC direct vs orbit" ~got:cic
            ~want:(Info.conditional_ic_orbit tree slices));
      Oracle.close "per-round chain rule"
        ~got:(Array.fold_left ( +. ) 0. rounds) ~want:ic;
      Oracle.le "IC <= H(T)" ic ht;
      Oracle.le "H(T) <= CC" ht
        (float (Proto.Tree.communication_cost tree));
      (match fam with
      | Seq | Bcast ->
          Oracle.int_eq "deterministic worst-case error" ~got:(R.sign err)
            ~want:0
      | Noisy (a, b) ->
          (* Worst on all-ones inputs: some player lies. *)
          let eps = float a /. float b in
          Oracle.close "noisy worst-case error 1 - (1-eps)^k"
            ~got:(R.to_float err) ~want:(1. -. ((1. -. eps) ** float k)));
      [ ("proto.semantics.memo_entries", float (Sem.memo_size memo)) ]

let orbit st fam k ~p_zero:(a, b) =
  let tree = tree st fam k in
  fun () ->
    let p_zero = R.of_ints a b in
    let sym = Span.wrap law (fun () -> HD.mu_and_orbit_p ~k ~p_zero) in
    let slices =
      Span.wrap law (fun () -> HD.mu_and_aux_slices_p ~k ~p_zero)
    in
    let memo = Proto.Orbit.memo () in
    let ic =
      Span.wrap eic_orbit (fun () -> Info.external_ic_orbit ~memo tree sym)
    in
    let cic =
      Span.wrap cic_orbit (fun () ->
          Info.conditional_ic_orbit ~memo tree slices)
    in
    fun () ->
      let q = float a /. float b in
      (match fam with
      | Seq ->
          Oracle.close "orbit IC vs closed form" ~got:ic ~want:(seq_ic ~k q);
          Oracle.close "orbit CIC vs closed form" ~got:cic
            ~want:(seq_cic ~k q)
      | Bcast | Noisy _ ->
          Oracle.close "orbit law mass" ~want:1.
            ~got:(R.to_float (Proto.Orbit.total_mass tree sym));
          let ht = Info.transcript_entropy_orbit tree sym in
          Oracle.le "0 <= CIC" 0. cic;
          Oracle.le "0 <= IC" 0. ic;
          Oracle.le "IC <= H(T)" ic ht;
          Oracle.le "H(T) <= CC" ht
            (float (Proto.Tree.communication_cost tree)));
      [ ("proto.orbit.memo_entries", float (Proto.Orbit.memo_size memo)) ]

let round st rng _r =
  Op.shuffled rng st.slots ~cls:class_of ~prepare:(fun slot ->
      match slot with
      | Direct (`Seq, k) -> direct st Seq k
      | Direct (`Bcast, k) -> direct st Bcast k
      | Direct (`Noisy, k) ->
          let a, b = Prob.Rng.choose rng noises in
          direct st (Noisy (a, b)) k
      | Orbit (`Seq, k) -> orbit st Seq k ~p_zero:(1, k)
      | Orbit (`Pzero, k) ->
          orbit st Seq k ~p_zero:(Prob.Rng.choose rng p_zeros)
      | Orbit (`Noisy, k) ->
          let a, b = Prob.Rng.choose rng noises in
          orbit st (Noisy (a, b)) k ~p_zero:(1, k))

let workload =
  Op.W
    {
      name = "info-exact";
      setup;
      round;
      setup_reps = 51;
      spans;
      counts =
        [ Op.count "proto.semantics.memo_entries" direct_classes
            (Reported "proto.semantics.memo_entries");
          Op.count "proto.orbit.memo_entries" orbit_classes
            (Reported "proto.orbit.memo_entries") ];
    }
