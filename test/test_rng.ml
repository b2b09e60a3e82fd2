(** Tests for the deterministic PRNG. *)

module Rng = Prob.Rng
open Test_util

let t_deterministic () =
  let a = Rng.of_int_seed 1 and b = Rng.of_int_seed 1 in
  for i = 0 to 99 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d equal" i)
      (Rng.next_int64 a) (Rng.next_int64 b)
  done

let t_seeds_differ () =
  let a = Rng.of_int_seed 1 and b = Rng.of_int_seed 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.next_int64 a) (Rng.next_int64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let t_copy_independent () =
  let a = Rng.of_int_seed 5 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  let va = Rng.next_int64 a in
  let vb = Rng.next_int64 b in
  Alcotest.(check int64) "copy continues identically" va vb;
  (* advancing the copy does not affect the original *)
  ignore (Rng.next_int64 b);
  let c = Rng.copy a in
  Alcotest.(check int64) "original unaffected" (Rng.next_int64 a)
    (Rng.next_int64 c)

let t_split_independent () =
  let master1 = Rng.of_int_seed 9 and master2 = Rng.of_int_seed 9 in
  let c1 = Rng.split master1 and c2 = Rng.split master2 in
  Alcotest.(check int64) "splits deterministic" (Rng.next_int64 c1)
    (Rng.next_int64 c2);
  let c3 = Rng.split master1 in
  Alcotest.(check bool) "second split differs" true
    (not (Int64.equal (Rng.next_int64 c1) (Rng.next_int64 c3)))

let t_int_range () =
  let rng = Rng.of_int_seed 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let t_int_bad_bound () =
  let rng = Rng.of_int_seed 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let t_float_range () =
  let rng = Rng.of_int_seed 4 in
  for _ = 1 to 1000 do
    let v = Rng.float rng in
    if v < 0. || v >= 1. then Alcotest.failf "float out of range: %f" v
  done

let t_uniformity_chi2 () =
  (* Crude uniformity: 10 buckets, 100k draws; chi-square statistic with
     9 dof should be far below 100. *)
  let rng = Rng.of_int_seed 1234 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = float_of_int n /. 10. in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. buckets
  in
  check_le ~msg:"chi-square" chi2 60.

let t_shuffle_permutes () =
  let rng = Rng.of_int_seed 8 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let t_bernoulli_mean () =
  let rng = Rng.of_int_seed 21 in
  let n = 50_000 in
  let count = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr count
  done;
  let mean = float_of_int !count /. float_of_int n in
  check_close ~msg:"bernoulli mean" ~eps:0.02 0.3 mean

(* The stream itself, pinned: the first eight outputs of every drawing
   function from two seeds, recorded from the boxed-[int64] generator
   that preceded the current state layout. Any change to the seeding,
   the Xoshiro256** step, the rejection rule or the float/bernoulli
   conversions moves at least one of these. Bound [2^61 + 1] rejects
   about half its draws, so it pins the rejection loop too. *)
type pins = {
  mk : unit -> Rng.t;
  next : int64 list;
  bits : int list;
  floats : float list;
  int7 : int list;
  int2_40 : int list;
  int_half : int list;  (* bound 2^61 + 1 *)
  bern : bool list;  (* p = 0.3 *)
  ninth : int64;  (* the ninth [next_int64] output *)
  split_child : int64 list;
  copy_after3 : int64 list;  (* outputs 4..11 *)
}

let pins =
  [
    ( "of_int_seed 42",
      {
        mk = (fun () -> Rng.of_int_seed 42);
        next =
          [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L;
            0xecb8ad4703b360a1L; 0xfde6dc7fe2ec5e64L; 0xc50da53101795238L;
            0xb82154855a65ddb2L; 0xd99a2743ebe60087L ];
        bits =
          [ 0x55e02cb830bb1c5; 0x184136619b444e9f; 0x2b85d4cc8e792668;
            0x3b2e2b51c0ecd828; 0x3f79b71ff8bb1799; 0x3143694c405e548e;
            0x2e0855215699776c; 0x366689d0faf98021 ];
        floats =
          [ 0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2; 0x1.5c2ea66473c93p-1;
            0x1.d9715a8e0766cp-1; 0x1.fbcdb8ffc5d8bp-1; 0x1.8a1b4a6202f2ap-1;
            0x1.7042a90ab4cbbp-1; 0x1.b3344e87d7ccp-1 ];
        int7 = [ 0; 5; 1; 6; 1; 2; 0; 1 ];
        int2_40 =
          [ 874076942789; 419216772767; 878563632744; 351129098280;
            137316997017; 327497438350; 143186818924; 897563852833 ];
        int_half =
          [ 386749691100639685; 1747737923241135775; 1340514569795920473;
            1482249535520311760; 428241451981137462; 825596990374639498;
            2011600583562185327; 1448018208105111228 ];
        bern = [ true; false; false; false; false; false; false; false ];
        ninth = 0xc2e96e726e97647eL;
        split_child =
          [ 0x8ee445d14631c453L; 0x106fa1a13296fe62L; 0x729a768806244ce5L;
            0x91d83a17b20e6585L; 0x38c33df442fc70fdL; 0xe33cd1b92e2e42f1L;
            0x3162280b9dcfa5efL; 0xb4f9f0541228b854L ];
        copy_after3 =
          [ 0xecb8ad4703b360a1L; 0xfde6dc7fe2ec5e64L; 0xc50da53101795238L;
            0xb82154855a65ddb2L; 0xd99a2743ebe60087L; 0xc2e96e726e97647eL;
            0x9556615f775fbc3dL; 0xaeb53b340c103971L ];
      } );
    ( "create 0xDEADBEEFCAFEF00D",
      {
        mk = (fun () -> Rng.create 0xDEADBEEFCAFEF00DL);
        next =
          [ 0x9e32cfb5bb93eebbL; 0x16006bd9d4ac0014L; 0x8ada5d6d34b6538eL;
            0x7c327ca32346a238L; 0xc43a6d6a3492ced2L; 0xdb639ecb036a9c04L;
            0xc5a4b301c52fcfa4L; 0xbcc5e0efaa8ded95L ];
        bits =
          [ 0x278cb3ed6ee4fbae; 0x5801af6752b0005; 0x22b6975b4d2d94e3;
            0x1f0c9f28c8d1a88e; 0x310e9b5a8d24b3b4; 0x36d8e7b2c0daa701;
            0x31692cc0714bf3e9; 0x2f31783beaa37b65 ];
        floats =
          [ 0x1.3c659f6b7727dp-1; 0x1.6006bd9d4acp-4; 0x1.15b4bada696cap-1;
            0x1.f0c9f28c8d1a8p-2; 0x1.8874dad469259p-1; 0x1.b6c73d9606d53p-1;
            0x1.8b4966038a5f9p-1; 0x1.798bc1df551bdp-1 ];
        int7 = [ 0; 6; 3; 2; 1; 5; 0; 4 ];
        int2_40 =
          [ 1019767749550; 1058527707141; 392136856803; 175167875214;
            388915049396; 767739733761; 826534523881; 257339652965 ];
        int_half =
          [ 396346413038632965; 2237338112412985486; 41334951968414379;
            850762225805381876; 1953828478549761097; 1532713595784540792;
            1178077720860654683; 2049487510989962881 ];
        bern = [ false; true; false; false; false; false; false; false ];
        ninth = 0x8a903b49d88ef4f7L;
        split_child =
          [ 0xeca2c753961c3280L; 0x4357c03e3f72ca20L; 0xb278097b3a5c86d0L;
            0x378d4972053185b8L; 0xd40b42c83adcd581L; 0x8c0fc25c2f3a3529L;
            0x279620ff53f4d212L; 0x26039f650ffe265dL ];
        copy_after3 =
          [ 0x7c327ca32346a238L; 0xc43a6d6a3492ced2L; 0xdb639ecb036a9c04L;
            0xc5a4b301c52fcfa4L; 0xbcc5e0efaa8ded95L; 0x8a903b49d88ef4f7L;
            0xc6043008a620aa78L; 0x8a82731f1fe378b7L ];
      } );
  ]

let eight g f = List.init 8 (fun _ -> f g)

let t_pinned_stream () =
  List.iter
    (fun (seed, p) ->
      let label what = Printf.sprintf "%s: %s" seed what in
      Alcotest.(check (list int64)) (label "next_int64") p.next
        (eight (p.mk ()) Rng.next_int64);
      Alcotest.(check (list int)) (label "bits62") p.bits
        (eight (p.mk ()) Rng.bits62);
      (* Exact float equality: compare the IEEE bit patterns. *)
      Alcotest.(check (list int64)) (label "float")
        (List.map Int64.bits_of_float p.floats)
        (List.map Int64.bits_of_float (eight (p.mk ()) Rng.float));
      (* Bound 1 always yields 0 but still consumes one word per draw. *)
      let g = p.mk () in
      Alcotest.(check (list int)) (label "int 1") (List.init 8 (fun _ -> 0))
        (eight g (fun g -> Rng.int g 1));
      Alcotest.(check int64) (label "int 1 draws one word each") p.ninth
        (Rng.next_int64 g);
      Alcotest.(check (list int)) (label "int 7") p.int7
        (eight (p.mk ()) (fun g -> Rng.int g 7));
      Alcotest.(check (list int)) (label "int 2^40") p.int2_40
        (eight (p.mk ()) (fun g -> Rng.int g (1 lsl 40)));
      Alcotest.(check (list int)) (label "int 2^61+1") p.int_half
        (eight (p.mk ()) (fun g -> Rng.int g ((1 lsl 61) + 1)));
      Alcotest.(check (list bool)) (label "bernoulli 0.3") p.bern
        (eight (p.mk ()) (fun g -> Rng.bernoulli g 0.3));
      (* [split] consumes one parent word and seeds the child from it. *)
      let g = p.mk () in
      let child = Rng.split g in
      Alcotest.(check (list int64)) (label "split child") p.split_child
        (eight child Rng.next_int64);
      Alcotest.(check (list int64)) (label "split parent")
        (List.tl p.next @ [ p.ninth ])
        (eight g Rng.next_int64);
      (* [copy] after three draws continues where the original does. *)
      let g = p.mk () in
      for _ = 1 to 3 do
        ignore (Rng.next_int64 g)
      done;
      let c = Rng.copy g in
      Alcotest.(check (list int64)) (label "copy") p.copy_after3
        (eight c Rng.next_int64);
      Alcotest.(check (list int64)) (label "original after copy")
        p.copy_after3
        (eight g Rng.next_int64))
    pins

let suite =
  [
    quick "deterministic streams" t_deterministic;
    quick "seeds differ" t_seeds_differ;
    quick "copy semantics" t_copy_independent;
    quick "split semantics" t_split_independent;
    quick "int range" t_int_range;
    quick "int bad bound" t_int_bad_bound;
    quick "float range" t_float_range;
    slow "uniformity (chi-square)" t_uniformity_chi2;
    quick "shuffle permutes" t_shuffle_permutes;
    slow "bernoulli mean" t_bernoulli_mean;
    quick "pinned stream" t_pinned_stream;
  ]
