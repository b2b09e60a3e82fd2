(** Unit and property tests for the arbitrary-precision integers. *)

module B = Exact.Bigint
open Test_util

let check_b ~msg expected actual =
  if not (B.equal expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (B.to_string expected)
      (B.to_string actual)

let t_roundtrip_int () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (Printf.sprintf "roundtrip %d" n)
        (Some n)
        (B.to_int_opt (B.of_int n)))
    [ 0; 1; -1; 42; -42; 1 lsl 29; (1 lsl 30) - 1; 1 lsl 30; 1 lsl 31;
      max_int; min_int; min_int + 1; max_int - 1 ]

let t_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) ("of/to_string " ^ s) s
        (B.to_string (B.of_string s)))
    [
      "0"; "1"; "-1"; "123456789"; "-987654321";
      "123456789012345678901234567890";
      "-100000000000000000000000000000000000001";
    ]

let t_string_padding () =
  (* Chunked decimal printing must zero-pad interior chunks. *)
  let x = B.mul (B.of_string "1000000001") (B.of_string "1000000001") in
  Alcotest.(check string) "padded" "1000000002000000001" (B.to_string x)

let t_add_carry_chain () =
  let one = B.one in
  let big = B.sub (B.shift_left one 120) one in
  check_b ~msg:"(2^120 - 1) + 1 = 2^120" (B.shift_left one 120) (B.add big one)

let t_min_int () =
  Alcotest.(check string) "min_int prints" (string_of_int min_int)
    (B.to_string (B.of_int min_int))

let t_div_mod_signs () =
  (* Truncated division semantics must match Stdlib. *)
  List.iter
    (fun (a, b) ->
      let q, r = B.div_mod (B.of_int a) (B.of_int b) in
      check_b ~msg:(Printf.sprintf "%d / %d" a b) (B.of_int (a / b)) q;
      check_b ~msg:(Printf.sprintf "%d mod %d" a b) (B.of_int (a mod b)) r)
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (0, 5); (12, 4); (-12, 4) ]

let t_division_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.div B.one B.zero))

let t_pow () =
  check_b ~msg:"2^100"
    (B.shift_left B.one 100)
    (B.pow B.two 100);
  check_b ~msg:"x^0" B.one (B.pow (B.of_int 17) 0);
  check_b ~msg:"(-3)^3" (B.of_int (-27)) (B.pow (B.of_int (-3)) 3)

let t_factorial () =
  Alcotest.(check string) "20!" "2432902008176640000"
    (B.to_string (B.factorial 20));
  Alcotest.(check string) "0!" "1" (B.to_string (B.factorial 0));
  Alcotest.(check string) "25!" "15511210043330985984000000"
    (B.to_string (B.factorial 25))

let t_binomial () =
  check_b ~msg:"C(5,2)" (B.of_int 10) (B.binomial 5 2);
  check_b ~msg:"C(n,0)" B.one (B.binomial 10 0);
  check_b ~msg:"C(n,n)" B.one (B.binomial 10 10);
  check_b ~msg:"C(n,k>n)" B.zero (B.binomial 5 7);
  check_b ~msg:"C(n,-1)" B.zero (B.binomial 5 (-1));
  Alcotest.(check string) "C(100,50)" "100891344545564193334812497256"
    (B.to_string (B.binomial 100 50))

let t_binomial_pascal () =
  (* Pascal identity at sizes beyond 64-bit. *)
  for n = 80 to 84 do
    for k = 1 to n - 1 do
      check_b
        ~msg:(Printf.sprintf "pascal %d %d" n k)
        (B.binomial n k)
        (B.add (B.binomial (n - 1) (k - 1)) (B.binomial (n - 1) k))
    done
  done

let t_gcd () =
  check_b ~msg:"gcd 12 18" (B.of_int 6) (B.gcd (B.of_int 12) (B.of_int 18));
  check_b ~msg:"gcd 0 5" (B.of_int 5) (B.gcd B.zero (B.of_int 5));
  check_b ~msg:"gcd -12 18" (B.of_int 6) (B.gcd (B.of_int (-12)) (B.of_int 18));
  check_b ~msg:"gcd big"
    (B.of_string "340282366920938463463374607431768211456")
    (B.gcd
       (B.shift_left B.one 128)
       (B.shift_left B.one 200))

let t_shift_right () =
  check_b ~msg:"(2^100) >> 37" (B.shift_left B.one 63)
    (B.shift_right (B.shift_left B.one 100) 37);
  check_b ~msg:"5 >> 10" B.zero (B.shift_right (B.of_int 5) 10)

let t_num_bits () =
  Alcotest.(check int) "bits 0" 0 (B.num_bits B.zero);
  Alcotest.(check int) "bits 1" 1 (B.num_bits B.one);
  Alcotest.(check int) "bits 2^30" 31 (B.num_bits (B.shift_left B.one 30));
  Alcotest.(check int) "bits 2^100-1" 100
    (B.num_bits (B.sub (B.shift_left B.one 100) B.one))

let t_testbit () =
  let x = B.of_int 0b101101 in
  List.iteri
    (fun i expected ->
      Alcotest.(check bool) (Printf.sprintf "bit %d" i) expected (B.testbit x i))
    [ true; false; true; true; false; true; false ]

let prop_add_matches_int =
  qtest "add matches native" bigint_pair_gen (fun (a, b) ->
      B.equal (B.of_int (a + b)) (B.add (B.of_int a) (B.of_int b)))

let prop_mul_matches_int =
  qtest "mul matches native" bigint_pair_gen (fun (a, b) ->
      B.equal (B.of_int (a * b)) (B.mul (B.of_int a) (B.of_int b)))

let prop_divmod_identity =
  qtest "a = q*b + r with |r| < |b|"
    (QCheck.pair (QCheck.int_range (-100000000) 100000000)
       (QCheck.int_range 1 100000))
    (fun (a, b) ->
      let ba = B.of_int a and bb = B.of_int b in
      let q, r = B.div_mod ba bb in
      B.equal ba (B.add (B.mul q bb) r)
      && B.compare (B.abs r) (B.abs bb) < 0)

let prop_mul_commutative_big =
  qtest "big multiplication commutes"
    (QCheck.pair (QCheck.string_gen_of_size (QCheck.Gen.int_range 1 40)
                    (QCheck.Gen.char_range '0' '9'))
       (QCheck.string_gen_of_size (QCheck.Gen.int_range 1 40)
          (QCheck.Gen.char_range '0' '9')))
    (fun (s1, s2) ->
      let a = B.of_string s1 and b = B.of_string s2 in
      B.equal (B.mul a b) (B.mul b a))

let prop_string_roundtrip_big =
  qtest "decimal roundtrip on big values"
    (QCheck.string_gen_of_size (QCheck.Gen.int_range 1 50)
       (QCheck.Gen.char_range '1' '9'))
    (fun s ->
      (* avoid leading zeros by drawing 1-9 *)
      String.equal s (B.to_string (B.of_string s)))

let prop_divmod_big =
  qtest "division identity on big values" ~count:100
    (QCheck.pair
       (QCheck.string_gen_of_size (QCheck.Gen.int_range 1 40)
          (QCheck.Gen.char_range '1' '9'))
       (QCheck.string_gen_of_size (QCheck.Gen.int_range 1 20)
          (QCheck.Gen.char_range '1' '9')))
    (fun (s1, s2) ->
      let a = B.of_string s1 and b = B.of_string s2 in
      let q, r = B.div_mod a b in
      B.equal a (B.add (B.mul q b) r)
      && B.compare r b < 0 && B.sign r >= 0)

let prop_shift_is_mul_pow2 =
  qtest "shift_left = mul 2^n"
    (QCheck.pair (QCheck.int_range 0 1000000) (QCheck.int_range 0 70))
    (fun (a, n) ->
      B.equal
        (B.shift_left (B.of_int a) n)
        (B.mul (B.of_int a) (B.pow B.two n)))

let prop_gcd_divides =
  qtest "gcd divides both"
    (QCheck.pair (QCheck.int_range 1 1000000) (QCheck.int_range 1 1000000))
    (fun (a, b) ->
      let g = B.gcd (B.of_int a) (B.of_int b) in
      B.is_zero (B.rem (B.of_int a) g) && B.is_zero (B.rem (B.of_int b) g))

(* --- fast-path differential suite --------------------------------- *)
(* [mul] switches to Karatsuba above a limb threshold and [gcd] is a
   binary GCD with a native-int Euclid fast path; both are checked
   against the reference implementations kept in {!B.For_testing},
   with operand sizes straddling every switch-over boundary. *)

module BT = B.For_testing

(* A pseudo-random positive value of exactly [limbs] limbs, derived
   deterministically from [salt] (tests stay reproducible). *)
let value_of_limbs ~salt limbs =
  let rec go i acc =
    if i = limbs then acc
    else
      let limb = (((salt + i) * 2654435761) lxor (i * 40503)) land 0x3FFFFFFF in
      go (i + 1) (B.add (B.shift_left acc 30) (B.of_int limb))
  in
  (* top limb forced nonzero so the limb count is exact *)
  go 1 (B.of_int (1 + (salt land 0xFFFF)))

let t_limb_probe () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "of_limb_count %d" n)
        n
        (BT.limb_count (BT.of_limb_count n));
      Alcotest.(check int)
        (Printf.sprintf "value_of_limbs %d" n)
        n
        (BT.limb_count (value_of_limbs ~salt:97 n)))
    [ 1; 2; BT.karatsuba_threshold - 1; BT.karatsuba_threshold;
      BT.karatsuba_threshold + 1; 2 * BT.karatsuba_threshold ]

(* Limb counts covering both sides of the Karatsuba threshold plus the
   unbalanced and recursive (>= 2x threshold) regimes. *)
let threshold_limbs =
  let t = BT.karatsuba_threshold in
  [ 1; t - 1; t; t + 1; (2 * t) - 1; 2 * t; (2 * t) + 1; 4 * t ]

let t_karatsuba_matches_schoolbook () =
  List.iter
    (fun la ->
      List.iter
        (fun lb ->
          let a = value_of_limbs ~salt:(la * 131) la in
          let b = value_of_limbs ~salt:(lb * 733) lb in
          check_b
            ~msg:(Printf.sprintf "mul %dx%d limbs" la lb)
            (BT.mul_schoolbook a b) (B.mul a b);
          check_b
            ~msg:(Printf.sprintf "mul (-)%dx%d limbs" la lb)
            (BT.mul_schoolbook (B.neg a) b)
            (B.mul (B.neg a) b))
        threshold_limbs)
    threshold_limbs

let prop_karatsuba_random_sizes =
  qtest "Karatsuba mul = schoolbook mul across the threshold" ~count:60
    (QCheck.triple
       (QCheck.int_range 1 (3 * BT.karatsuba_threshold))
       (QCheck.int_range 1 (3 * BT.karatsuba_threshold))
       (QCheck.int_range 0 1000000))
    (fun (la, lb, salt) ->
      let a = value_of_limbs ~salt la in
      let b = value_of_limbs ~salt:(salt + 17) lb in
      B.equal (B.mul a b) (BT.mul_schoolbook a b))

let t_gcd_binary_matches_euclid_edges () =
  (* word-size boundary: inputs at and just past the native fast path,
     including the max_int/min_int edges *)
  let edge_ints =
    [ 0; 1; 2; 3; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 31) - 1;
      (1 lsl 62) - 1; 1 lsl 62; max_int - 1; max_int ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_b
            ~msg:(Printf.sprintf "gcd %d %d" a b)
            (BT.gcd_euclid (B.of_int a) (B.of_int b))
            (B.gcd (B.of_int a) (B.of_int b)))
        edge_ints)
    edge_ints;
  check_b ~msg:"gcd min_int max_int"
    (BT.gcd_euclid (B.of_int min_int) (B.of_int max_int))
    (B.gcd (B.of_int min_int) (B.of_int max_int));
  check_b ~msg:"gcd min_int min_int"
    (BT.gcd_euclid (B.of_int min_int) (B.of_int min_int))
    (B.gcd (B.of_int min_int) (B.of_int min_int))

let prop_gcd_binary_matches_euclid =
  (* random multi-limb operands sharing a planted common factor, so the
     result is itself often multi-limb *)
  qtest "binary gcd = Euclid gcd on big operands" ~count:60
    (QCheck.triple (QCheck.int_range 1 8) (QCheck.int_range 1 8)
       (QCheck.int_range 0 1000000))
    (fun (la, lb, salt) ->
      let g = value_of_limbs ~salt:(salt + 3) ((la + lb) / 2) in
      let a = B.mul g (value_of_limbs ~salt la) in
      let b = B.mul g (value_of_limbs ~salt:(salt + 11) lb) in
      B.equal (B.gcd a b) (BT.gcd_euclid a b))

let prop_gcd_shifted =
  (* heavy shared powers of two exercise the binary GCD's ctz paths *)
  qtest "gcd with planted 2-adic factors" ~count:60
    (QCheck.triple (QCheck.int_range 0 100) (QCheck.int_range 1 1000000)
       (QCheck.int_range 1 1000000))
    (fun (sh, a, b) ->
      let ba = B.shift_left (B.of_int a) sh in
      let bb = B.shift_left (B.of_int b) (sh / 2) in
      B.equal (B.gcd ba bb) (BT.gcd_euclid ba bb))

(* A one-limb operand: the gcd finishes in native ints after one
   remainder pass over the other operand, which may be multi-limb,
   zero or negative; a planted factor [m] makes the result [m].
   [gcd_int] is the same gcd as an int. *)
let prop_gcd_one_limb =
  qtest "gcd with a one-limb operand = Euclid gcd" ~count:300
    (QCheck.quad (QCheck.int_range 0 6) (QCheck.int_range 1 ((1 lsl 30) - 1))
       (QCheck.triple QCheck.bool QCheck.bool QCheck.bool)
       (QCheck.int_range 0 1000000))
    (fun (la, m, (neg_a, neg_m, plant), salt) ->
      let a = if la = 0 then B.zero else value_of_limbs ~salt la in
      let a = if plant then B.mul a (B.of_int m) else a in
      let a = if neg_a then B.neg a else a in
      let bm = B.of_int (if neg_m then -m else m) in
      let want = BT.gcd_euclid a bm in
      B.equal (B.gcd a bm) want
      && B.equal (B.gcd bm a) want
      && B.to_int_opt want = Some (B.gcd_int a m))

let t_gcd_int_range () =
  List.iter
    (fun m ->
      match B.gcd_int B.one m with
      | _ -> Alcotest.failf "gcd_int accepted %d" m
      | exception Invalid_argument _ -> ())
    [ 0; -1; 1 lsl 30 ]

(* [num_bits] against a loop over the bits, at every width of the top
   limb and one to four limbs: the smallest and largest top limbs of
   each width, and a random one. *)
let t_num_bits_widths () =
  let loop_bits x =
    let rec go i =
      if i < 0 then 0 else if B.testbit x i then i + 1 else go (i - 1)
    in
    go ((BT.limb_count x * 30) - 1)
  in
  for limbs = 1 to 4 do
    for w = 1 to 30 do
      List.iter
        (fun top ->
          let low = value_of_limbs ~salt:(limbs + w) limbs in
          let x =
            B.add
              (B.shift_left (B.of_int top) ((limbs - 1) * 30))
              (B.sub low (B.shift_left (B.shift_right low ((limbs - 1) * 30))
                            ((limbs - 1) * 30)))
          in
          Alcotest.(check int)
            (Printf.sprintf "num_bits, %d limbs, top limb %d" limbs top)
            (loop_bits x) (B.num_bits x);
          Alcotest.(check int) "and its width" (((limbs - 1) * 30) + w)
            (B.num_bits x))
        [ 1 lsl (w - 1);
          (1 lsl w) - 1;
          (1 lsl (w - 1)) lor (w * 2654435761 land ((1 lsl (w - 1)) - 1)) ]
    done
  done

let odd v = if B.testbit v 0 then v else B.add v B.one

let prop_div_exact_matches_div =
  (* planted multiples [q * d]: single-limb, multi-limb odd, multi-limb
     even and power-of-two divisors, either sign on either side *)
  qtest "div_exact = div on planted multiples" ~count:200
    (QCheck.quad (QCheck.int_range 0 3) (QCheck.int_range 0 8)
       (QCheck.pair QCheck.bool QCheck.bool)
       (QCheck.int_range 0 1000000))
    (fun (kind, lq, (neg_q, neg_d), salt) ->
      let d =
        match kind with
        | 0 -> B.of_int (1 + (salt * 7919 mod ((1 lsl 30) - 1)))
        | 1 -> odd (value_of_limbs ~salt (2 + (salt mod 5)))
        | 2 ->
            B.shift_left
              (odd (value_of_limbs ~salt (2 + (salt mod 4))))
              (1 + (salt mod 61))
        | _ -> B.shift_left B.one (salt mod 200)
      in
      let q = if lq = 0 then B.zero else value_of_limbs ~salt:(salt + 5) lq in
      let d = if neg_d then B.neg d else d in
      let q = if neg_q then B.neg q else q in
      let a = B.mul q d in
      let e = B.div_exact a d in
      B.equal e (B.div a d) && B.equal e q)

let t_div_exact_not_multiple () =
  let raises msg a d =
    Alcotest.check_raises msg
      (Invalid_argument "Bigint.div_exact: not divisible") (fun () ->
        ignore (B.div_exact a d))
  in
  let d = odd (value_of_limbs ~salt:41 3) and q = value_of_limbs ~salt:7 4 in
  let a = B.mul q d in
  raises "multi-limb, off in the low limb" (B.add a B.one) d;
  raises "multi-limb, off in the top limb"
    (B.add a (B.shift_left B.one (30 * (BT.limb_count a - 1))))
    d;
  raises "multi-limb, dividend below divisor" (B.sub d B.one) d;
  raises "even divisor, odd dividend" (B.add (B.shift_left a 3) B.one)
    (B.shift_left d 3);
  raises "single limb" (B.of_int 10) (B.of_int 3);
  raises "power of two" (B.of_int 12) (B.of_int 8);
  Alcotest.check_raises "zero divisor" Division_by_zero (fun () ->
      ignore (B.div_exact B.one B.zero))

(* ------------------------------------------------------------------ *)
(* The in-place accumulator vs the immutable API.                     *)
(* ------------------------------------------------------------------ *)

let prop_acc_mul_small_matches =
  qtest "Acc.mul_small = mul_int" ~count:200
    (QCheck.pair (QCheck.int_range 0 1_000_000_000)
       (QCheck.int_range 0 ((1 lsl 30) - 1)))
    (fun (x0, m) ->
      (* grow x well past one limb so carries propagate *)
      let x = B.mul (B.of_int x0) (B.of_string "340282366920938463463374607431768211297") in
      let a = B.Acc.of_t x in
      B.Acc.mul_small a m;
      B.equal (B.Acc.to_t a) (B.mul_int x m))

let prop_acc_mul_div_roundtrip =
  qtest "Acc mul then exact div is identity" ~count:200
    (QCheck.pair (QCheck.int_range 0 1_000_000_000)
       (QCheck.int_range 1 ((1 lsl 30) - 1)))
    (fun (x0, d) ->
      let x = B.mul (B.of_int x0) (B.of_string "987654321234567898765432123456789") in
      let a = B.Acc.of_t x in
      B.Acc.mul_small a d;
      B.Acc.div_exact_small a d;
      B.equal (B.Acc.to_t a) x)

let prop_acc_div_matches_div =
  qtest "Acc.div_exact_small = div on planted multiples" ~count:200
    (QCheck.pair (QCheck.int_range 0 1_000_000_000)
       (QCheck.int_range 1 ((1 lsl 30) - 1)))
    (fun (x0, d) ->
      let x =
        B.mul_int (B.mul (B.of_int x0) (B.of_string "1000000000000000000000000000000066600049")) d
      in
      let a = B.Acc.of_t x in
      B.Acc.div_exact_small a d;
      B.equal (B.Acc.to_t a) (B.div x (B.of_int d)))

let prop_acc_compare_t =
  qtest "Acc.compare_t agrees with compare" ~count:200 bigint_pair_gen
    (fun (x, y) ->
      let x = B.of_int (abs x) and y = B.of_int (abs y) in
      let a = B.Acc.of_t x in
      let c = B.Acc.compare_t a y and r = B.compare x y in
      (c = 0 && r = 0) || (c < 0 && r < 0) || (c > 0 && r > 0))

let t_acc_div_not_exact_raises () =
  let a = B.Acc.of_t (B.of_int 7) in
  Alcotest.check_raises "inexact"
    (Invalid_argument "Bigint.Acc.div_exact_small: not divisible") (fun () ->
      B.Acc.div_exact_small a 2);
  let b = B.Acc.of_t (B.of_int 10) in
  Alcotest.check_raises "inexact odd"
    (Invalid_argument "Bigint.Acc.div_exact_small: not divisible") (fun () ->
      B.Acc.div_exact_small b 3)

let t_acc_zero_and_set () =
  let a = B.Acc.create () in
  Alcotest.(check bool) "fresh is zero" true (B.Acc.is_zero a);
  B.Acc.set_int a max_int;
  check_b ~msg:"set_int max_int" (B.of_int max_int) (B.Acc.to_t a);
  B.Acc.mul_small a 0;
  Alcotest.(check bool) "mul by 0" true (B.Acc.is_zero a);
  B.Acc.set_t a (B.pow (B.of_int 10) 50);
  B.Acc.div_exact_small a (1 lsl 10);
  check_b ~msg:"10^50 / 2^10"
    (B.div (B.pow (B.of_int 10) 50) (B.of_int (1 lsl 10)))
    (B.Acc.to_t a)

(* Multi-limb accumulator ops vs the immutable API, on operands grown
   well past one limb so carries, borrows and the Jebelean LSB-first
   division all propagate across limb boundaries. *)
let big_of x0 =
  B.mul (B.of_int (abs x0))
    (B.of_string "340282366920938463463374607431768211297")

let prop_acc_add_sub_acc =
  qtest "Acc.add_acc/sub_acc = add/sub" ~count:200 bigint_pair_gen
    (fun (x0, y0) ->
      let x = big_of x0 and y = big_of y0 in
      let a = B.Acc.of_t x in
      B.Acc.add_acc a (B.Acc.of_t y);
      let sum_ok = B.equal (B.Acc.to_t a) (B.add x y) in
      B.Acc.sub_acc a (B.Acc.of_t y);
      sum_ok && B.equal (B.Acc.to_t a) x)

let prop_acc_compare_acc =
  qtest "Acc.compare_acc agrees with compare" ~count:200 bigint_pair_gen
    (fun (x0, y0) ->
      let x = big_of x0 and y = big_of y0 in
      let c = B.Acc.compare_acc (B.Acc.of_t x) (B.Acc.of_t y) in
      let r = B.compare x y in
      (c = 0 && r = 0) || (c < 0 && r < 0) || (c > 0 && r > 0))

let prop_acc_mul_acc =
  qtest "Acc.mul_acc = mul on multi-limb operands" ~count:200
    bigint_pair_gen (fun (x0, y0) ->
      let x = big_of x0 and y = big_of y0 in
      let a = B.Acc.of_t x in
      B.Acc.mul_acc ~scratch:(B.Acc.create ()) a (B.Acc.of_t y);
      B.equal (B.Acc.to_t a) (B.mul x y))

let prop_acc_div_exact_acc =
  qtest "Acc.div_exact_acc inverts mul_acc (odd divisors)" ~count:200
    bigint_pair_gen (fun (x0, y0) ->
      let x = big_of x0 in
      (* odd multi-limb divisor, as div_exact_acc requires *)
      let d = B.add (B.mul_int (big_of y0) 2) B.one in
      let a = B.Acc.of_t x in
      let da = B.Acc.of_t d in
      B.Acc.mul_acc ~scratch:(B.Acc.create ()) a da;
      B.Acc.div_exact_acc a da;
      B.equal (B.Acc.to_t a) x)

let prop_acc_shift_right_exact =
  qtest "Acc.shift_right_exact = shift_right on planted powers"
    ~count:200
    (QCheck.pair (QCheck.int_range 0 1_000_000_000) (QCheck.int_range 0 130))
    (fun (x0, s) ->
      let x = B.shift_left (big_of x0) s in
      let a = B.Acc.of_t x in
      B.Acc.shift_right_exact a s;
      B.equal (B.Acc.to_t a) (B.shift_right x s))

let prop_log2_approx =
  qtest "log2_approx within 1e-9 of num_bits window" ~count:200
    (QCheck.pair (QCheck.int_range 1 1_000_000_000) (QCheck.int_range 0 200))
    (fun (x0, s) ->
      let x = B.shift_left (B.of_int x0) s in
      let l = B.log2_approx x in
      let bits = float_of_int (B.num_bits x) in
      (* 2^(bits-1) <= x < 2^bits *)
      bits -. 1. -. 1e-9 <= l && l <= bits +. 1e-9
      && Float.abs (B.Acc.log2_approx (B.Acc.of_t x) -. l) < 1e-12)

let prop_binomial_matches_reference =
  qtest "binomial (Acc path) = immutable iteration" ~count:100
    (QCheck.pair (QCheck.int_range 0 150) (QCheck.int_range 0 150))
    (fun (n, k) ->
      B.equal (B.binomial n k) (B.For_testing.binomial_iter n k))

let suite =
  [
    quick "int roundtrip" t_roundtrip_int;
    quick "string roundtrip" t_string_roundtrip;
    quick "decimal chunk padding" t_string_padding;
    quick "carry chain" t_add_carry_chain;
    quick "min_int" t_min_int;
    quick "div_mod signs" t_div_mod_signs;
    quick "division by zero" t_division_by_zero;
    quick "pow" t_pow;
    quick "factorial" t_factorial;
    quick "binomial" t_binomial;
    quick "binomial pascal identity (big)" t_binomial_pascal;
    quick "gcd" t_gcd;
    quick "shift right" t_shift_right;
    quick "num_bits" t_num_bits;
    quick "testbit" t_testbit;
    prop_add_matches_int;
    prop_mul_matches_int;
    prop_divmod_identity;
    prop_mul_commutative_big;
    prop_string_roundtrip_big;
    prop_divmod_big;
    prop_shift_is_mul_pow2;
    prop_gcd_divides;
    quick "limb-count probes" t_limb_probe;
    quick "Karatsuba = schoolbook at the threshold" t_karatsuba_matches_schoolbook;
    prop_karatsuba_random_sizes;
    quick "binary gcd = Euclid at word-size edges" t_gcd_binary_matches_euclid_edges;
    prop_gcd_binary_matches_euclid;
    prop_gcd_shifted;
    prop_gcd_one_limb;
    quick "gcd_int refuses a divisor outside one limb" t_gcd_int_range;
    quick "num_bits at every top-limb width" t_num_bits_widths;
    prop_div_exact_matches_div;
    quick "div_exact of a non-multiple raises" t_div_exact_not_multiple;
    prop_acc_mul_small_matches;
    prop_acc_mul_div_roundtrip;
    prop_acc_div_matches_div;
    prop_acc_compare_t;
    quick "Acc inexact division raises" t_acc_div_not_exact_raises;
    quick "Acc zero/set/shift paths" t_acc_zero_and_set;
    prop_acc_add_sub_acc;
    prop_acc_compare_acc;
    prop_acc_mul_acc;
    prop_acc_div_exact_acc;
    prop_acc_shift_right_exact;
    prop_log2_approx;
    prop_binomial_matches_reference;
  ]
