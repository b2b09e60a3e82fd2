(** Unit and property tests for exact rationals. *)

module R = Exact.Rational
module B = Exact.Bigint
open Test_util

let t_canonical () =
  check_rational ~msg:"2/4 = 1/2" R.half (R.of_ints 2 4);
  check_rational ~msg:"-2/-4 = 1/2" R.half (R.of_ints (-2) (-4));
  check_rational ~msg:"3/-6 = -1/2" (R.of_ints (-1) 2) (R.of_ints 3 (-6));
  Alcotest.(check string) "den positive" "-1/2" (R.to_string (R.of_ints 1 (-2)));
  Alcotest.(check string) "integer prints plain" "7" (R.to_string (R.of_int 7))

let t_arith () =
  check_rational ~msg:"1/2 + 1/3" (R.of_ints 5 6)
    (R.add R.half (R.of_ints 1 3));
  check_rational ~msg:"1/2 * 2/3" (R.of_ints 1 3)
    (R.mul R.half (R.of_ints 2 3));
  check_rational ~msg:"1/2 - 1/2" R.zero (R.sub R.half R.half);
  check_rational ~msg:"(1/2) / (1/4)" (R.of_int 2)
    (R.div R.half (R.of_ints 1 4));
  check_rational ~msg:"pow (2/3)^3" (R.of_ints 8 27) (R.pow (R.of_ints 2 3) 3);
  check_rational ~msg:"pow (2/3)^-2" (R.of_ints 9 4)
    (R.pow (R.of_ints 2 3) (-2))

let t_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (R.compare (R.of_ints 1 3) R.half < 0);
  Alcotest.(check bool) "-1/2 < 1/3" true
    (R.compare (R.of_ints (-1) 2) (R.of_ints 1 3) < 0);
  Alcotest.(check int) "sign neg" (-1) (R.sign (R.of_ints (-3) 7));
  Alcotest.(check int) "sign zero" 0 (R.sign R.zero)

let t_zero_den () =
  Alcotest.check_raises "den zero" Division_by_zero (fun () ->
      ignore (R.of_ints 1 0));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (R.inv R.zero))

let t_of_float_dyadic () =
  check_rational ~msg:"0.5" R.half (R.of_float_dyadic 0.5);
  check_rational ~msg:"0.25" (R.of_ints 1 4) (R.of_float_dyadic 0.25);
  check_rational ~msg:"3.0" (R.of_int 3) (R.of_float_dyadic 3.0);
  check_rational ~msg:"-1.75" (R.of_ints (-7) 4) (R.of_float_dyadic (-1.75));
  check_rational ~msg:"0" R.zero (R.of_float_dyadic 0.);
  (* 0.1 is not exactly 1/10 in binary; the dyadic value must roundtrip. *)
  check_float ~msg:"dyadic roundtrips float" 0.1
    (R.to_float (R.of_float_dyadic 0.1))

(* Every finite float is dyadic, so [of_float_dyadic] then [to_float]
   gives it back: random bit patterns with every exponent below the
   infinities', subnormals (exponent field 0), both zeros and the
   extremes. *)
let prop_of_float_dyadic_roundtrip =
  let bits =
    QCheck.Gen.(
      map3
        (fun sign e m ->
          let top = Int64.of_int ((if sign then 2048 else 0) lor e) in
          let low = Int64.logand m 0xF_FFFF_FFFF_FFFFL in
          Int64.(float_of_bits (logor (shift_left top 52) low)))
        bool
        (frequency [ (1, return 0); (4, int_range 1 2046) ])
        ui64)
  in
  let edges =
    [ 0.; -0.; Float.succ 0.; Float.pred Float.min_float; Float.min_float;
      Float.max_float; -.Float.max_float; Float.epsilon; 1.; -1. ]
  in
  qtest "to_float (of_float_dyadic f) = f on finite floats" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h")
       QCheck.Gen.(frequency [ (1, oneofl edges); (8, bits) ]))
    (fun f -> R.to_float (R.of_float_dyadic f) = f)

let t_log2 () =
  check_float ~msg:"log2 8" 3. (R.log2 (R.of_int 8));
  check_float ~msg:"log2 1/4" (-2.) (R.log2 (R.of_ints 1 4));
  (* a value far below float range: (1/2)^2000 *)
  check_float ~msg:"log2 tiny" (-2000.) (R.log2 (R.pow R.half 2000));
  check_float ~msg:"log2 huge" 3000. (R.log2 (R.of_bigint (B.pow B.two 3000)))

let t_to_float_wide () =
  (* A side of 1024 bits or more is infinite as a float; the value
     itself is well inside the float range and must come out finite. *)
  let near ~msg want_log2 x =
    let f = R.to_float x in
    if not (Float.is_finite f) then Alcotest.failf "%s: %h is not finite" msg f;
    check_float ~msg want_log2 (Float.log2 (Float.abs f))
  in
  (* both sides past 1024 bits: 3^700 / 2^1400 *)
  near ~msg:"(3/4)^700" (700. *. Float.log2 0.75) (R.pow (R.of_ints 3 4) 700);
  near ~msg:"-(3/4)^700" (700. *. Float.log2 0.75)
    (R.neg (R.pow (R.of_ints 3 4) 700));
  (* numerator alone past 1024 bits *)
  near ~msg:"2^1100 / 3^600"
    (1100. -. (600. *. Float.log2 3.))
    (R.make (B.shift_left B.one 1100) (B.pow (B.of_int 3) 600));
  Alcotest.(check bool) "sign kept" true
    (R.to_float (R.neg (R.pow (R.of_ints 3 4) 700)) < 0.)

let t_sum () =
  check_rational ~msg:"sum thirds" R.one
    (R.sum [ R.of_ints 1 3; R.of_ints 1 3; R.of_ints 1 3 ])

let rat_gen =
  QCheck.map
    (fun (a, b) -> R.of_ints a (1 + abs b))
    (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range 0 1000))

let prop_add_comm =
  qtest "addition commutes" (QCheck.pair rat_gen rat_gen) (fun (a, b) ->
      R.equal (R.add a b) (R.add b a))

let prop_add_assoc =
  qtest "addition associates" (QCheck.triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) -> R.equal (R.add a (R.add b c)) (R.add (R.add a b) c))

let prop_mul_distributes =
  qtest "multiplication distributes" (QCheck.triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) ->
      R.equal (R.mul a (R.add b c)) (R.add (R.mul a b) (R.mul a c)))

let prop_inv_involution =
  qtest "inv is an involution" rat_gen (fun a ->
      QCheck.assume (not (R.is_zero a));
      R.equal a (R.inv (R.inv a)))

let prop_compare_consistent_with_float =
  qtest "compare agrees with float compare"
    (QCheck.pair rat_gen rat_gen)
    (fun (a, b) ->
      let c = R.compare a b in
      let fa = R.to_float a and fb = R.to_float b in
      (* floats of small rationals are faithful enough for ordering
         unless the values are equal *)
      if R.equal a b then c = 0
      else (c < 0) = (fa < fb) || Float.abs (fa -. fb) < 1e-12)

(* --- small-word fast path: differential and invariant suite -------- *)
(* Every value fitting the 30-bit word bounds must sit on the native
   representation (canonicity), and every operation must agree with the
   forced-bigint path. [RT.force_big] breaks canonicity on purpose, so
   value comparisons below use [R.compare], not [R.equal]. *)

module RT = R.For_testing

let is_small_by_value r =
  let bound = B.of_int RT.small_max in
  B.compare (B.abs (R.num r)) bound <= 0 && B.compare (R.den r) bound <= 0

(* Rationals whose numerator/denominator straddle the small_max bound,
   so reduced results land on both sides of the demotion boundary. *)
let boundary_rat_gen =
  QCheck.map
    (fun (dn, dd, sign) ->
      let n = RT.small_max + dn and d = RT.small_max + dd in
      R.of_ints (if sign then -n else n) d)
    (QCheck.triple (QCheck.int_range (-4) 4) (QCheck.int_range (-4) 4)
       QCheck.bool)

(* A positive value of 3-8 random limbs, top limb nonzero. *)
let multi_limb_gen =
  let open QCheck.Gen in
  let limb = int_bound ((1 lsl 30) - 1) in
  int_range 2 7 >>= fun low ->
  map2
    (fun top rest ->
      List.fold_left
        (fun acc l -> B.add (B.shift_left acc 30) (B.of_int l))
        (B.of_int top) rest)
    (int_range 1 ((1 lsl 30) - 1))
    (list_repeat low limb)

(* [p*g / q*g] with a multi-limb common factor [g], odd or carrying a
   power of two, so canonicalization divides by a gcd of three or more
   limbs. *)
let common_factor_rat_gen =
  let open QCheck.Gen in
  let odd g = if B.testbit g 0 then g else B.add g B.one in
  QCheck.make ~print:R.to_string
    (map3
       (fun (p, q) (g, twos) neg ->
         let g = B.shift_left (odd g) twos in
         let p = B.mul p g and q = B.mul q g in
         R.make (if neg then B.neg p else p) q)
       (pair multi_limb_gen multi_limb_gen)
       (pair multi_limb_gen (frequency [ (1, return 0); (1, int_range 1 70) ]))
       bool)

(* Mix of comfortably-small, boundary, and clearly-big magnitudes. *)
let mixed_rat_gen =
  QCheck.oneof
    [ rat_gen; boundary_rat_gen;
      QCheck.map
        (fun (a, b) ->
          R.make
            (B.mul (B.of_int a) (B.of_int ((1 lsl 40) + 9)))
            (B.of_int (1 + abs b)))
        (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range 0 1000));
      common_factor_rat_gen;
    ]

let prop_canonical_gcd =
  qtest "canonical form is reduced" mixed_rat_gen (fun a ->
      B.sign (R.den a) > 0
      && (R.is_zero a
         || B.equal B.one (B.For_testing.gcd_euclid (R.num a) (R.den a))))

let prop_canonical_representation =
  qtest "small values always demote to the word representation"
    (QCheck.pair mixed_rat_gen mixed_rat_gen)
    (fun (a, b) ->
      List.for_all
        (fun r -> RT.is_small r = is_small_by_value r)
        [ a; b; R.add a b; R.sub a b; R.mul a b;
          (if R.is_zero b then R.zero else R.div a b) ])

let prop_ops_match_big_path =
  qtest "fast-path ops = forced-bigint ops"
    (QCheck.pair mixed_rat_gen mixed_rat_gen)
    (fun (a, b) ->
      let ba = RT.force_big a and bb = RT.force_big b in
      let same op_s op_b = R.compare op_s op_b = 0 in
      same (R.add a b) (R.add ba bb)
      && same (R.sub a b) (R.sub ba bb)
      && same (R.mul a b) (R.mul ba bb)
      && (R.is_zero b || same (R.div a b) (R.div ba bb))
      && same (R.neg a) (R.neg ba)
      && same (R.abs a) (R.abs ba)
      && (R.is_zero a || same (R.inv a) (R.inv ba))
      && R.compare a b = R.compare ba bb)

let prop_representation_invisible =
  qtest "to_float/to_string/sign agree across representations"
    mixed_rat_gen
    (fun a ->
      let bigged = RT.force_big a in
      (* bit-for-bit float equality: downstream Kahan sums must not see
         the representation *)
      Int64.equal
        (Int64.bits_of_float (R.to_float a))
        (Int64.bits_of_float (R.to_float bigged))
      && String.equal (R.to_string a) (R.to_string bigged)
      && R.sign a = R.sign bigged
      && Float.equal (R.log2 (R.add (R.abs a) R.one))
           (R.log2 (R.add (R.abs bigged) R.one)))

let prop_int_ops_match =
  qtest "mul_int/div_int/pow match their generic forms"
    (QCheck.pair mixed_rat_gen (QCheck.int_range (-1000) 1000))
    (fun (a, m) ->
      R.compare (R.mul_int a m) (R.mul a (R.of_int m)) = 0
      && (m = 0 || R.compare (R.div_int a m) (R.div a (R.of_int m)) = 0)
      && R.compare (R.pow a 3) (R.mul a (R.mul a a)) = 0)

(* Operands for the reference comparison: the mixed word/bigint values,
   zero, negatives, and one-limb numerators over bigint denominators. *)
let ref_operand_gen =
  QCheck.oneof
    [ mixed_rat_gen;
      QCheck.always R.zero;
      QCheck.map R.neg mixed_rat_gen;
      QCheck.map
        (fun (n, e) -> R.make (B.of_int n) (B.shift_left B.one e))
        (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range 0 90));
    ]

(* Pairs of operands, a third of them over one denominator: an odd
   numerator over a power of two, word or bigint, keeps its
   denominator once reduced. *)
let ref_pair_gen =
  let same_den =
    QCheck.map
      (fun ((n1, n2), e) ->
        let d = B.shift_left B.one e in
        ( R.make (B.of_int ((2 * n1) + 1)) d,
          R.make (B.of_int ((2 * n2) + 1)) d ))
      (QCheck.pair
         (QCheck.pair
            (QCheck.int_range (-5000) 5000)
            (QCheck.int_range (-5000) 5000))
         (QCheck.int_range 1 90))
  in
  QCheck.oneof
    [ QCheck.pair ref_operand_gen ref_operand_gen;
      QCheck.pair ref_operand_gen ref_operand_gen;
      same_den ]

(* Equal values, floats and logarithms bit for bit: a result that is
   not canonical fails [R.equal] against the reference. *)
let same_bits x y =
  let bits f = Int64.bits_of_float f in
  R.equal x y
  && Int64.equal (bits (R.to_float x)) (bits (R.to_float y))
  && (R.sign x <= 0 || Int64.equal (bits (R.log2 x)) (bits (R.log2 y)))

let prop_ops_match_reference =
  qtest "add/mul/div = reduce-after-product references" ~count:500
    ref_pair_gen (fun (a, b) ->
      same_bits (R.add a b) (RT.add_ref a b)
      && same_bits (R.add b a) (RT.add_ref b a)
      && same_bits (R.sub a b) (RT.add_ref a (R.neg b))
      && same_bits (R.mul a b) (RT.mul_ref a b)
      && (R.is_zero b || same_bits (R.div a b) (RT.div_ref a b))
      && (R.is_zero a || same_bits (R.div b a) (RT.div_ref b a)))

let t_word_boundary_edges () =
  let m = RT.small_max in
  Alcotest.(check bool) "small_max is small" true (RT.is_small (R.of_int m));
  Alcotest.(check bool) "small_max+1 is big" false
    (RT.is_small (R.of_int (m + 1)));
  Alcotest.(check bool) "-small_max is small" true
    (RT.is_small (R.of_int (-m)));
  Alcotest.(check bool) "-(small_max+1) is big" false
    (RT.is_small (R.of_int (-(m + 1))));
  (* reduction can bring a big-looking fraction back onto the word *)
  Alcotest.(check bool) "(2(m+1)) / (m+1) demotes" true
    (RT.is_small (R.make (B.of_int (2 * (m + 1))) (B.of_int (m + 1))));
  check_rational ~msg:"and equals 2" (R.of_int 2)
    (R.make (B.of_int (2 * (m + 1))) (B.of_int (m + 1)));
  (* sums that overflow the word bounds promote, exactly *)
  let big_sum = R.add (R.of_ints 1 m) (R.of_ints 1 (m - 1)) in
  Alcotest.(check bool) "1/m + 1/(m-1) promotes" false (RT.is_small big_sum);
  check_rational ~msg:"promoted sum exact" big_sum
    (R.make
       (B.of_int ((2 * m) - 1))
       (B.mul (B.of_int m) (B.of_int (m - 1))))

let t_min_int_edges () =
  (* min_int magnitudes cannot be negated in native ints; these must
     route through the bigint path and still canonicalize *)
  check_rational ~msg:"min_int/min_int" R.one (R.of_ints min_int min_int);
  check_rational ~msg:"max_int/max_int" R.one (R.of_ints max_int max_int);
  Alcotest.(check string) "min_int/1 prints" (string_of_int min_int)
    (R.to_string (R.of_ints min_int 1));
  check_rational ~msg:"min_int/2 = min_int/2"
    (R.make (B.of_int min_int) (B.of_int 2))
    (R.of_ints min_int 2);
  check_rational ~msg:"1/min_int = -1/|min_int|"
    (R.make B.minus_one (B.neg (B.of_int min_int)))
    (R.of_ints 1 min_int);
  check_rational ~msg:"div_int by min_int"
    (R.make B.one (B.neg (B.of_int min_int)))
    (R.div_int (R.of_int (-1)) min_int);
  check_rational ~msg:"mul_int by min_int"
    (R.make (B.of_int min_int) B.one)
    (R.mul_int R.one min_int)

let t_is_one () =
  Alcotest.(check bool) "one" true (R.is_one R.one);
  Alcotest.(check bool) "2/2" true (R.is_one (R.of_ints 2 2));
  Alcotest.(check bool) "half" false (R.is_one R.half);
  Alcotest.(check bool) "zero" false (R.is_one R.zero);
  Alcotest.(check bool) "big-path one reduces small" true
    (R.is_one (R.make (B.of_int ((1 lsl 40) + 1)) (B.of_int ((1 lsl 40) + 1))))

let suite =
  [
    quick "canonical form" t_canonical;
    quick "arithmetic" t_arith;
    quick "comparisons" t_compare;
    quick "zero denominators" t_zero_den;
    quick "of_float_dyadic" t_of_float_dyadic;
    prop_of_float_dyadic_roundtrip;
    quick "log2" t_log2;
    quick "to_float past 1024-bit sides" t_to_float_wide;
    quick "sum" t_sum;
    prop_add_comm;
    prop_add_assoc;
    prop_mul_distributes;
    prop_inv_involution;
    prop_canonical_gcd;
    prop_compare_consistent_with_float;
    prop_canonical_representation;
    prop_ops_match_big_path;
    prop_representation_invisible;
    prop_int_ops_match;
    prop_ops_match_reference;
    quick "word-boundary edges" t_word_boundary_edges;
    quick "min_int edges" t_min_int_edges;
    quick "is_one" t_is_one;
  ]
