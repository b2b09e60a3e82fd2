(** Differential suite: {!Exact.Bigint}'s immutable operations and its
    in-place {!Exact.Bigint.Acc} run one limb loop per operation, so
    neither layer can be the other's reference. Both are held here to
    the loops kept in [Bigint_ref], value for value, through the
    [For_testing.limbs]/[of_limbs] probes.

    Operands have 0-40 limbs (both sides of the Karatsuba threshold),
    drawn from all-ones limbs, so a carry runs through them and grows a
    new limb; zero limbs, so a borrow crosses them; ones; and uniform
    limbs. Accumulators are loaded over a buffer that held a longer
    all-ones value, so every kernel runs with garbage above [len]. *)

module B = Exact.Bigint
module A = B.Acc
module BT = B.For_testing
module Ref = Bigint_ref
open Test_util

let base_mask = Ref.base_mask

let print_mag m =
  "[|" ^ String.concat "; " (Array.to_list (Array.map string_of_int m)) ^ "|]"

let limb_gen =
  QCheck.Gen.(
    frequency
      [ (3, return base_mask); (2, return 0); (1, return 1);
        (4, int_bound base_mask) ])

let mag_gen =
  QCheck.Gen.(map Ref.normalize (array_size (int_range 0 40) limb_gen))

(* A second operand: independent, equal, or equal but for one limb, so
   compare meets operands that differ below their top limb. *)
let pair_gen =
  QCheck.Gen.(
    mag_gen >>= fun a ->
    let near =
      if Array.length a = 0 then return a
      else
        map2
          (fun i v ->
            let b = Array.copy a in
            b.(i) <- v;
            Ref.normalize b)
          (int_bound (Array.length a - 1))
          limb_gen
    in
    frequency [ (3, mag_gen); (1, return a); (2, near) ] >|= fun b -> (a, b))

let mag = QCheck.make ~print:print_mag mag_gen

let mag_pair =
  QCheck.make ~print:QCheck.Print.(pair print_mag print_mag) pair_gen

(* One limb: the multiplier of [mul_int]/[mul_small]. *)
let limb = QCheck.make ~print:string_of_int limb_gen

(* Shifts: whole limbs (multiples of 30 bits, up to past the top limb)
   or any count of bits up to 1,400. *)
let shift =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      frequency
        [ (1, map (fun l -> 30 * l) (int_bound 45)); (1, int_bound 1400) ])

let of_mag = BT.of_limbs
let dirty = BT.of_limbs (Array.make 41 base_mask)

let acc_of m =
  let a = A.create () in
  A.set_t a dirty;
  A.set_t a (of_mag m);
  a

let limbs_of_acc a = BT.limbs (A.to_t a)

let same ~msg want got =
  if want <> got then
    Alcotest.failf "%s: want %s, got %s" msg (print_mag want) (print_mag got)

let same_int ~msg want got =
  if want <> got then Alcotest.failf "%s: want %d, got %d" msg want got

let raises f =
  match f () with () -> false | exception Invalid_argument _ -> true

let prop_compare =
  qtest "compare, compare_acc, compare_t = reference" ~count:500 mag_pair
    (fun (a, b) ->
      let want = Ref.cmp_mag a b and sign c = compare c 0 in
      let x = of_mag a and y = of_mag b in
      same_int ~msg:"compare" want (sign (B.compare x y));
      same_int ~msg:"compare, negated" (-want)
        (sign (B.compare (B.neg x) (B.neg y)));
      same_int ~msg:"compare_acc" want
        (sign (A.compare_acc (acc_of a) (acc_of b)));
      same_int ~msg:"compare_t" want (sign (A.compare_t (acc_of a) y));
      same_int ~msg:"compare_t, negative"
        (if B.is_zero y then Ref.cmp_mag a [||] else 1)
        (sign (A.compare_t (acc_of a) (B.neg y)));
      true)

let prop_add =
  qtest "add, add_acc = reference, aliased too" ~count:500 mag_pair
    (fun (a, b) ->
      let want = Ref.add_mag a b in
      let x = acc_of a and self = acc_of a in
      A.add_acc x (acc_of b);
      A.add_acc self self;
      same ~msg:"add" want (BT.limbs (B.add (of_mag a) (of_mag b)));
      same ~msg:"add_acc" want (limbs_of_acc x);
      same ~msg:"add_acc a a" (Ref.add_mag a a) (limbs_of_acc self);
      true)

let prop_sub =
  qtest "sub, sub_acc = reference, aliased too" ~count:500 mag_pair
    (fun (a, b) ->
      let c = Ref.cmp_mag a b in
      let hi, lo = if c >= 0 then (a, b) else (b, a) in
      let want = Ref.sub_mag hi lo in
      let x = acc_of hi and self = acc_of a in
      A.sub_acc x (acc_of lo);
      A.sub_acc self self;
      same ~msg:"sub" want (BT.limbs (B.sub (of_mag hi) (of_mag lo)));
      let neg = B.sub (of_mag lo) (of_mag hi) in
      same ~msg:"sub, negative" want (BT.limbs neg);
      same_int ~msg:"sub, sign" (-abs c) (B.sign neg);
      same ~msg:"sub_acc" want (limbs_of_acc x);
      same ~msg:"sub_acc a a" [||] (limbs_of_acc self);
      c = 0 || raises (fun () -> A.sub_acc (acc_of lo) (acc_of hi)))

let prop_mul =
  qtest "mul, schoolbook, mul_acc = reference, aliased too" ~count:300
    mag_pair (fun (a, b) ->
      let want = Ref.mul_mag_schoolbook a b in
      let scratch = acc_of [| 1 |] in
      let x = acc_of a and self = acc_of a in
      A.mul_acc ~scratch x (acc_of b);
      A.mul_acc ~scratch self self;
      same ~msg:"mul" want (BT.limbs (B.mul (of_mag a) (of_mag b)));
      same ~msg:"schoolbook" want
        (BT.limbs (BT.mul_schoolbook (of_mag a) (of_mag b)));
      same ~msg:"mul_acc" want (limbs_of_acc x);
      same ~msg:"mul_acc a a" (Ref.mul_mag_schoolbook a a) (limbs_of_acc self);
      true)

let check_mul_limb a m =
  let want = Ref.mul_mag_int a m and x = acc_of a in
  A.mul_small x m;
  same ~msg:"mul_int" want (BT.limbs (B.mul_int (of_mag a) m));
  same ~msg:"mul_small" want (limbs_of_acc x)

let prop_mul_limb =
  qtest "mul_int, mul_small = reference" ~count:500 (QCheck.pair mag limb)
    (fun (a, m) ->
      check_mul_limb a m;
      true)

(* The largest one-limb multiplier on all-ones operands, whose product
   carries into a new top limb. *)
let t_mul_limb_all_ones () =
  for n = 0 to 40 do
    check_mul_limb (Array.make n base_mask) base_mask
  done

let prop_shift_right =
  qtest "shift_right, shift_right_exact = reference" ~count:500
    (QCheck.pair mag shift) (fun (a, s) ->
      let want = Ref.shift_right_mag a s in
      same ~msg:"shift_right" want (BT.limbs (B.shift_right (of_mag a) s));
      (* exact on a planted multiple of 2^s; on [a] itself exactly when
         no set bit is shifted out *)
      let planted = BT.limbs (B.shift_left (of_mag a) s) in
      let x = acc_of planted and y = acc_of a in
      A.shift_right_exact x s;
      same ~msg:"shift_right_exact, planted" a (limbs_of_acc x);
      let exact = B.equal (B.shift_left (of_mag want) s) (of_mag a) in
      if raises (fun () -> A.shift_right_exact y s) then not exact
      else begin
        same ~msg:"shift_right_exact" want (limbs_of_acc y);
        exact
      end)

let prop_log2 =
  qtest "log2_approx, Acc.log2_approx = reference" ~count:300 mag (fun a ->
      let want = Ref.log2_approx a in
      Float.equal want (B.log2_approx (of_mag a))
      && Float.equal want (A.log2_approx (acc_of a)))

(* The word-size test picks gcd's and div_exact's native paths: on
   operands of one to three limbs with a top limb about the 62-bit
   edge, both must agree with the reference Euclid and [div]. *)
let t_word_size_edge () =
  let tops = [ 1; 3; 4; 7; base_mask ] and lows = [ 0; 1; base_mask ] in
  let values =
    [ [| 1 |]; [| 6; 1 |]; [| base_mask; base_mask |] ]
    @ List.concat_map
        (fun top -> List.map (fun low -> [| low; base_mask - low; top |]) lows)
        tops
  in
  List.iter
    (fun a ->
      let x = of_mag a in
      Alcotest.(check bool)
        ("fits " ^ print_mag a)
        (B.num_bits x <= 62) (Ref.mag_fits_int a);
      List.iter
        (fun b ->
          let y = of_mag b and msg = print_mag a ^ ", " ^ print_mag b in
          same ~msg:("gcd " ^ msg)
            (BT.limbs (BT.gcd_euclid x y))
            (BT.limbs (B.gcd x y));
          same ~msg:("div_exact " ^ msg) a
            (BT.limbs (B.div_exact (B.mul x y) y)))
        values)
    values

let t_probes () =
  same ~msg:"of_limbs trims" [| 5 |] (BT.limbs (BT.of_limbs [| 5; 0; 0 |]));
  same ~msg:"zero" [||] (BT.limbs (BT.of_limbs [| 0 |]));
  Alcotest.check_raises "limb out of range"
    (Invalid_argument "Bigint.For_testing.of_limbs: limb out of range")
    (fun () -> ignore (BT.of_limbs [| base_mask + 1 |]))

let suite =
  [
    quick "limbs/of_limbs probes" t_probes;
    prop_compare;
    prop_add;
    prop_sub;
    prop_mul;
    prop_mul_limb;
    quick "mul_int, mul_small by 2^30 - 1 on all-ones limbs"
      t_mul_limb_all_ones;
    prop_shift_right;
    prop_log2;
    quick "gcd, div_exact at the word-size edge" t_word_size_edge;
  ]
