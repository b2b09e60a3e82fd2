(* Arbitrary-precision signed integers, sign-magnitude over base-2^30
   limbs (least-significant first). Magnitudes are normalized: no
   trailing zero limbs, so zero is the empty array and sign 0. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; (* -1, 0, or 1 *) mag : int array }

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Limb kernels.                                                      *)
(* ------------------------------------------------------------------ *)

(* Each limb loop is written once, here, over a limb array and the
   number of its limbs in use. The immutable operations below pass
   whole arrays and build their result in a fresh one; [Acc] passes its
   buffer and [len], and writes in place. A kernel that produces a
   value writes it into a destination its caller has sized, and returns
   the result's length without trailing zero limbs. The callers check
   the lengths, so the inner loops use unsafe accesses: these are the
   hottest loops in the repo (the subset codec's binomial scans and the
   rational gcds run here). *)

(* The length of [r]'s first [n] limbs once trailing zero limbs are
   cut. *)
let trim r n =
  let n = ref n in
  while !n > 0 && Array.unsafe_get r (!n - 1) = 0 do
    decr n
  done;
  !n

(* The sign of [a - b]. A [while] loop: a local recursive function
   would capture both operands in a closure allocated on every call,
   and the Stein gcd compares once per step. *)
let cmp_limbs (a : int array) la (b : int array) lb =
  if la <> lb then compare la lb
  else begin
    let i = ref (la - 1) in
    while !i >= 0 && Array.unsafe_get a !i = Array.unsafe_get b !i do
      decr i
    done;
    if !i < 0 then 0
    else compare (Array.unsafe_get a !i) (Array.unsafe_get b !i)
  end

(* [r <- a + b]. [r] holds [max la lb + 1] limbs and may be [a] or
   [b]. *)
let add_limbs a la b lb r =
  let n = Stdlib.max la lb in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let ai = if i < la then Array.unsafe_get a i else 0 in
    let bi = if i < lb then Array.unsafe_get b i else 0 in
    let s = ai + bi + !carry in
    Array.unsafe_set r i (s land base_mask);
    carry := s lsr base_bits
  done;
  Array.unsafe_set r n !carry;
  trim r (n + 1)

(* [r <- a - b] for [a >= b]. [r] holds [la] limbs and may be [a] or
   [b]. The difference limb is in (-2^30, 2^30): its low 30 bits are
   the result limb either way, and its sign bit (bit 62) the borrow. *)
let sub_limbs a la b lb r =
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then Array.unsafe_get b i else 0 in
    let d = Array.unsafe_get a i - bi - !borrow in
    Array.unsafe_set r i (d land base_mask);
    borrow := d lsr 62
  done;
  assert (!borrow = 0);
  trim r la

(* [r <- a * b], schoolbook: one pass over [b] per nonzero limb of [a].
   [r] holds [la + lb] limbs and is neither operand. *)
let mul_limbs a la b lb r =
  Array.fill r 0 (la + lb) 0;
  for i = 0 to la - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        (* ai * b.(j) < 2^60, plus r and carry stays within 62 bits *)
        let s =
          Array.unsafe_get r (i + j) + (ai * Array.unsafe_get b j) + !carry
        in
        Array.unsafe_set r (i + j) (s land base_mask);
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land base_mask;
        carry := s lsr base_bits;
        incr k
      done
    end
  done;
  trim r (la + lb)

(* [r <- a * m] for one limb [0 <= m < base]. [r] holds [la + 1] limbs
   and may be [a]. *)
let mul_limb_limbs a la m r =
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let s = (Array.unsafe_get a i * m) + !carry in
    Array.unsafe_set r i (s land base_mask);
    carry := s lsr base_bits
  done;
  Array.unsafe_set r la !carry;
  trim r (la + 1)

(* [r <- a / 2^s], [s >= 0]. [r] holds [la - s / base_bits] limbs when
   that is positive, and may be [a]: limb [i] of the result reads limbs
   [i + s / base_bits] and the one above it, never one already
   written. For a whole-limb shift the upper term is [x lsl 30], which
   the mask clears. *)
let shift_right_limbs a la s r =
  let ls = s / base_bits and bs = s mod base_bits in
  if ls >= la then 0
  else begin
    let lr = la - ls in
    for i = 0 to lr - 2 do
      let hi = Array.unsafe_get a (i + ls + 1) lsl (base_bits - bs) in
      Array.unsafe_set r i
        ((Array.unsafe_get a (i + ls) lsr bs) lor (hi land base_mask))
    done;
    Array.unsafe_set r (lr - 1) (Array.unsafe_get a (la - 1) lsr bs);
    trim r lr
  end

(* [log2] of the value in [a]'s first [la] limbs, from its top two:
   exact to within one float ulp, [neg_infinity] for zero. *)
let log2_limbs a la =
  if la = 0 then neg_infinity
  else begin
    let top = float_of_int a.(la - 1) in
    let v =
      if la >= 2 then (top *. float_of_int base) +. float_of_int a.(la - 2)
      else top
    in
    Float.log2 v +. float_of_int (Stdlib.max 0 (la - 2) * base_bits)
  end

(* Whether a normalized value fits 62 bits, in O(1): at most three
   limbs, and a third limb below 4. *)
let fits_int_limbs a la = la < 3 || (la = 3 && a.(2) < 4)

(* ------------------------------------------------------------------ *)
(* Magnitude primitives.                                              *)
(* ------------------------------------------------------------------ *)

(* [r]'s first [n] limbs as a magnitude: [r] itself when that is all of
   it. *)
let take r n = if n = Array.length r then r else Array.sub r 0 n
let normalize mag = take mag (trim mag (Array.length mag))
let mag_is_zero mag = Array.length mag = 0
let cmp_mag a b = cmp_limbs a (Array.length a) b (Array.length b)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (Stdlib.max la lb + 1) 0 in
  take r (add_limbs a la b lb r)

(* Requires a >= b. *)
let sub_mag a b =
  let la = Array.length a in
  let r = Array.make la 0 in
  take r (sub_limbs a la b (Array.length b) r)

let mul_mag_schoolbook a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    take r (mul_limbs a la b lb r)
  end

let mul_mag_int a m =
  (* m must satisfy 0 <= m < base *)
  if m = 0 || mag_is_zero a then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    take r (mul_limb_limbs a la m r)
  end

(* Bit width of one limb [0 <= v < 2^30], by halving its range in five
   steps. *)
let limb_width v =
  let rec go w v s =
    if s = 0 then w + v
    else if v >= 1 lsl s then go (w + s) (v lsr s) (s / 2)
    else go w v (s / 2)
  in
  go 0 v 16

let num_bits_mag a =
  let la = Array.length a in
  if la = 0 then 0 else ((la - 1) * base_bits) + limb_width a.(la - 1)

let shift_left_mag a n =
  if mag_is_zero a || n = 0 then a
  else begin
    let limb_shift = n / base_bits and bit_shift = n mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land base_mask);
      r.(i + limb_shift + 1) <- v lsr base_bits
    done;
    normalize r
  end

let shift_right_mag a n =
  if mag_is_zero a || n = 0 then a
  else begin
    let la = Array.length a in
    let r = Array.make (Stdlib.max 0 (la - (n / base_bits))) 0 in
    take r (shift_right_limbs a la n r)
  end

let testbit_mag a i =
  let limb = i / base_bits and bit = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr bit) land 1 = 1

(* Karatsuba above this limb count; below it the O(n^2) schoolbook loop
   wins on constant factors. The crossover was measured with the
   bigint-mul micro-benchmarks (bench/micro.ml). *)
let karatsuba_threshold = 24

(* Split [x] at limb [m]: low part [x[0..m)], high part [x[m..)], both
   normalized so the magnitude invariants hold for the recursive calls
   (the high part keeps [x]'s nonzero top limb). *)
let split_mag x m =
  let lx = Array.length x in
  if lx <= m then (x, [||])
  else (Array.sub x 0 (trim x m), Array.sub x m (lx - m))

let rec mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else if la < karatsuba_threshold || lb < karatsuba_threshold then
    mul_mag_schoolbook a b
  else begin
    (* a = a1*B^m + a0, b = b1*B^m + b0 with B = 2^base_bits:
       a*b = z2*B^2m + z1*B^m + z0 where z0 = a0*b0, z2 = a1*b1 and
       z1 = (a0+a1)(b0+b1) - z0 - z2 — three recursive multiplies. *)
    let m = (Stdlib.max la lb + 1) / 2 in
    let a0, a1 = split_mag a m and b0, b1 = split_mag b m in
    let z0 = mul_mag a0 b0 in
    let z2 = mul_mag a1 b1 in
    let z1 =
      sub_mag (sub_mag (mul_mag (add_mag a0 a1) (add_mag b0 b1)) z0) z2
    in
    add_mag
      (add_mag z0 (shift_left_mag z1 (m * base_bits)))
      (shift_left_mag z2 (2 * m * base_bits))
  end

(* Fast path: divisor fits in one limb. Word-wise long division,
   O(limbs of a). *)
let div_mod_mag_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (normalize q, !rem)

(* Schoolbook long division on magnitudes, one quotient bit at a time,
   with a fresh shift, add and subtract per bit; single-limb divisors
   take the word-wise fast path. Exact quotients (a rational reduced by
   its gcd) go through [div_exact] instead, which costs one multiply
   pass per quotient limb. *)
let div_mod_mag a b =
  if mag_is_zero b then raise Division_by_zero;
  if Array.length b = 1 then begin
    let q, r = div_mod_mag_small a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else if cmp_mag a b < 0 then ([||], a)
  else begin
    let na = num_bits_mag a in
    let q = Array.make ((na / base_bits) + 1) 0 in
    let rem = ref [||] in
    for i = na - 1 downto 0 do
      let r = shift_left_mag !rem 1 in
      let r = if testbit_mag a i then add_mag r [| 1 |] else r in
      if cmp_mag r b >= 0 then begin
        rem := sub_mag r b;
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
      else rem := r
    done;
    (normalize q, !rem)
  end

(* ------------------------------------------------------------------ *)
(* Signed layer.                                                      *)
(* ------------------------------------------------------------------ *)

let make sign mag =
  let mag = normalize mag in
  if mag_is_zero mag then zero else { sign; mag }

(* Limbs straight from the word: [max_int] is 2^62 - 1, three limbs at
   most, and [min_int]'s magnitude 2^62 is the one value whose [abs]
   overflows. *)
let of_int n =
  if n = 0 then zero
  else if n = Stdlib.min_int then { sign = -1; mag = [| 0; 0; 4 |] }
  else begin
    let sign = if n < 0 then -1 else 1 and m = Stdlib.abs n in
    if m < base then { sign; mag = [| m |] }
    else if m lsr base_bits < base then
      { sign; mag = [| m land base_mask; m lsr base_bits |] }
    else
      {
        sign;
        mag =
          [| m land base_mask;
             (m lsr base_bits) land base_mask;
             m lsr (2 * base_bits) |];
      }
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let sign x = x.sign
let is_zero x = x.sign = 0
let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (add_mag a.mag b.mag)
  else begin
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (sub_mag a.mag b.mag)
    else make b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mul_mag a.mag b.mag)

let mul_int a m =
  if m = 0 || a.sign = 0 then zero
  else if m > -base && m < base then
    make (a.sign * if m < 0 then -1 else 1) (mul_mag_int a.mag (Stdlib.abs m))
  else mul a (of_int m)

let div_mod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = div_mod_mag a.mag b.mag in
  let q = make (a.sign * b.sign) q in
  let r = make a.sign r in
  (q, r)

let div a b = fst (div_mod a b)
let rem a b = snd (div_mod a b)

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc base n =
    if n = 0 then acc
    else
      let acc = if n land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (n lsr 1)
  in
  go one x n

let shift_left x n =
  if n < 0 then invalid_arg "Bigint.shift_left";
  if x.sign = 0 then zero else make x.sign (shift_left_mag x.mag n)

let shift_right x n =
  if n < 0 then invalid_arg "Bigint.shift_right";
  if x.sign = 0 then zero else make x.sign (shift_right_mag x.mag n)

(* Trailing zero bits of a non-empty magnitude. *)
let ctz_mag a =
  let i = ref 0 in
  while a.(!i) = 0 do
    incr i
  done;
  let rec tz v acc = if v land 1 = 1 then acc else tz (v lsr 1) (acc + 1) in
  (!i * base_bits) + tz a.(!i) 0

let rec int_gcd a b = if b = 0 then a else int_gcd b (a mod b)

(* The word-size test of gcd's and div_exact's native paths. *)
let mag_fits_int mag = fits_int_limbs mag (Array.length mag)

let mag_to_int mag =
  let v = ref 0 in
  for i = Array.length mag - 1 downto 0 do
    v := (!v lsl base_bits) lor mag.(i)
  done;
  !v

let num_bits x = num_bits_mag x.mag
let testbit x i = testbit_mag x.mag i

let to_int_opt x =
  if num_bits x <= 62 then begin
    let v = Array.fold_right (fun limb acc -> (acc * base) + limb) x.mag 0 in
    Some (if x.sign < 0 then -v else v)
  end
  else if
    (* min_int itself: magnitude 2^62 with negative sign *)
    x.sign < 0 && num_bits x = 63 && equal (neg x) (shift_left one 62)
  then Some Stdlib.min_int
  else None

let to_int_exn x =
  match to_int_opt x with
  | Some n -> n
  | None -> invalid_arg "Bigint.to_int_exn: out of range"

let log2_approx x = log2_limbs x.mag (Array.length x.mag)

let to_float x =
  let f =
    Array.fold_right
      (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb)
      x.mag 0.
  in
  if x.sign < 0 then -.f else f

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty string";
  let neg_sign = s.[0] = '-' in
  let start = if neg_sign || s.[0] = '+' then 1 else 0 in
  if start >= n then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
    acc := add (mul_int !acc 10) (of_int (Char.code c - Char.code '0'))
  done;
  if neg_sign then neg !acc else !acc

let to_string x =
  if x.sign = 0 then "0"
  else begin
    (* Peel 9 decimal digits at a time. *)
    let chunk = of_int 1_000_000_000 in
    let buf = Buffer.create 32 in
    let rec go v acc =
      if is_zero v then acc
      else
        let q, r = div_mod v chunk in
        go q (to_int_exn r :: acc)
    in
    match go (abs x) [] with
    | [] -> "0"
    | first :: rest ->
        if x.sign < 0 then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int first);
        List.iter (fun d -> Buffer.add_string buf (Printf.sprintf "%09d" d)) rest;
        Buffer.contents buf
  end

let factorial n =
  if n < 0 then invalid_arg "Bigint.factorial";
  let rec go acc i = if i > n then acc else go (mul_int acc i) (i + 1) in
  go one 2

let binomial n k =
  if k < 0 || k > n then zero
  else begin
    (* Iterative exact form: C <- C * (n - i) / (i + 1); each step stays
       integral, each divisor is a single limb. *)
    let k = Stdlib.min k (n - k) in
    let c = ref one in
    for i = 0 to k - 1 do
      c := div (mul_int !c (n - i)) (of_int (i + 1))
    done;
    !c
  end

(* ------------------------------------------------------------------ *)
(* Mutable magnitude accumulator.                                     *)
(* ------------------------------------------------------------------ *)

module Acc = struct
  (* A non-negative integer held in a growable limb buffer, mutated in
     place, so a loop of arithmetic steps allocates nothing per step.
     Two kinds of loop use it: the running-binomial scans in the subset
     codec (each step multiplies by one small factor and exactly
     divides by another), and [div_exact] and [gcd] below, which run
     the Jebelean exact division and the Stein loop on private copies
     of their operands. *)
  type acc = { mutable mag : int array; mutable len : int }
  (* Invariant: limbs [0, len) hold the value LSB-first with no
     trailing zero limb ([len = 0] is zero); limbs at or beyond [len]
     may be garbage. *)

  let ensure a n =
    if n > Array.length a.mag then begin
      let cap = ref (Stdlib.max 8 (Array.length a.mag)) in
      while !cap < n do
        cap := !cap * 2
      done;
      let fresh = Array.make !cap 0 in
      Array.blit a.mag 0 fresh 0 a.len;
      a.mag <- fresh
    end

  let create () = { mag = Array.make 8 0; len = 0 }

  let set_int a v =
    if v < 0 then invalid_arg "Bigint.Acc.set_int: negative";
    a.len <- 0;
    let v = ref v in
    while !v <> 0 do
      ensure a (a.len + 1);
      a.mag.(a.len) <- !v land base_mask;
      a.len <- a.len + 1;
      v := !v lsr base_bits
    done

  let set_t a (x : t) =
    if x.sign < 0 then invalid_arg "Bigint.Acc.set_t: negative";
    let n = Array.length x.mag in
    ensure a n;
    Array.blit x.mag 0 a.mag 0 n;
    a.len <- n

  let of_t x =
    let a = create () in
    set_t a x;
    a

  let to_t a = make 1 (Array.sub a.mag 0 a.len)
  let is_zero a = a.len = 0

  let mul_small a m =
    if m < 0 || m >= base then invalid_arg "Bigint.Acc.mul_small: range";
    if m = 0 then a.len <- 0
    else if a.len > 0 then begin
      ensure a (a.len + 1);
      a.len <- mul_limb_limbs a.mag a.len m a.mag
    end

  (* Exact division runs LSB-first a la Jebelean: multiply each
     residual limb by the precomputed inverse of the (odd part of the)
     divisor mod 2^30 — two multiplies per limb instead of a hardware
     divide, which is what the subset-codec scans spend their time
     on. Powers of two come out first as an in-place right shift. *)

  let inv_mod_base d =
    (* Newton lifting: x_{k+1} = x(2 - dx) doubles correct low bits;
       seed d is its own inverse mod 8, four rounds reach 2^48 > base. *)
    let x = ref d in
    for _ = 1 to 4 do
      x := !x * (2 - (d * !x)) land base_mask
    done;
    !x land base_mask

  let shift_right_exact a s =
    if s > 0 && a.len > 0 then begin
      (* The limbs below [ls] and the low bits of limb [ls] must be zero;
         a nonzero value has none left once [ls] reaches [len]. *)
      let ls = s / base_bits in
      if
        ls >= a.len
        || trim a.mag ls > 0
        || a.mag.(ls) land ((1 lsl (s mod base_bits)) - 1) <> 0
      then invalid_arg "Bigint.Acc.shift_right_exact: not divisible";
      a.len <- shift_right_limbs a.mag a.len s a.mag
    end

  let div_exact_small a d =
    if d <= 0 || d >= base then invalid_arg "Bigint.Acc.div_exact_small: range";
    let s = ref 0 and d_odd = ref d in
    while !d_odd land 1 = 0 do
      d_odd := !d_odd lsr 1;
      incr s
    done;
    if !s > 0 && a.len > 0 && a.mag.(0) land ((1 lsl !s) - 1) <> 0 then
      invalid_arg "Bigint.Acc.div_exact_small: not divisible";
    shift_right_exact a !s;
    let d = !d_odd in
    if d > 1 then begin
      let inv = inv_mod_base d in
      let am = a.mag in
      let carry = ref 0 in
      for i = 0 to a.len - 1 do
        let cur = Array.unsafe_get am i - !carry in
        let q = cur * inv land base_mask in
        Array.unsafe_set am i q;
        (* (q * d - cur) is a non-negative multiple of 2^30 *)
        carry := ((q * d) - cur) lsr base_bits
      done;
      if !carry <> 0 then
        invalid_arg "Bigint.Acc.div_exact_small: not divisible";
      a.len <- trim am a.len
    end

  let compare_t a (x : t) =
    if x.sign < 0 then 1 else cmp_limbs a.mag a.len x.mag (Array.length x.mag)

  (* ---------------------------------------------------------------- *)
  (* Multi-limb extensions: one multiply and one exact division per   *)
  (* factor *chunk* in the subset-codec scans, instead of per factor. *)
  (* ---------------------------------------------------------------- *)

  let compare_acc a b = cmp_limbs a.mag a.len b.mag b.len

  let add_acc a b =
    ensure a (Stdlib.max a.len b.len + 1);
    a.len <- add_limbs a.mag a.len b.mag b.len a.mag

  let sub_acc a b =
    if compare_acc a b < 0 then invalid_arg "Bigint.Acc.sub_acc: negative";
    a.len <- sub_limbs a.mag a.len b.mag b.len a.mag

  let mul_acc ~scratch a p =
    if scratch == a || scratch == p then
      invalid_arg "Bigint.Acc.mul_acc: scratch aliases an operand";
    if p.len = 0 then a.len <- 0
    else if a.len <> 0 then begin
      ensure scratch (a.len + p.len);
      let am = a.mag in
      a.len <- mul_limbs p.mag p.len am a.len scratch.mag;
      (* Swap buffers: the product becomes [a], [a]'s old buffer becomes
         the scratch for the next call. *)
      a.mag <- scratch.mag;
      scratch.mag <- am;
      scratch.len <- 0
    end

  let div_exact_acc a d =
    if d.len = 0 then raise Division_by_zero;
    if d.mag.(0) land 1 = 0 then
      invalid_arg "Bigint.Acc.div_exact_acc: even divisor";
    if a.len <> 0 then begin
      if d.len = 1 then div_exact_small a d.mag.(0)
      else begin
        let la = a.len and ld = d.len in
        if la < ld then invalid_arg "Bigint.Acc.div_exact_acc: not divisible";
        let inv = inv_mod_base d.mag.(0) in
        let lq = la - ld + 1 in
        let am = a.mag and dm = d.mag in
        (* Jebelean exact division, LSB-first: each quotient limb is the
           residual's low limb times the divisor's inverse mod 2^30; the
           subtraction of [q * d] clears that limb exactly, so the
           quotient can be stored in place as the residual shrinks. *)
        for i = 0 to lq - 1 do
          let cur = Array.unsafe_get am i in
          let q = cur * inv land base_mask in
          if q <> 0 then begin
            let borrow = ref 0 in
            for t = 0 to ld - 1 do
              let s = (q * Array.unsafe_get dm t) + !borrow in
              (* Branchless borrow: [diff] is in (-2^30, 2^30), so its
                 low 30 bits are the limb either way and bit 62 (the
                 sign, after [lsr]) is the extra borrow. *)
              let diff = Array.unsafe_get am (i + t) - (s land base_mask) in
              Array.unsafe_set am (i + t) (diff land base_mask);
              borrow := (s lsr base_bits) + (diff lsr 62)
            done;
            let t = ref (i + ld) in
            while !borrow <> 0 do
              if !t >= la then
                invalid_arg "Bigint.Acc.div_exact_acc: not divisible";
              let diff = am.(!t) - (!borrow land base_mask) in
              am.(!t) <- diff land base_mask;
              borrow := (!borrow lsr base_bits) + (diff lsr 62);
              incr t
            done
          end;
          Array.unsafe_set am i q
        done;
        if trim am la > lq then
          invalid_arg "Bigint.Acc.div_exact_acc: not divisible";
        a.len <- trim am lq
      end
    end

  let log2_approx a = log2_limbs a.mag a.len
end

(* ------------------------------------------------------------------ *)
(* Exact division and GCD, in place on accumulators.                  *)
(* ------------------------------------------------------------------ *)

(* A private accumulator over a copy of a non-empty magnitude. The
   kernels below only shrink it, so the buffer is never regrown and
   [acc_mag] can hand it back without a copy when nothing was cut. *)
let acc_of_mag m = { Acc.mag = Array.copy m; len = Array.length m }

let acc_mag (x : Acc.acc) = take x.mag x.len

let div_exact a d =
  if d.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then zero
  else if mag_fits_int a.mag && mag_fits_int d.mag then begin
    (* word-size operands divide natively *)
    let x = mag_to_int a.mag and y = mag_to_int d.mag in
    let q = x / y in
    if q * y <> x then invalid_arg "Bigint.div_exact: not divisible";
    of_int (a.sign * d.sign * q)
  end
  else begin
    (* The power of two in [d] comes out as a shift, the odd part by
       the Jebelean kernel: one multiply pass per quotient limb. *)
    let q = acc_of_mag a.mag and s = ctz_mag d.mag in
    (try
       Acc.shift_right_exact q s;
       let odd = shift_right_mag d.mag s in
       if Array.length odd = 1 then Acc.div_exact_small q odd.(0)
       else Acc.div_exact_acc q { Acc.mag = odd; len = Array.length odd }
     with Invalid_argument _ -> invalid_arg "Bigint.div_exact: not divisible");
    make (a.sign * d.sign) (acc_mag q)
  end


(* [a mod d] for a one-limb [d]: one pass over [a]'s limbs, high to
   low, without building the quotient. *)
let rem_mag_small a d =
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    r := ((!r lsl base_bits) lor a.(i)) mod d
  done;
  !r

(* Binary (Stein) GCD. Euclid over [div_mod] would peel one quotient
   bit per iteration on multi-limb operands; here every iteration is a
   compare, a subtract and a trailing-zero shift, in place on two
   accumulators, so no step allocates. Word-size operands drop to
   native-int Euclid, on entry and as soon as the loop reaches them;
   so does a one-limb operand, after one remainder pass over the other
   (where Stein would take a step per bit of the longer one). *)
let gcd a b =
  let a = a.mag and b = b.mag in
  if mag_is_zero a then make 1 b
  else if mag_is_zero b then make 1 a
  else if mag_fits_int a && mag_fits_int b then
    of_int (int_gcd (mag_to_int a) (mag_to_int b))
  else if Array.length b = 1 then of_int (int_gcd b.(0) (rem_mag_small a b.(0)))
  else if Array.length a = 1 then of_int (int_gcd a.(0) (rem_mag_small b a.(0)))
  else begin
    let za = ctz_mag a and zb = ctz_mag b in
    let x = acc_of_mag a and y = acc_of_mag b in
    Acc.shift_right_exact x za;
    Acc.shift_right_exact y zb;
    (* both odd from here on; the loop keeps them odd *)
    let rec loop (x : Acc.acc) (y : Acc.acc) =
      if fits_int_limbs x.mag x.len && fits_int_limbs y.mag y.len then
        (of_int (int_gcd (mag_to_int (acc_mag x)) (mag_to_int (acc_mag y)))).mag
      else
        let c = Acc.compare_acc x y in
        if c = 0 then acc_mag x
        else if c > 0 then step x y
        else step y x
    and step x y =
      (* x > y, both odd: x - y is positive and even *)
      Acc.sub_acc x y;
      Acc.shift_right_exact x (ctz_mag x.Acc.mag);
      loop x y
    in
    make 1 (shift_left_mag (loop x y) (Stdlib.min za zb))
  end

let gcd_int x m =
  if m <= 0 || m >= base then invalid_arg "Bigint.gcd_int: range";
  int_gcd m (rem_mag_small x.mag m)

let binomial_acc n k =
  (* Same iteration as {!binomial}, on an in-place accumulator: two
     allocations total instead of two per step. *)
  if k < 0 || k > n then zero
  else begin
    let k = Stdlib.min k (n - k) in
    let a = Acc.create () in
    Acc.set_int a 1;
    for i = 0 to k - 1 do
      Acc.mul_small a (n - i);
      Acc.div_exact_small a (i + 1)
    done;
    Acc.to_t a
  end

let binomial_reference = binomial

let binomial n k =
  (* Factors stay single-limb whenever [n < base], which covers every
     caller in this repo; the immutable iteration handles the rest. *)
  if n < base then binomial_acc n k else binomial_reference n k

module For_testing = struct
  let karatsuba_threshold = karatsuba_threshold

  let binomial_iter = binomial_reference

  let mul_schoolbook a b =
    if a.sign = 0 || b.sign = 0 then zero
    else make (a.sign * b.sign) (mul_mag_schoolbook a.mag b.mag)

  let rec gcd_euclid a b =
    let a = abs a and b = abs b in
    if is_zero b then a else gcd_euclid b (rem a b)

  let of_limb_count n =
    (* smallest magnitude with exactly [n] limbs: 2^((n-1)*base_bits) *)
    if n <= 0 then zero else shift_left one ((n - 1) * base_bits)

  let limb_count x = Array.length x.mag
  let limbs x = Array.copy x.mag

  let of_limbs l =
    if Array.exists (fun v -> v < 0 || v >= base) l then
      invalid_arg "Bigint.For_testing.of_limbs: limb out of range";
    make 1 (Array.copy l)
end
