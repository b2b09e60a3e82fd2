(** Reference limb loops for {!Exact.Bigint}: its immutable magnitude
    operations as written before they and {!Exact.Bigint.Acc} shared one
    loop per operation, kept as the straightforward versions both
    layers are held equal to (test_bigint_diff). A magnitude is an
    array of base-2{^30} limbs, least significant first, with no
    trailing zero limb; each operation returns a fresh one (or an
    operand unchanged). *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

let normalize mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let t = top (n - 1) in
  if t = n - 1 then mag else Array.sub mag 0 (t + 1)

let mag_is_zero mag = Array.length mag = 0

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let ai = if i < la then a.(i) else 0 in
    let bi = if i < lb then b.(i) else 0 in
    let s = ai + bi + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r.(n) <- !carry;
  normalize r

(* Requires a >= b. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let ai = a.(i) in
    let bi = if i < lb then b.(i) else 0 in
    let d = ai - bi - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let mul_mag_schoolbook a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        (* ai * b.(j) < 2^60, plus r and carry stays within 62 bits *)
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land base_mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land base_mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    normalize r
  end

let mul_mag_int a m =
  (* m must satisfy 0 <= m < base *)
  if m = 0 || mag_is_zero a then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s = (a.(i) * m) + !carry in
      r.(i) <- s land base_mask;
      carry := s lsr base_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let shift_right_mag a n =
  if mag_is_zero a || n = 0 then a
  else begin
    let limb_shift = n / base_bits and bit_shift = n mod base_bits in
    let la = Array.length a in
    if limb_shift >= la then [||]
    else begin
      let lr = la - limb_shift in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land base_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

let log2_approx mag =
  let l = Array.length mag in
  if l = 0 then neg_infinity
  else begin
    let top = float_of_int mag.(l - 1) in
    let v =
      if l >= 2 then (top *. float_of_int base) +. float_of_int mag.(l - 2)
      else top
    in
    Float.log2 v +. float_of_int (max 0 (l - 2) * base_bits)
  end

let mag_fits_int mag =
  let l = Array.length mag in
  l < 3 || (l = 3 && mag.(2) < 4)
