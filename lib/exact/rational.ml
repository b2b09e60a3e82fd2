(* Exact rationals with a small-word fast path.

   Representation invariant (canonical form):
   - [S { n; d }]: [d > 0], [gcd (|n|, d) = 1], and both [|n|] and [d]
     are at most [small_max]. All arithmetic on two [S] values runs in
     native ints: with operands bounded by [small_max] = 2^30 - 1,
     cross products are < 2^60 and sums of two such products are
     < 2^61, comfortably inside OCaml's 63-bit [int] — no overflow
     checks are needed on the fast path, only a bounds check on the
     reduced result.
   - [B { num; den }]: canonical bigint pair ([den > 0],
     [gcd (num, den) = 1]) whose value does NOT fit the [S] bounds.

   Because demotion to [S] happens in every constructor, a value has
   exactly one representation: structural equality of representations
   coincides with numeric equality, so [equal] is O(1) on the fast path
   and values stored inside distributions keep working with the
   polymorphic hashing used by {!Prob.Dist_core}. *)

type t =
  | S of { n : int; d : int }
  | B of { num : Bigint.t; den : Bigint.t }

let small_max = (1 lsl 30) - 1

let rec int_gcd a b = if b = 0 then a else int_gcd b (a mod b)

(* [n], [d] any ints with [d > 0] and no overflow concerns; reduces and
   picks the representation. *)
let make_reduced n d =
  let g = int_gcd (if n < 0 then -n else n) d in
  let n = n / g and d = d / g in
  if n >= -small_max && n <= small_max && d <= small_max then S { n; d }
  else B { num = Bigint.of_int n; den = Bigint.of_int d }

(* Canonical [B] from an already-reduced bigint pair, demoting when the
   value fits the small bounds. *)
let demote num den =
  match (Bigint.to_int_opt num, Bigint.to_int_opt den) with
  | Some n, Some d when n >= -small_max && n <= small_max && d <= small_max ->
      S { n; d }
  | _ -> B { num; den }

let canonical num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then S { n = 0; d = 1 }
  else begin
    let num, den =
      if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den)
      else (num, den)
    in
    let g = Bigint.gcd num den in
    if Bigint.equal g Bigint.one then demote num den
    else demote (Bigint.div_exact num g) (Bigint.div_exact den g)
  end

let make = canonical
let zero = S { n = 0; d = 1 }
let one = S { n = 1; d = 1 }
let half = S { n = 1; d = 2 }

let of_int n =
  if n >= -small_max && n <= small_max then S { n; d = 1 }
  else B { num = Bigint.of_int n; den = Bigint.one }

let of_ints a b =
  if b = 0 then raise Division_by_zero;
  if a = 0 then zero
    (* min_int would overflow the negations below; route through bigints *)
  else if a = Stdlib.min_int || b = Stdlib.min_int then
    canonical (Bigint.of_int a) (Bigint.of_int b)
  else begin
    let a, b = if b < 0 then (-a, -b) else (a, b) in
    let g = int_gcd (if a < 0 then -a else a) b in
    let a = a / g and b = b / g in
    if a >= -small_max && a <= small_max && b <= small_max then
      S { n = a; d = b }
    else B { num = Bigint.of_int a; den = Bigint.of_int b }
  end

let of_bigint n = demote n Bigint.one
let num = function S { n; _ } -> Bigint.of_int n | B { num; _ } -> num
let den = function S { d; _ } -> Bigint.of_int d | B { den; _ } -> den

let parts x ~word ~big =
  match x with S { n; d } -> word n d | B { num; den } -> big num den

let to_float = function
  | S { n; d } ->
      (* |n|, d <= 2^30 < 2^53: both conversions and the division are
         exactly the floats the bigint path would produce *)
      float_of_int n /. float_of_int d
  | B { num; den } ->
      let bn = Bigint.num_bits num and bd = Bigint.num_bits den in
      if bn < 1024 && bd < 1024 then Bigint.to_float num /. Bigint.to_float den
      else begin
        (* A side of 1024 bits or more is [infinity] as a float: divide
           the top 62 bits of each side and scale by the bits dropped. *)
        let drop_n = Stdlib.max 0 (bn - 62) and drop_d = Stdlib.max 0 (bd - 62) in
        Float.ldexp
          (Bigint.to_float (Bigint.shift_right num drop_n)
          /. Bigint.to_float (Bigint.shift_right den drop_d))
          (drop_n - drop_d)
      end

let of_float_dyadic f =
  if not (Float.is_finite f) then invalid_arg "Rational.of_float_dyadic";
  let mantissa, exponent = Float.frexp f in
  (* mantissa * 2^53 is an exact integer below 2^53 in magnitude *)
  let mi = Bigint.of_int (Float.to_int (mantissa *. 0x1p53)) in
  let e = exponent - 53 in
  if e >= 0 then canonical (Bigint.shift_left mi e) Bigint.one
  else canonical mi (Bigint.shift_left Bigint.one (-e))

let to_string = function
  | S { n; d } ->
      if d = 1 then string_of_int n
      else string_of_int n ^ "/" ^ string_of_int d
  | B { num; den } ->
      if Bigint.equal den Bigint.one then Bigint.to_string num
      else Bigint.to_string num ^ "/" ^ Bigint.to_string den

let pp fmt x = Format.pp_print_string fmt (to_string x)

let compare a b =
  match (a, b) with
  | S a, S b -> Stdlib.compare (a.n * b.d) (b.n * a.d)
  | _ ->
      Bigint.compare (Bigint.mul (num a) (den b)) (Bigint.mul (num b) (den a))

(* Canonical representations make equality structural: an [S] value
   never equals a [B] value. *)
let equal a b =
  match (a, b) with
  | S a, S b -> a.n = b.n && a.d = b.d
  | B a, B b -> Bigint.equal a.num b.num && Bigint.equal a.den b.den
  | S _, B _ | B _, S _ -> false

let sign = function S { n; _ } -> Stdlib.compare n 0 | B { num; _ } -> Bigint.sign num
let is_zero = function S { n = 0; _ } -> true | _ -> false
let is_one = function S { n = 1; d = 1 } -> true | _ -> false
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg = function
  | S { n; d } -> S { n = -n; d }
  | B { num; den } -> B { num = Bigint.neg num; den }

let abs x = if sign x < 0 then neg x else x

let inv = function
  | S { n = 0; _ } -> raise Division_by_zero
  | S { n; d } -> if n < 0 then S { n = -d; d = -n } else S { n = d; d = n }
  | B { num; den } ->
      if Bigint.sign num < 0 then
        B { num = Bigint.neg den; den = Bigint.neg num }
      else B { num = den; den = num }

(* [x / g] for a [g] known to divide [x]; most cross gcds are one. *)
let div_by x g = if Bigint.equal g Bigint.one then x else Bigint.div_exact x g
let div_by_int x g = if g = 1 then x else Bigint.div_exact x (Bigint.of_int g)

(* Sums and products with a bigint operand reduce before they multiply
   (Henrici), so no result needs a gcd over a full product; a small
   operand stays in native ints, and its gcds take one pass over the
   bigint. *)
let add a b =
  match (a, b) with
  | S a, S b ->
      (* cross products < 2^60 each, sum < 2^61: no overflow *)
      make_reduced ((a.n * b.d) + (b.n * a.d)) (a.d * b.d)
  | S { n = 0; _ }, x | x, S { n = 0; _ } -> x
  | B { num; den }, S { n; d } | S { n; d }, B { num; den } ->
      (* the [B, B] case below with a one-limb denominator [d] *)
      let g = Bigint.gcd_int den d in
      let den' = div_by_int den g in
      let t = Bigint.add (Bigint.mul_int num (d / g)) (Bigint.mul_int den' n) in
      if Bigint.is_zero t then zero
      else if g = 1 then demote t (Bigint.mul_int den d)
      else
        let g2 = Bigint.gcd_int t g in
        demote (div_by_int t g2) (Bigint.mul_int den' (d / g2))
  | B a, B b ->
      (* With g = gcd (ad, bd), the sum is t / ((ad/g) bd) for
         t = an (bd/g) + bn (ad/g), and t is coprime to ad/g and bd/g:
         only gcd (t, g) can be left to cancel. *)
      let g = Bigint.gcd a.den b.den in
      let ad' = div_by a.den g in
      let t =
        Bigint.add (Bigint.mul a.num (div_by b.den g)) (Bigint.mul b.num ad')
      in
      if Bigint.is_zero t then zero
      else if Bigint.equal g Bigint.one then demote t (Bigint.mul a.den b.den)
      else
        let g2 = Bigint.gcd t g in
        demote (div_by t g2) (Bigint.mul ad' (div_by b.den g2))

let sub a b = add a (neg b)

(* Each numerator cancels against the other denominator first, which
   leaves the two products coprime. *)
let mul a b =
  match (a, b) with
  | S { n = 0; _ }, _ | _, S { n = 0; _ } -> zero
  | S a, S b ->
      let g1 = int_gcd (if a.n < 0 then -a.n else a.n) b.d in
      let g2 = int_gcd (if b.n < 0 then -b.n else b.n) a.d in
      let n = a.n / g1 * (b.n / g2) and d = a.d / g2 * (b.d / g1) in
      if n >= -small_max && n <= small_max && d <= small_max then S { n; d }
      else B { num = Bigint.of_int n; den = Bigint.of_int d }
  | S { n; d }, B { num; den } | B { num; den }, S { n; d } ->
      let g1 = Bigint.gcd_int den (Stdlib.abs n)
      and g2 = Bigint.gcd_int num d in
      demote
        (Bigint.mul_int (div_by_int num g2) (n / g1))
        (Bigint.mul_int (div_by_int den g1) (d / g2))
  | B a, B b ->
      let g1 = Bigint.gcd a.num b.den and g2 = Bigint.gcd b.num a.den in
      demote
        (Bigint.mul (div_by a.num g1) (div_by b.num g2))
        (Bigint.mul (div_by a.den g2) (div_by b.den g1))

let div a b = mul a (inv b)

let mul_int x m =
  match x with
  | S { n; d } when m >= -small_max && m <= small_max ->
      let g = int_gcd (if m < 0 then -m else m) d in
      make_reduced (n * (m / g)) (d / g)
  | _ -> canonical (Bigint.mul_int (num x) m) (den x)

let div_int x n =
  if n = 0 then raise Division_by_zero;
  match x with
  | S { n = a; d } when n >= -small_max && n <= small_max ->
      let m, a = if n < 0 then (-n, -a) else (n, a) in
      let g = int_gcd (if a < 0 then -a else a) m in
      make_reduced (a / g) (d * (m / g))
  | _ -> canonical (num x) (Bigint.mul_int (den x) n)

let pow x n =
  (* coprime pairs stay coprime under powers, so no re-reduction *)
  let xn = num x and xd = den x in
  if n >= 0 then demote (Bigint.pow xn n) (Bigint.pow xd n)
  else begin
    if is_zero x then raise Division_by_zero;
    let num = Bigint.pow xd (-n) and den = Bigint.pow xn (-n) in
    if Bigint.sign den < 0 then demote (Bigint.neg num) (Bigint.neg den)
    else demote num den
  end

let sum xs = List.fold_left add zero xs

(* log2 of a Bigint that may exceed float range: split off high bits. *)
let log2_bigint n =
  let bits = Bigint.num_bits n in
  if bits <= 900 then Float.log2 (Bigint.to_float n)
  else
    let shift = bits - 60 in
    let top = Bigint.to_float (Bigint.shift_right n shift) in
    Float.log2 top +. float_of_int shift

let log2 x =
  if sign x <= 0 then invalid_arg "Rational.log2: non-positive";
  log2_bigint (num x) -. log2_bigint (den x)

module For_testing = struct
  let small_max = small_max
  let is_small = function S _ -> true | B _ -> false

  (* Same value, forced onto the bigint representation. Breaks the
     canonical-representation invariant — in particular [equal] against
     the small form of the same value returns false; differential tests
     must compare values with [compare]. Any arithmetic on the result
     re-canonicalizes. *)
  let force_big = function
    | S { n; d } -> B { num = Bigint.of_int n; den = Bigint.of_int d }
    | B _ as x -> x

  (* The canonical forms of the full products, reduced afterwards. *)
  let add_ref a b =
    match (a, b) with
    | S a, S b -> make_reduced ((a.n * b.d) + (b.n * a.d)) (a.d * b.d)
    | _ ->
        canonical
          (Bigint.add (Bigint.mul (num a) (den b)) (Bigint.mul (num b) (den a)))
          (Bigint.mul (den a) (den b))

  let mul_ref a b =
    match (a, b) with
    | S { n = 0; _ }, _ | _, S { n = 0; _ } -> zero
    | S _, S _ -> mul a b
    | _ -> canonical (Bigint.mul (num a) (num b)) (Bigint.mul (den a) (den b))

  let div_ref a b = mul_ref a (inv b)
end
