(* SplitMix64 for seeding/splitting + Xoshiro256** as the workhorse.

   The four Xoshiro words sit unboxed in one 32-byte [Bytes] (word [i]
   at byte [8 i], little-endian). An [int64] returned by a function
   that is not inlined is boxed, and [-opaque] builds inline nothing
   across modules, so each draw reads, steps and writes the words
   inside this module and hands back an [int]. *)

type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let splitmix_next state =
  let z = Int64.add !state golden in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let st = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (splitmix_next st)
  done;
  t

let of_int_seed n = create (Int64.of_int n)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The Xoshiro256** transition, returning nothing to box. *)
let advance t =
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 and s3 = Bytes.get_int64_le t 24 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  Bytes.set_int64_le t 0 (Int64.logxor s0 s3);
  Bytes.set_int64_le t 8 (Int64.logxor s1 s2);
  Bytes.set_int64_le t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  Bytes.set_int64_le t 24 (rotl s3 45)

(* The next output, a function of [s1] before the step. *)
let[@inline] scrambled t =
  Int64.mul (rotl (Int64.mul (Bytes.get_int64_le t 8) 5L) 7) 9L

let next_int64 t =
  let r = scrambled t in
  advance t;
  r

(* The next output shifted right by [shift], as an int: its low 63 bits. *)
let bits t shift =
  let r = scrambled t in
  advance t;
  Int64.to_int (Int64.shift_right_logical r shift)

let split t = create (next_int64 t)
let bits62 t = bits t 2

(* Rejection sampling for exact uniformity. A top-level loop: a local
   [let rec] capturing [t] would allocate a closure per call. *)
let rec int_below t bound limit =
  let v = bits t 2 in
  if v < limit then v mod bound else int_below t bound limit

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_below t bound (0x3FFF_FFFF_FFFF_FFFF / bound * bound)

(* Inlined, so [bernoulli] compares an unboxed float. *)
let[@inline] unit_float t = float_of_int (bits t 11) *. 0x1.0p-53

let float t = unit_float t
let bool t = bits t 0 land 1 = 1
let bernoulli t p = unit_float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
