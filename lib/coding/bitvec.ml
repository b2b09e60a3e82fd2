type t = { data : Bytes.t; len : int }

(* Representation invariants:
   - [data] holds bit [i] at byte [i/8], bit position [i mod 8]
     (LSB-first within a byte), the same layout as [Bitbuf.Writer];
   - [Bytes.length data >= (len + 7) / 8] — the buffer may be longer
     than needed (a frozen writer hands over its whole backing store);
   - every bit at index [>= len] inside the first [(len + 7) / 8] bytes
     is zero, so [equal] can compare raw bytes. *)

let empty = { data = Bytes.empty; len = 0 }
let length t = t.len
let bytes_needed bits = (bits + 7) lsr 3

let unsafe_get t i =
  Char.code (Bytes.unsafe_get t.data (i lsr 3)) lsr (i land 7) land 1 = 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec.get: index out of bounds";
  unsafe_get t i

let unsafe_data t = t.data

let unsafe_of_bytes data ~len =
  if len < 0 || bytes_needed len > Bytes.length data then
    invalid_arg "Bitvec.unsafe_of_bytes: bad length";
  { data; len }

(* ------------------------------------------------------------------ *)
(* Whole-word access.                                                  *)
(*                                                                     *)
(* 56-bit words (seven bytes) are the widest window that a single      *)
(* unaligned [Bytes.get_int64_le] can serve while the result — and     *)
(* every shifted intermediate — still fits OCaml's 63-bit native int.  *)
(* Bit [i] of [word_at t w] is bit [56*w + i] of the vector, matching  *)
(* the LSB-first byte layout, so whole-word consumers (the bit-sliced  *)
(* VM, the trivial-protocol intersection) see the same bit order as    *)
(* [get].                                                              *)
(* ------------------------------------------------------------------ *)

let word_bits = 56
let word_mask = (1 lsl word_bits) - 1
let word_count t = (t.len + word_bits - 1) / word_bits

let word_at t w =
  let bit = w * word_bits in
  if w < 0 || bit >= t.len then invalid_arg "Bitvec.word_at: out of bounds";
  let byte = w * 7 in
  let raw =
    if byte + 8 <= Bytes.length t.data then
      (* One unaligned load; [Int64.to_int] keeps the low 63 bits and
         the mask below keeps 56, so the dropped sign bit is harmless. *)
      Int64.to_int (Bytes.get_int64_le t.data byte) land word_mask
    else begin
      (* Tail of the buffer: gather the in-range bytes. *)
      let hi = Stdlib.min 7 (Bytes.length t.data - byte) in
      let u = ref 0 in
      for i = hi - 1 downto 0 do
        u := (!u lsl 8) lor Char.code (Bytes.unsafe_get t.data (byte + i))
      done;
      !u
    end
  in
  (* Zero-pad past [len]: bytes beyond [bytes_needed len] are not
     governed by the trailing-zero invariant. *)
  let live = t.len - bit in
  if live >= word_bits then raw else raw land ((1 lsl live) - 1)

(* OR [len] bits of [src] starting at bit [spos] into [dst] starting at
   bit [dpos]. The destination bits must currently be zero (the callers
   below always blit into fresh zeroed buffers). Works a byte at a time:
   gather eight source bits (from at most two source bytes), scatter
   them into at most two destination bytes. The fully byte-aligned case
   drops to [Bytes.blit]. *)
let unsafe_blit src spos dst dpos len =
  if len > 0 then
    if spos land 7 = 0 && dpos land 7 = 0 then begin
      let full = len lsr 3 in
      Bytes.blit src (spos lsr 3) dst (dpos lsr 3) full;
      let rem = len land 7 in
      if rem > 0 then begin
        let u =
          Char.code (Bytes.unsafe_get src ((spos lsr 3) + full))
          land ((1 lsl rem) - 1)
        in
        let db = (dpos lsr 3) + full in
        Bytes.unsafe_set dst db
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst db) lor u))
      end
    end
    else begin
      let srclen = Bytes.length src in
      let dstlen = Bytes.length dst in
      let i = ref 0 in
      (* Whole-word path: 48 bits per iteration via unaligned 8-byte
         loads/stores. 48 = the widest chunk whose shifted image
         [u lsl d_o] (d_o <= 7) still fits a native int. Falls back to
         the byte loop when either 8-byte window would run off a
         buffer, and for the sub-word tail. *)
      while
        len - !i >= 48
        && ((spos + !i) lsr 3) + 8 <= srclen
        && ((dpos + !i) lsr 3) + 8 <= dstlen
      do
        let sp = spos + !i in
        let sb = sp lsr 3 and so = sp land 7 in
        let u =
          Int64.to_int
            (Int64.shift_right_logical (Bytes.get_int64_le src sb) so)
          land 0xFFFF_FFFF_FFFF
        in
        let dp = dpos + !i in
        let db = dp lsr 3 and d_o = dp land 7 in
        Bytes.set_int64_le dst db
          (Int64.logor (Bytes.get_int64_le dst db) (Int64.of_int (u lsl d_o)));
        i := !i + 48
      done;
      while !i < len do
        let chunk = min 8 (len - !i) in
        let sp = spos + !i in
        let sb = sp lsr 3 and so = sp land 7 in
        let u = Char.code (Bytes.unsafe_get src sb) lsr so in
        let u =
          if so = 0 || sb + 1 >= srclen then u
          else u lor (Char.code (Bytes.unsafe_get src (sb + 1)) lsl (8 - so))
        in
        let u = u land ((1 lsl chunk) - 1) in
        let dp = dpos + !i in
        let db = dp lsr 3 and d_o = dp land 7 in
        Bytes.unsafe_set dst db
          (Char.unsafe_chr
             ((Char.code (Bytes.unsafe_get dst db) lor (u lsl d_o)) land 0xff));
        if chunk > 8 - d_o then
          Bytes.unsafe_set dst (db + 1)
            (Char.unsafe_chr
               (Char.code (Bytes.unsafe_get dst (db + 1)) lor (u lsr (8 - d_o))));
        i := !i + chunk
      done
    end

let append a b =
  if a.len = 0 then b
  else if b.len = 0 then a
  else begin
    let len = a.len + b.len in
    let data = Bytes.make (bytes_needed len) '\000' in
    unsafe_blit a.data 0 data 0 a.len;
    unsafe_blit b.data 0 data a.len b.len;
    { data; len }
  end

let extract t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Bitvec.extract: out of bounds";
  if len = 0 then empty
  else begin
    let data = Bytes.make (bytes_needed len) '\000' in
    unsafe_blit t.data pos data 0 len;
    { data; len }
  end

(* A top-level loop: a local one capturing the buffers would allocate
   a closure on every comparison. *)
let rec equal_bytes a b i nbytes =
  i >= nbytes
  || (Bytes.unsafe_get a i = Bytes.unsafe_get b i
     && equal_bytes a b (i + 1) nbytes)

let equal a b = a.len = b.len && equal_bytes a.data b.data 0 (bytes_needed a.len)

let of_string s =
  let len = String.length s in
  let data = Bytes.make (bytes_needed len) '\000' in
  String.iteri
    (fun i c ->
      match c with
      | '1' ->
          Bytes.unsafe_set data (i lsr 3)
            (Char.unsafe_chr
               (Char.code (Bytes.unsafe_get data (i lsr 3)) lor (1 lsl (i land 7))))
      | '0' -> ()
      | _ -> invalid_arg "Bitvec.of_string: expected '0'/'1'")
    s;
  { data; len }

let to_string t = String.init t.len (fun i -> if unsafe_get t i then '1' else '0')

let pp fmt t = Format.pp_print_string fmt (to_string t)

module For_testing = struct
  (* Boxed reference representation, kept as the differential oracle for
     the packed operations (the qcheck suite drives both in lockstep). *)
  let of_bool_list l =
    let len = List.length l in
    let data = Bytes.make (bytes_needed len) '\000' in
    List.iteri
      (fun i b ->
        if b then
          Bytes.unsafe_set data (i lsr 3)
            (Char.unsafe_chr
               (Char.code (Bytes.unsafe_get data (i lsr 3))
               lor (1 lsl (i land 7)))))
      l;
    { data; len }

  let to_bool_list t = List.init t.len (unsafe_get t)
end
