(** Shared types, reference semantics and instance generators for the
    multi-party set-disjointness protocols.

    An instance is [k] sets over the universe [\[0, n)], represented as
    [bool array array]: [sets.(i).(j)] is true iff [j] is in player
    [i]'s set ([X_i^j = 1] in the paper's coordinate notation). *)

type instance = { n : int; sets : bool array array }

let k_of inst = Array.length inst.sets

let make ~n sets =
  Array.iter
    (fun s ->
      if Array.length s <> n then invalid_arg "Disj_common.make: bad width")
    sets;
  { n; sets }

(** Ground truth: true iff the intersection of all sets is empty. *)
let disjoint inst =
  let k = k_of inst in
  let rec coord j =
    if j = inst.n then true
    else
      let rec all_in i = i = k || (inst.sets.(i).(j) && all_in (i + 1)) in
      if all_in 0 then false else coord (j + 1)
  in
  coord 0

(** The elements of the intersection (empty iff disjoint). *)
let intersection inst =
  let k = k_of inst in
  let acc = ref [] in
  for j = inst.n - 1 downto 0 do
    let rec all_in i = i = k || (inst.sets.(i).(j) && all_in (i + 1)) in
    if all_in 0 then acc := j :: !acc
  done;
  !acc

(** Result of an operational protocol run. *)
type result = {
  answer : bool;  (** protocol's claim: disjoint? *)
  bits : int;  (** total bits written on the board *)
  messages : int;
  cycles : int;  (** protocol-defined cycles (0 if not meaningful) *)
}

(** {1 Instance generators} *)

(** Independent dense instance: each membership bit is 1 with
    probability [density]. With high density the instance is very likely
    non-disjoint; with density [1/2] and [k >= log n] it is likely
    disjoint. *)
let random_dense rng ~n ~k ~density =
  {
    n;
    sets =
      Array.init k (fun _ ->
          Array.init n (fun _ -> Prob.Rng.bernoulli rng density));
  }

(** A guaranteed-disjoint instance that is as hard as possible for the
    "find a zero" task: every coordinate has exactly one zero, placed
    with a random owner, so each player holds roughly [n/k] zeros. This
    mirrors the hard distribution's two-zero slice at scale. *)
let random_disjoint_single_zero rng ~n ~k =
  let sets = Array.init k (fun _ -> Array.make n true) in
  for j = 0 to n - 1 do
    sets.(Prob.Rng.int rng k).(j) <- false
  done;
  { n; sets }

(** Non-disjoint instance: like the single-zero instance, but
    [witnesses] coordinates are left with no zero at all (they form the
    intersection). *)
let random_intersecting rng ~n ~k ~witnesses =
  let inst = random_disjoint_single_zero rng ~n ~k in
  let picked = Array.init n (fun j -> j) in
  Prob.Rng.shuffle rng picked;
  for t = 0 to min witnesses n - 1 do
    let j = picked.(t) in
    for i = 0 to k - 1 do
      inst.sets.(i).(j) <- true
    done
  done;
  inst

(** Adversarial for pass-counting: all players hold the full universe
    except player [k-1], who holds nothing. Non-disjoint only if
    [k = 1]. *)
let last_player_empty ~n ~k =
  {
    n;
    sets = Array.init k (fun i -> Array.make n (i <> k - 1));
  }

(** All players hold everything: maximally non-disjoint. *)
let all_full ~n ~k = { n; sets = Array.init k (fun _ -> Array.make n true) }

(** All players hold nothing. *)
let all_empty ~n ~k = { n; sets = Array.init k (fun _ -> Array.make n false) }

(** Exhaustive enumeration of all instances for tiny [n, k] — used by
    correctness tests to compare every protocol against {!disjoint}. *)
let enumerate ~n ~k =
  let total = 1 lsl (n * k) in
  List.init total (fun code ->
      {
        n;
        sets =
          Array.init k (fun i ->
              Array.init n (fun j -> (code lsr ((i * n) + j)) land 1 = 1));
      })

(** Convert to the [int array array] coordinate-vector shape used by the
    exact protocol trees ([1] = member). *)
let to_bit_vectors inst =
  Array.map (Array.map (fun b -> if b then 1 else 0)) inst.sets

(** {1 Word-sliced coordinate planes}

    The operational solvers spend their scans asking, for every
    coordinate, "is this a zero of player [j] not yet covered?". Packing
    each player's zero set into 62-bit machine words (and the covered
    set likewise) turns those [O(n)] boolean scans into [O(n/62)] word
    AND-NOTs — the encodings on the board are unchanged, only the local
    computation is word-parallel. 62 bits leaves the native int's top
    bit clear, so every plane word is non-negative. *)

let plane_bits = 62

(* 16-bit-slice popcount table: four lookups per plane word. *)
let popcount_tab =
  let t = Bytes.make 65536 '\000' in
  for i = 1 to 65535 do
    Bytes.unsafe_set t i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t (i lsr 1)) + (i land 1)))
  done;
  t

let popcount x =
  Char.code (Bytes.unsafe_get popcount_tab (x land 0xffff))
  + Char.code (Bytes.unsafe_get popcount_tab ((x lsr 16) land 0xffff))
  + Char.code (Bytes.unsafe_get popcount_tab ((x lsr 32) land 0xffff))
  + Char.code (Bytes.unsafe_get popcount_tab (x lsr 48))

let ntz_word x = popcount ((x land -x) - 1)

let plane_words n = (n + plane_bits - 1) / plane_bits

(** [zero_planes inst] packs each player's {e zero} coordinates: bit
    [c mod 62] of word [c / 62] of plane [j] is set iff
    [not inst.sets.(j).(c)]. *)
let zero_planes inst =
  let nw = plane_words inst.n in
  Array.map
    (fun row ->
      let p = Array.make nw 0 in
      Array.iteri
        (fun c m ->
          if not m then
            p.(c / plane_bits) <-
              p.(c / plane_bits) lor (1 lsl (c mod plane_bits)))
        row;
      p)
    inst.sets
