(** Orbit-weighted symmetric input distributions.

    A distribution over input profiles [x : 'a array] (one value per
    player) that is exchangeable within declared {e blocks} of players
    is determined by far less data than its [2^k]-point law: the
    per-member weight of a profile depends only on its {e composition}
    — for each block, how many players hold each domain value. This
    module stores exactly that collapsed representation: the domain,
    the player-to-block assignment, and one exact-rational per-member
    weight per composition class. For symmetric 0/1 inputs under the
    full group a class is a Hamming-weight level, so the [2^k] sweep
    becomes [k + 1] weighted terms.

    The orbit evaluation engine ({!Proto.Orbit}) consumes this
    representation directly; {!to_dist} expands it back to an explicit
    {!Dist_exact} law for differential tests, and {!of_dist} aggregates
    an explicit law, {e refusing} (with a concrete witness pair) any
    law that is not actually block-exchangeable — the distribution-side
    soundness check of declared symmetry. *)

module D = Dist_exact
module R = Exact.Rational

(** A composition class: [comp.(b).(v)] players of block [b] hold
    domain value (index) [v]. *)
type comp = int array array

(* Tables keyed on a composition, hashed over every count (the generic
   hash reads only the first ten). *)
module Comp_tbl = Hashtbl.Make (struct
  type t = comp

  let equal (a : t) b = a = b

  let hash (c : t) =
    Array.fold_left (Array.fold_left (fun h x -> (h * 65599) + x)) 0 c
    land max_int
end)

type 'a t = {
  domain : 'a array;
  blocks : int array;  (** player index -> block id, [0 .. n_blocks-1] *)
  block_sizes : int array;
  classes : (comp * R.t) list;
      (** class composition, per-{e member} weight (not class mass) *)
  mass_tbl : R.t Comp_tbl.t;
}

let domain t = t.domain
let blocks t = t.blocks
let players t = Array.length t.blocks
let classes t = t.classes

(* ------------------------------------------------------------------ *)
(* Exact counting: binomials and multinomials as rationals (they are   *)
(* integers, but staying in R avoids a separate bigint path and the    *)
(* engine multiplies them into rational weights anyway).               *)
(* ------------------------------------------------------------------ *)

let binom n k =
  if k < 0 || k > n then R.zero
  else begin
    let acc = ref R.one in
    for i = 0 to k - 1 do
      acc := R.div_int (R.mul_int !acc (n - i)) (i + 1)
    done;
    !acc
  end

(** Number of ways to assign values to [n] interchangeable players so
    that value [v] is held by [counts.(v)] players: the multinomial
    [n! / prod counts.(v)!]. *)
let multinomial n counts =
  let acc = ref R.one and left = ref n in
  Array.iter
    (fun c ->
      acc := R.mul !acc (binom !left c);
      left := !left - c)
    counts;
  if !left <> 0 then invalid_arg "Symdist.multinomial: counts do not sum to n";
  !acc

(** Orbit size of a composition: independent multinomials per block. *)
let comp_orbit_size block_sizes comp =
  let acc = ref R.one in
  Array.iteri
    (fun b counts -> acc := R.mul !acc (multinomial block_sizes.(b) counts))
    comp;
  !acc

let comp_of_profile ~blocks ~n_blocks ~n_values profile_indices =
  let comp = Array.init n_blocks (fun _ -> Array.make n_values 0) in
  Array.iteri
    (fun i v -> comp.(blocks.(i)).(v) <- comp.(blocks.(i)).(v) + 1)
    profile_indices;
  comp

(** Per-member weight of the class containing the given composition;
    zero off the support. *)
let mass_of_comp t comp =
  Option.value ~default:R.zero (Comp_tbl.find_opt t.mass_tbl comp)

let block_sizes_of blocks =
  let n_blocks =
    Array.fold_left (fun acc b -> max acc (b + 1)) 0 blocks
  in
  let sizes = Array.make n_blocks 0 in
  Array.iter
    (fun b ->
      if b < 0 then invalid_arg "Symdist: negative block id";
      sizes.(b) <- sizes.(b) + 1)
    blocks;
  Array.iteri
    (fun b n ->
      if n = 0 then
        invalid_arg (Printf.sprintf "Symdist: block %d has no players" b))
    sizes;
  sizes

(* All compositions of [n] into [d] parts, lexicographic. *)
let rec compositions n d =
  if d = 1 then [ [ n ] ]
  else
    List.concat_map
      (fun c -> List.map (fun rest -> c :: rest) (compositions (n - c) (d - 1)))
      (List.init (n + 1) (fun i -> i))

let all_comps ~block_sizes ~n_values =
  let per_block =
    Array.to_list
      (Array.map
         (fun n -> List.map Array.of_list (compositions n n_values))
         block_sizes)
  in
  let rec cross = function
    | [] -> [ [] ]
    | choices :: rest ->
        List.concat_map
          (fun c -> List.map (fun tail -> c :: tail) (cross rest))
          choices
  in
  List.map Array.of_list (cross per_block)

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let of_classes ~domain ~blocks classes =
  if Array.length domain = 0 then invalid_arg "Symdist.of_classes: empty domain";
  if Array.length blocks = 0 then
    invalid_arg "Symdist.of_classes: no players";
  let block_sizes = block_sizes_of blocks in
  let n_values = Array.length domain in
  let classes =
    List.filter (fun (_, w) -> not (R.is_zero w)) classes
  in
  let mass_tbl = Comp_tbl.create 16 in
  let total = ref R.zero in
  List.iter
    (fun (comp, w) ->
      if Array.length comp <> Array.length block_sizes then
        invalid_arg "Symdist.of_classes: composition has wrong block count";
      Array.iteri
        (fun b row ->
          if Array.length row <> n_values then
            invalid_arg "Symdist.of_classes: composition has wrong value count";
          let s = Array.fold_left ( + ) 0 row in
          if s <> block_sizes.(b) then
            invalid_arg "Symdist.of_classes: composition does not fill its block")
        comp;
      if R.sign w < 0 then
        invalid_arg "Symdist.of_classes: negative class weight";
      if Comp_tbl.mem mass_tbl comp then
        invalid_arg "Symdist.of_classes: duplicate composition class";
      Comp_tbl.add mass_tbl comp w;
      total := R.add !total (R.mul w (comp_orbit_size block_sizes comp)))
    classes;
  if not (R.is_one !total) then
    invalid_arg
      (Printf.sprintf "Symdist.of_classes: total mass %s, expected 1"
         (R.to_string !total));
  { domain; blocks; block_sizes; classes; mass_tbl }

(** Independent players, identically distributed {e within} each block:
    [weights.(b).(v)] is the probability that a block-[b] player holds
    [domain.(v)]. The collapsed classes are exactly the product-law
    masses [prod_b prod_v weights.(b).(v)^comp.(b).(v)]. *)
let iid_blocks ~domain ~blocks weights =
  let block_sizes = block_sizes_of blocks in
  let n_values = Array.length domain in
  if Array.length weights <> Array.length block_sizes then
    invalid_arg "Symdist.iid_blocks: weights have wrong block count";
  Array.iter
    (fun row ->
      if Array.length row <> n_values then
        invalid_arg "Symdist.iid_blocks: weights have wrong value count";
      let s = Array.fold_left R.add R.zero row in
      if not (R.is_one s) then
        invalid_arg "Symdist.iid_blocks: block weights do not sum to 1")
    weights;
  let classes =
    List.filter_map
      (fun comp ->
        let w = ref R.one in
        Array.iteri
          (fun b row ->
            Array.iteri
              (fun v c -> if c > 0 then w := R.mul !w (R.pow weights.(b).(v) c))
              row)
          comp;
        if R.is_zero !w then None else Some (comp, !w))
      (all_comps ~block_sizes ~n_values)
  in
  of_classes ~domain ~blocks classes

(** The same class weights over another assignment of players to
    blocks with the same block sizes: the law of [t] with its players
    permuted. Shares [t]'s classes and its read-only mass table. *)
let relabel t ~blocks =
  if block_sizes_of blocks <> t.block_sizes then
    invalid_arg "Symdist.relabel: block sizes differ";
  { t with blocks }

let uniform ~domain ~blocks =
  let n = Array.length domain in
  let n_blocks = Array.length (block_sizes_of blocks) in
  let w = Array.make n (R.of_ints 1 n) in
  iid_blocks ~domain ~blocks (Array.init n_blocks (fun _ -> w))

(* ------------------------------------------------------------------ *)
(* Bridges to explicit laws                                            *)
(* ------------------------------------------------------------------ *)

let index_of_value domain v =
  let n = Array.length domain in
  let rec go i =
    if i = n then invalid_arg "Symdist: profile value outside the domain"
    else if Stdlib.compare domain.(i) v = 0 then i
    else go (i + 1)
  in
  go 0

(** Per-member weight of an explicit profile (its class weight). *)
let mass_of_profile t x =
  if Array.length x <> players t then
    invalid_arg "Symdist.mass_of_profile: wrong profile length";
  let idx = Array.map (index_of_value t.domain) x in
  mass_of_comp t
    (comp_of_profile ~blocks:t.blocks
       ~n_blocks:(Array.length t.block_sizes)
       ~n_values:(Array.length t.domain) idx)

(** Expand to the explicit [2^k]-style law — differential tests only;
    exponential in the player count. *)
let to_dist t =
  let k = players t in
  let n = Array.length t.domain in
  let rec profiles i =
    if i = k then [ [] ]
    else
      List.concat_map
        (fun rest -> List.init n (fun v -> v :: rest))
        (profiles (i + 1))
  in
  let pairs =
    List.filter_map
      (fun idx_list ->
        let idx = Array.of_list idx_list in
        let w =
          mass_of_comp t
            (comp_of_profile ~blocks:t.blocks
               ~n_blocks:(Array.length t.block_sizes) ~n_values:n idx)
        in
        if R.is_zero w then None
        else Some (Array.map (fun v -> t.domain.(v)) idx, w))
      (profiles 0)
  in
  D.of_weighted pairs

(** Collapse an explicit law into classes, checking exchangeability:
    every profile in a class must carry exactly the class weight.
    Returns [Error (x, x')] with two same-class profiles of different
    mass when the law is not block-exchangeable — the concrete witness
    that a symmetry declaration is unsound. *)
let of_dist ~domain ~blocks dist =
  let block_sizes = block_sizes_of blocks in
  let n_blocks = Array.length block_sizes in
  let n_values = Array.length domain in
  let seen : ('a array * R.t) Comp_tbl.t = Comp_tbl.create 16 in
  let witness = ref None in
  let expected = ref [] in
  List.iter
    (fun (x, w) ->
      match !witness with
      | Some _ -> ()
      | None ->
          let idx = Array.map (index_of_value domain) x in
          let comp = comp_of_profile ~blocks ~n_blocks ~n_values idx in
          (match Comp_tbl.find_opt seen comp with
          | None ->
              Comp_tbl.add seen comp (x, w);
              expected := (comp, w, R.one) :: !expected
          | Some (x0, w0) ->
              if not (R.equal w0 w) then witness := Some (x0, x)
              else
                expected :=
                  List.map
                    (fun (c, cw, n) ->
                      if c = comp then (c, cw, R.add n R.one) else (c, cw, n))
                    !expected))
    (D.to_alist dist);
  match !witness with
  | Some (x, x') -> Error (x, x')
  | None ->
      (* A class whose orbit is only partially covered by the support is
         fine only if the missing members have weight zero — but then the
         covered members must make the class mass check fail, because the
         per-member weight times the full orbit size overshoots. Catch it
         here with a per-class cardinality check instead of deep in
         [of_classes]. *)
      let bad =
        List.find_opt
          (fun (comp, _, n) ->
            not (R.equal n (comp_orbit_size block_sizes comp)))
          !expected
      in
      (match bad with
      | Some (comp, _, _) ->
          let x0, _ = Comp_tbl.find seen comp in
          Error (x0, x0)
      | None ->
          Ok
            (of_classes ~domain ~blocks
               (List.rev_map (fun (c, w, _) -> (c, w)) !expected)))
