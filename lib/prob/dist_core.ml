(** Finite discrete probability distributions, as a functor over the
    weight semifield (see {!Weight}).

    A distribution is a finite list of [(value, weight)] pairs with
    positive weights summing to one. Values are deduplicated with
    polymorphic structural equality (via [Hashtbl]), which is adequate
    for the ground types used throughout this reproduction (ints, bools,
    int arrays, lists and tuples thereof — never functions or cyclic
    values). *)

module Make (W : Weight.S) = struct
  type weight = W.t

  type 'a t = {
    items : ('a * W.t) array;
    (* memoized value -> weight index so that [prob_of] is O(1); built
       lazily because most distributions are tiny and never queried *)
    mutable index : ('a, W.t) Hashtbl.t option;
  }

  (* Deduplicate in one hash lookup per pair: the table maps a value to
     its mutable weight cell, so repeated values accumulate in place and
     no second lookup is needed to read the weights back. [order] holds
     the [(value, cell)] pairs in reverse insertion order. *)
  let dedupe_cells pairs =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    let n = ref 0 in
    List.iter
      (fun (v, w) ->
        if W.compare w W.zero > 0 then
          match Hashtbl.find_opt tbl v with
          | Some cell -> cell := W.add !cell w
          | None ->
              let cell = ref w in
              Hashtbl.add tbl v cell;
              order := (v, cell) :: !order;
              incr n)
      pairs;
    (!order, !n)

  let total pairs = List.fold_left (fun acc (_, w) -> W.add acc w) W.zero pairs

  let total_arr items =
    Array.fold_left (fun acc (_, w) -> W.add acc w) W.zero items

  (* Renormalize in place only when the mass isn't already exactly one
     ([W.is_one] is O(1); on the exact instance this skips allocating a
     division closure per item for the common mass-preserving case). *)
  let normalize_arr items =
    let z = total_arr items in
    if W.compare z W.zero <= 0 then
      invalid_arg "Dist.of_weighted: no positive mass";
    if W.is_one z then items
    else Array.map (fun (v, w) -> (v, W.div w z)) items

  let of_weighted pairs =
    let rev_order, n = dedupe_cells pairs in
    if n = 0 then invalid_arg "Dist.of_weighted: no positive mass";
    (* Fill the items array back-to-front straight from the reversed
       insertion list — no intermediate forward list. *)
    let items =
      match rev_order with
      | [] -> assert false
      | (v0, c0) :: tl ->
          let arr = Array.make n (v0, !c0) in
          let i = ref (n - 2) in
          List.iter
            (fun (v, c) ->
              arr.(!i) <- (v, !c);
              decr i)
            tl;
          arr
    in
    { items = normalize_arr items; index = None }

  let return v = { items = [| (v, W.one) |]; index = None }

  (* [of_distinct items] equals [of_weighted (Array.to_list items)] when
     the values are pairwise distinct and the weights positive with a
     total of exactly one: the array becomes the law's items as it is.
     Unchecked — callers own those conditions, and the array. *)
  let of_distinct items = { items; index = None }

  let to_alist d = Array.to_list d.items
  let support d = Array.to_list (Array.map fst d.items)
  let size d = Array.length d.items

  let is_point d = Array.length d.items = 1

  let prob d pred =
    Array.fold_left
      (fun acc (v, w) -> if pred v then W.add acc w else acc)
      W.zero d.items

  let prob_of d v =
    let index =
      match d.index with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create (Array.length d.items) in
          Array.iter (fun (x, w) -> Hashtbl.replace tbl x w) d.items;
          d.index <- Some tbl;
          tbl
    in
    Option.value ~default:W.zero (Hashtbl.find_opt index v)

  let map f d =
    of_weighted (List.map (fun (v, w) -> (f v, w)) (to_alist d))

  (* [map_injective f d] equals [map f d] when [f] is injective on the
     support of [d]: the image has no duplicates and carries the same
     weights, so deduplication and renormalization are skipped. Item
     order is preserved exactly (downstream float folds are
     order-sensitive). Unchecked — callers own the injectivity proof. *)
  let map_injective f d =
    { items = Array.map (fun (v, w) -> (f v, w)) d.items; index = None }

  let bind d f =
    let pieces =
      List.concat_map
        (fun (v, w) ->
          List.map (fun (u, wu) -> (u, W.mul w wu)) (to_alist (f v)))
        (to_alist d)
    in
    of_weighted pieces

  (* [bind_disjoint d f] equals [bind d f] when the supports of [f v]
     are pairwise disjoint across the support of [d]: the concatenation
     is duplicate-free and its mass is exactly the product mass (one on
     the exact instance), so deduplication and renormalization are
     skipped. Items appear in the same concatenation order as [bind]'s.
     Unchecked — callers own the disjointness proof. On the float
     instance the skipped renormalization can leave mass 1 only up to
     rounding; use [bind] unless bit-compatibility is the point. *)
  let bind_disjoint d f =
    let pieces =
      List.concat_map
        (fun (v, w) ->
          List.map (fun (u, wu) -> (u, W.mul w wu)) (to_alist (f v)))
        (to_alist d)
    in
    { items = Array.of_list pieces; index = None }

  let ( let* ) = bind

  let product a b =
    let* x = a in
    let* y = b in
    return (x, y)

  let uniform = function
    | [] -> invalid_arg "Dist.uniform: empty support"
    | vs ->
        let n = List.length vs in
        of_weighted (List.map (fun v -> (v, W.of_int_ratio 1 n)) vs)

  let bernoulli w =
    if W.compare w W.zero < 0 || W.compare w W.one > 0 then
      invalid_arg "Dist.bernoulli: weight out of range";
    if W.equal w W.one then return true
    else if W.equal w W.zero then return false
    else of_weighted [ (true, w); (false, W.sub W.one w) ]

  (* Items are already deduplicated, so conditioning only filters and
     renormalizes — no hash pass. *)
  let condition d pred =
    let kept =
      Array.of_list (List.filter (fun (v, _) -> pred v) (to_alist d))
    in
    if Array.length kept = 0 || W.compare (total_arr kept) W.zero <= 0 then
      None
    else Some { items = normalize_arr kept; index = None }

  let condition_exn d pred =
    match condition d pred with
    | Some d -> d
    | None -> invalid_arg "Dist.condition_exn: conditioning on a null event"

  (* n-fold product over an array of distributions; values come out as
     arrays indexed like the input. *)
  let product_array ds =
    let n = Array.length ds in
    let rec go i acc_val acc_w acc =
      if i = n then (Array.of_list (List.rev acc_val), acc_w) :: acc
      else
        Array.fold_left
          (fun acc (v, w) -> go (i + 1) (v :: acc_val) (W.mul acc_w w) acc)
          acc ds.(i).items
    in
    of_weighted (go 0 [] W.one [])

  let iid n d =
    if n < 0 then invalid_arg "Dist.iid";
    product_array (Array.make n d)

  let expectation_with f d =
    Array.fold_left
      (fun acc (v, w) -> acc +. (W.to_float w *. f v))
      0. d.items

  let total_variation a b =
    let vals = List.sort_uniq compare (support a @ support b) in
    let s =
      List.fold_left
        (fun acc v ->
          acc
          +. Float.abs (W.to_float (prob_of a v) -. W.to_float (prob_of b v)))
        0. vals
    in
    s /. 2.

  let mass d = total (to_alist d)

  let pp pp_v fmt d =
    Format.fprintf fmt "@[<v>";
    Array.iteri
      (fun i (v, w) ->
        if i > 0 then Format.fprintf fmt "@,";
        Format.fprintf fmt "%a -> %a" pp_v v W.pp w)
      d.items;
    Format.fprintf fmt "@]"
end
