(** Efficient repeated sampling from a fixed finite distribution using
    Walker's alias method: O(n) preprocessing, O(1) per draw. Used by the
    blackboard runtime and the Monte-Carlo sides of the experiments. *)

type 'a t = {
  values : 'a array;
  prob : float array; (* acceptance probability per column *)
  alias : int array; (* fallback column *)
}

let create dist =
  let items = Array.of_list (Dist.to_alist dist) in
  let n = Array.length items in
  let values = Array.map fst items in
  let scaled = Array.map (fun (_, w) -> w *. float_of_int n) items in
  let prob = Array.make n 1. in
  let alias = Array.init n (fun i -> i) in
  let small = Queue.create () and large = Queue.create () in
  Array.iteri
    (fun i s -> if s < 1. then Queue.add i small else Queue.add i large)
    scaled;
  while (not (Queue.is_empty small)) && not (Queue.is_empty large) do
    let s = Queue.pop small and l = Queue.pop large in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
    if scaled.(l) < 1. then Queue.add l small else Queue.add l large
  done;
  (* Remaining columns keep acceptance probability 1. *)
  { values; prob; alias }

let draw t rng =
  let n = Array.length t.values in
  let col = Rng.int rng n in
  if Rng.float rng < t.prob.(col) then t.values.(col)
  else t.values.(t.alias.(col))

(** Empirical distribution of [n] draws — used in tests to check the
    sampler against the source distribution. *)
let empirical t rng n =
  let counts = Hashtbl.create 16 in
  for _ = 1 to n do
    let v = draw t rng in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  Dist.of_weighted
    (Hashtbl.fold (fun v c acc -> (v, float_of_int c) :: acc) counts [])
