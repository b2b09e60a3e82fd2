(** Float-weighted finite distributions (the measurement-scale default).

    See {!Dist_core.Make} for the core operations; this module adds the
    float-only conveniences: expectations, moments, sampling. *)

include Dist_core.Make (Weight.Float)

let expectation d = expectation_with (fun x -> x) d

let variance d =
  let m = expectation d in
  expectation_with (fun x -> (x -. m) ** 2.) d

let binomial n p =
  if n < 0 || p < 0. || p > 1. then invalid_arg "Dist.binomial";
  let choose = Array.make (n + 1) 1. in
  for i = 1 to n do
    for j = i - 1 downto 1 do
      choose.(j) <- choose.(j) +. choose.(j - 1)
    done;
    choose.(i) <- 1.
  done;
  of_weighted
    (List.init (n + 1) (fun k ->
         (k, choose.(k) *. (p ** float_of_int k) *. ((1. -. p) ** float_of_int (n - k)))))

let geometric_truncated p n =
  if p <= 0. || p > 1. || n < 1 then invalid_arg "Dist.geometric_truncated";
  of_weighted (List.init n (fun k -> (k, p *. ((1. -. p) ** float_of_int k))))
