(** The Lemma-3 decomposition and the Lemma-4 posterior formulas.

    For any transcript [l] of a broadcast protocol over single-bit
    inputs, the probability of producing [l] factors as
    [Pr[Pi(X) = l] = common(l) * prod_i q_{i, X_i}(l)], where
    [q_{i,b}(l)] collects the emission probabilities of player [i]'s
    messages along [l] when its input bit is [b], and [common(l)]
    collects the (input-independent) public-coin probabilities.

    The ratio [alpha_i(l) = q_{i,0}(l) / q_{i,1}(l)] measures how
    strongly the transcript "points" at player [i] having input 0; by
    Lemma 4 the posterior [Pr[X_i = 0 | Pi = l, Z <> i]] under the hard
    distribution equals [alpha_i / (alpha_i + k - 1)]. *)

module R = Exact.Rational
module D = Prob.Dist_exact

type t = {
  k : int;
  q : R.t array array;  (** [q.(i).(b)] for player [i], bit [b] *)
  common : R.t;  (** public-coin factor *)
}

(** [of_transcript tree ~k transcript] computes the decomposition by
    walking the tree along the transcript.
    @raise Invalid_argument if the transcript does not follow the tree. *)
let of_transcript tree ~k transcript =
  let q = Array.init k (fun _ -> [| R.one; R.one |]) in
  let common = ref R.one in
  let rec go tree transcript =
    match (tree, transcript) with
    | _, [] -> ()
    | Tree.Speak { speaker; emit; children; _ }, Tree.Msg (s, m) :: rest ->
        if s <> speaker then
          invalid_arg "Qdecomp.of_transcript: speaker mismatch";
        for b = 0 to 1 do
          q.(speaker).(b) <- R.mul q.(speaker).(b) (D.prob_of (emit b) m)
        done;
        go children.(m) rest
    | Tree.Chance { coin; children; _ }, Tree.Coin c :: rest ->
        common := R.mul !common (D.prob_of coin c);
        go children.(c) rest
    | _ -> invalid_arg "Qdecomp.of_transcript: transcript does not match tree"
  in
  go tree transcript;
  { k; q; common = !common }

(** Reconstruct [Pr[Pi(X) = l]] for a concrete bit-vector input — the
    statement of Lemma 3, used by tests to validate the decomposition
    against the direct semantics. *)
let transcript_prob t inputs =
  Array.to_list inputs
  |> List.mapi (fun i b -> t.q.(i).(b))
  |> List.fold_left R.mul t.common

(** [alpha t i] is [q_{i,0} / q_{i,1}]; [None] encodes the infinite
    ratio arising when [q_{i,1} = 0] (the posterior is then 1). *)
let alpha t i =
  if R.is_zero t.q.(i).(1) then None
  else Some (R.div t.q.(i).(0) t.q.(i).(1))

let alpha_float t i =
  match alpha t i with None -> infinity | Some a -> R.to_float a

(** Lemma 4: the posterior probability that [X_i = 0] given the
    transcript and [Z <> i] under the hard distribution of Section 4.1,
    whose per-player prior of zero is [1/k]:
    [q_{i,0} / (q_{i,0} + (k-1) q_{i,1}) = alpha / (alpha + k - 1)]. *)
let posterior_zero t i =
  let q0 = t.q.(i).(0) and q1 = t.q.(i).(1) in
  let den = R.add q0 (R.mul_int q1 (t.k - 1)) in
  if R.is_zero den then None else Some (R.div q0 den)

(** The sum of alpha ratios [sum_i alpha_i(l)] (eq. (6) of the paper
    bounds this from below by [sqrt(C)/2 * k] on good transcripts).
    Returns [infinity] if any ratio is infinite. *)
let alpha_sum t =
  let rec go i acc =
    if i = t.k then acc
    else
      match alpha t i with
      | None -> infinity
      | Some a -> go (i + 1) (acc +. R.to_float a)
  in
  go 0 0.

let max_alpha t =
  let rec go i acc =
    if i = t.k then acc else go (i + 1) (Float.max acc (alpha_float t i))
  in
  go 0 0.
