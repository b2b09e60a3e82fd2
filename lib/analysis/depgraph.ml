(** Slot-dependency analysis over protocol trees: per-slot read-sets, a
    happens-before DAG, and a pipelining certificate.

    A board slot [t] {e reads} an earlier slot [s] when the value posted
    at [s] can change anything the schedule does at [t]: the speaker
    identity, the message arity, the emit law another player applies, a
    coin law, whether slot [t] exists at all — or the protocol's output.
    Slots that read nothing still live may have their reliable-broadcast
    instances in flight concurrently (one {!Netsim.Board_emu} wave); the
    per-slot barrier of an uncertified emulation is only required where
    a dependency edge crosses it.

    The analysis walks the tree with {!Walk}'s node budget and the same
    exact per-player reachability rectangles as {!Absint} (a branch
    declared dead is proven dead, so proven-dead dependencies are
    pruned; a raising law sends its node to top). At every
    reachable [Speak] node with two or more live children it runs a
    {e matched descent} over each pair of live sibling subtrees: both
    subtrees are walked in lockstep, and as long as the slot signatures
    agree — same speaker, same arity, extensionally equal emit laws on
    the inputs still live for every player other than the branching
    speaker, equal coin laws — the transcript suffix cannot reveal which
    sibling was taken, so no edge is needed. At the first divergence the
    analysis {e closes off}: it conservatively adds an edge from the
    branching slot to every slot position the two suffixes could still
    occupy (and marks the branching slot output-relevant), which keeps
    the read-sets an over-approximation without inspecting the diverged
    suffixes further. Physically shared sibling subtrees short-circuit:
    identical continuations cannot expose the branching symbol. The
    descent reads every law from the run's {!Walk} law table: two laws
    are compared by their interned keys, the per-symbol refinement
    replays the table's split, and the shared rectangle is narrowed in
    place for each child and restored after it.

    From the read-sets a greedy left-to-right partition into {e waves}
    is derived: a new wave starts at slot [t] exactly when [t] reads a
    slot at or past the current wave's start, so every slot's reads lie
    strictly before its own wave. That partition is the pipelining
    certificate. It is withheld ([certificate] returns [None]) whenever
    the node budget widened the walk or an emit law misbehaved
    (raised, or placed mass outside the arity) — in both cases the
    read-sets may be incomplete and the consumer must fall back to one
    slot per wave. *)

module D = Prob.Dist_exact
module R = Exact.Rational
module T = Proto.Tree

type t = {
  slots : int;  (** reachable slot positions (0 when the tree is a leaf) *)
  reads : int list array;
      (** per slot, the sorted earlier slots it may read (the
          happens-before DAG: edge [s -> t] iff [s] in [reads.(t)]) *)
  speakers : int list array;
      (** per slot, the sorted set of players that can speak there *)
  output_relevant : bool array;
      (** per slot, whether the posted value can influence the output *)
  waves : int array;
      (** ascending wave-start boundaries; [waves.(0) = 0] when
          [slots > 0], empty otherwise *)
  nodes : int;  (** walk + matched-descent steps before any widening *)
  widened : bool;  (** the node budget ran out somewhere *)
  law_failures : int;
      (** emit-law evaluations that raised or placed mass outside the
          arity; either withholds the certificate *)
  players : int;
  domain_size : int;
}

let default_budget = Absint.default_budget

let wave_count t = Array.length t.waves

let certificate t =
  if t.widened || t.law_failures > 0 then None else Some t.waves

(* Wave index of a slot under the boundary array: the number of
   boundaries at or before it, minus one. *)
let wave_of_slot waves slot =
  let w = ref 0 in
  Array.iteri (fun i b -> if b <= slot then w := i) waves;
  !w

let analyze ?(budget = default_budget) ?players ~domain tree =
  let walk = Walk.start ~name:"depgraph" ?players ~budget ~domain tree in
  let max_slots = T.round_count tree in
  let n = max max_slots 1 in
  let deps = Array.make_matrix n n false in
  (* deps.(t).(s) = slot t may read slot s *)
  let speakers_at = Array.make n [] in
  let out_rel = Array.make n false in
  let max_slot_seen = ref 0 in
  (* Two laws of one arity agree on [ixs] when their interned ids do:
     equal functions on the arity, with no mass outside it. *)
  let laws_equal ~ida ea ~idb eb ~arity ixs =
    List.for_all
      (fun ix ->
        let k = Walk.law_key walk ~id:ida ea ~arity ix in
        k >= 0 && k = Walk.law_key walk ~id:idb eb ~arity ix)
      ixs
  in
  let coins_equal ~ida ca ~idb cb ~arity =
    let k = Walk.coin_key walk ~id:ida ca ~arity in
    k >= 0 && k = Walk.coin_key walk ~id:idb cb ~arity
  in
  (* Divergence at slot position [slot] between sibling suffixes [a] and
     [b]: every slot either suffix can still occupy may read [src], and
     the output may too. *)
  let close_off ~src ~slot a b =
    out_rel.(src) <- true;
    let d = max (T.round_count a) (T.round_count b) in
    for t = slot to min (slot + d) max_slots - 1 do
      deps.(t).(src) <- true
    done
  in
  (* Matched descent over two live sibling subtrees of the Speak at slot
     [src] (branching speaker [v], whose live inputs are [la] in [a] and
     [lb] in [b]; every other player's axis is in [shared], where
     [shared.(v)] is stale and never read). It spends the main walk's
     node budget, and replays laws with [~count:false] so that it does
     not double-count failures the main walk already reported. [shared]
     is narrowed in place for each child and restored after it. *)
  let rec cmp ~src ~v ~la ~lb ~shared ~slot a b =
    if a == b then ()
    else if not (Walk.tick walk) then close_off ~src ~slot a b
    else
      match (a, b) with
      | T.Output { value = va; _ }, T.Output { value = vb; _ } ->
          if va <> vb then out_rel.(src) <- true
      | ( T.Chance { coin = ca; children = xa; id = ida },
          T.Chance { coin = cb; children = xb; id = idb } )
        when Array.length xa = Array.length xb
             && coins_equal ~ida ca ~idb cb ~arity:(Array.length xa) ->
          Array.iteri
            (fun i ai ->
              if R.sign (D.prob_of ca i) > 0 then
                cmp ~src ~v ~la ~lb ~shared ~slot ai xb.(i))
            xa
      | ( T.Speak { speaker = ua; emit = ea; children = xa; id = ida },
          T.Speak { speaker = ub; emit = eb; children = xb; id = idb } )
        when ua = ub && Array.length xa = Array.length xb ->
          let u = ua and arity = Array.length xa in
          if u <> v then begin
            (* Same inputs on both sides: the laws must agree on them,
               else the posted symbol distribution betrays the branch. *)
            let ixs = shared.(u) in
            if not (laws_equal ~ida ea ~idb eb ~arity ixs) then
              close_off ~src ~slot a b
            else
              let by = Walk.refine walk ~count:false ~id:ida ea ~arity ixs in
              Array.iteri
                (fun m live_m ->
                  if live_m <> [] then begin
                    shared.(u) <- live_m;
                    cmp ~src ~v ~la ~lb ~shared ~slot:(slot + 1) xa.(m)
                      xb.(m);
                    shared.(u) <- ixs
                  end)
                by
          end
          else begin
            (* The branching speaker speaks again. Its symbol here is a
               function of its own input only, so the slot signature is
               the same in both branches; recurse per symbol live in
               both (a symbol live in only one branch has no sibling
               pair to distinguish). *)
            let by_a = Walk.refine walk ~count:false ~id:ida ea ~arity la in
            let by_b = Walk.refine walk ~count:false ~id:idb eb ~arity lb in
            for m = 0 to arity - 1 do
              match (by_a.(m), by_b.(m)) with
              | [], _ | _, [] -> ()
              | la', lb' ->
                  cmp ~src ~v ~la:la' ~lb:lb' ~shared ~slot:(slot + 1)
                    xa.(m) xb.(m)
            done
          end
      | _ -> close_off ~src ~slot a b
  in
  (* The main walk narrows [rect] in place too: nothing keeps it. *)
  let rec go ~slot rect t =
    if Walk.tick walk then
      match t with
      | T.Output _ -> if slot > !max_slot_seen then max_slot_seen := slot
      | T.Chance { coin; children; _ } ->
          Array.iteri
            (fun i c ->
              if R.sign (D.prob_of coin i) > 0 then go ~slot rect c)
            children
      | T.Speak { speaker; emit; children; id } ->
          if slot < n && not (List.mem speaker speakers_at.(slot)) then
            speakers_at.(slot) <- speaker :: speakers_at.(slot);
          let arity = Array.length children in
          let ixs = rect.(speaker) in
          let by = Walk.refine walk ~count:true ~id emit ~arity ixs in
          let live = ref [] in
          Array.iteri
            (fun m l -> if l <> [] then live := (m, l) :: !live)
            by;
          let live = List.rev !live in
          (* Every live sibling pair gets a matched descent; pairwise
             (not just against the first) because liveness on the
             branching speaker's axis differs per sibling. *)
          let rec pairs = function
            | [] -> ()
            | (mi, li) :: rest ->
                List.iter
                  (fun (mj, lj) ->
                    cmp ~src:slot ~v:speaker ~la:li ~lb:lj ~shared:rect
                      ~slot:(slot + 1) children.(mi) children.(mj))
                  rest;
                pairs rest
          in
          pairs live;
          List.iter
            (fun (m, l) ->
              rect.(speaker) <- l;
              go ~slot:(slot + 1) rect children.(m))
            live;
          rect.(speaker) <- ixs
  in
  Walk.run walk (fun () -> go ~slot:0 (Walk.full_rect walk) tree);
  let slots = if walk.widened then max_slots else !max_slot_seen in
  let reads =
    Array.init slots (fun t ->
        let acc = ref [] in
        for s = n - 1 downto 0 do
          if deps.(t).(s) && s < t then acc := s :: !acc
        done;
        !acc)
  in
  let speakers =
    Array.init slots (fun t -> List.sort compare speakers_at.(t))
  in
  let output_relevant = Array.init slots (fun t -> out_rel.(t)) in
  let waves =
    if slots = 0 then [||]
    else begin
      let bounds = ref [ 0 ]
      and start = ref 0 in
      for t = 1 to slots - 1 do
        if List.exists (fun s -> s >= !start) reads.(t) then begin
          bounds := t :: !bounds;
          start := t
        end
      done;
      Array.of_list (List.rev !bounds)
    end
  in
  {
    slots;
    reads;
    speakers;
    output_relevant;
    waves;
    nodes = walk.nodes;
    widened = walk.widened;
    law_failures = walk.law_failures;
    players = walk.players;
    domain_size = Array.length domain;
  }

let to_json t =
  let open Obs.Jsonw in
  let ints l = List (List.map (fun i -> Int i) l) in
  obj
    [
      ("schema", String "broadcast-ic/depgraph/v1");
      ("slots", Int t.slots);
      ("waves", Int (wave_count t));
      ("certified", Bool (certificate t <> None));
      ("widened", Bool t.widened);
      ("law_failures", Int t.law_failures);
      ("nodes", Int t.nodes);
      ("players", Int t.players);
      ("wave_starts", ints (Array.to_list t.waves));
      ( "slot_table",
        List
          (List.init t.slots (fun s ->
               obj
                 [
                   ("slot", Int s);
                   ("speakers", ints t.speakers.(s));
                   ("reads", ints t.reads.(s));
                   ("wave", Int (wave_of_slot t.waves s));
                   ("output_relevant", Bool t.output_relevant.(s));
                 ])) );
    ]

let pp fmt t =
  Format.fprintf fmt "slots=%d waves=%d certified=%b" t.slots (wave_count t)
    (certificate t <> None);
  for s = 0 to t.slots - 1 do
    Format.fprintf fmt "@.  slot %d: wave %d, speakers {%s}, reads {%s}%s" s
      (wave_of_slot t.waves s)
      (String.concat "," (List.map string_of_int t.speakers.(s)))
      (String.concat "," (List.map string_of_int t.reads.(s)))
      (if t.output_relevant.(s) then "" else ", not output-relevant")
  done
