(** Compiler from protocol trees to a flat bit-sliced VM. *)

module D = Prob.Dist_exact

let kind_output = 0
let kind_speak = 1
let kind_chance = 2

type t = {
  players : int;
  domain_size : int;
  node_count : int;
  root : int;  (** always [node_count - 1] (postorder ids) *)
  kind : int array;
  speaker : int array;  (** Speak: player id; otherwise -1 *)
  arity : int array;  (** child count; Output: 0 *)
  width : int array;  (** Speak: per-message bit charge; otherwise 0 *)
  out_value : int array;  (** Output: leaf value; otherwise -1 *)
  child_base : int array;  (** index of the node's slice of [children] *)
  children : int array;  (** flat child ids, grouped per node *)
  emit_base : int array;  (** Speak: index of its row in [law_of_input] *)
  law_of_input : int array;  (** [emit_base + input index -> law id] *)
  coin_law : int array;  (** Chance: law id; otherwise -1 *)
  laws : int D.t array;  (** interned emit/coin laws *)
  samplers : int Prob.Sampler.t array;  (** prebuilt, one per law *)
  point_sym : int array;  (** law id -> its point mass, or -1 *)
  deterministic : bool;
      (** no Chance nodes and every tabulated emit law is a point mass *)
}

let players p = p.players
let domain_size p = p.domain_size
let node_count p = p.node_count
let deterministic p = p.deterministic

(* Growable int buffer for the struct-of-arrays construction. *)
module Buf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 16 0; len = 0 }

  let push b v =
    if b.len = Array.length b.a then begin
      let a' = Array.make (2 * b.len) 0 in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end;
    b.a.(b.len) <- v;
    b.len <- b.len + 1

  let to_array b = Array.sub b.a 0 b.len
end

let compile ~players:k ~domain tree =
  if k <= 0 then invalid_arg "Compile.compile: players";
  let dsize = Array.length domain in
  if dsize = 0 then invalid_arg "Compile.compile: empty domain";
  let ids : int Tree.Tbl.t = Tree.Tbl.create 64 in
  let kind = Buf.create () in
  let speaker = Buf.create () in
  let arity = Buf.create () in
  let width = Buf.create () in
  let out_value = Buf.create () in
  let child_base = Buf.create () in
  let children = Buf.create () in
  let emit_base = Buf.create () in
  let law_of_input = Buf.create () in
  let coin_law = Buf.create () in
  (* Law interning: structural equality on the exact alist, so two
     [emit] closures producing the same distribution share one law (and
     one prebuilt sampler). Linear scan — law tables are small. *)
  let laws = ref [] in
  let law_count = ref 0 in
  let law_eq l1 l2 =
    let a1 = D.to_alist l1 and a2 = D.to_alist l2 in
    List.length a1 = List.length a2
    && List.for_all2
         (fun (v1, w1) (v2, w2) -> v1 = v2 && Exact.Rational.equal w1 w2)
         a1 a2
  in
  let intern law =
    let rec find i = function
      | [] ->
          laws := law :: !laws;
          incr law_count;
          !law_count - 1
      | l :: rest -> if law_eq l law then i else find (i - 1) rest
    in
    find (!law_count - 1) !laws
  in
  let push_node ~k:kd ~sp ~ar ~wd ~out ~kids ~eb ~cl =
    let id = kind.Buf.len in
    Buf.push kind kd;
    Buf.push speaker sp;
    Buf.push arity ar;
    Buf.push width wd;
    Buf.push out_value out;
    Buf.push child_base children.Buf.len;
    Array.iter (Buf.push children) kids;
    Buf.push emit_base eb;
    Buf.push coin_law cl;
    id
  in
  let rec go node =
    match Tree.Tbl.find_opt ids (Tree.id node) with
    | Some id -> id
    | None ->
        let id =
          match node with
          | Tree.Output { value; _ } ->
              push_node ~k:kind_output ~sp:(-1) ~ar:0 ~wd:0 ~out:value
                ~kids:[||] ~eb:(-1) ~cl:(-1)
          | Tree.Speak { speaker = sp; emit; children = ch; _ } ->
              (* Children first: postorder ids, so every child id is
                 strictly smaller than its parent's. *)
              let kids = Array.map go ch in
              let eb = law_of_input.Buf.len in
              Array.iter (fun x -> Buf.push law_of_input (intern (emit x))) domain;
              push_node ~k:kind_speak ~sp ~ar:(Array.length ch)
                ~wd:(Tree.bits_of_arity (Array.length ch))
                ~out:(-1) ~kids ~eb ~cl:(-1)
          | Tree.Chance { coin; children = ch; _ } ->
              let kids = Array.map go ch in
              push_node ~k:kind_chance ~sp:(-1) ~ar:(Array.length ch) ~wd:0
                ~out:(-1) ~kids ~eb:(-1) ~cl:(intern coin)
        in
        Tree.Tbl.replace ids (Tree.id node) id;
        id
  in
  let root = go tree in
  let laws = Array.of_list (List.rev !laws) in
  let samplers =
    Array.map (fun l -> Prob.Sampler.create (D.to_float_dist l)) laws
  in
  let point_sym =
    Array.map
      (fun l -> match D.to_alist l with [ (v, _) ] -> v | _ -> -1)
      laws
  in
  let kind = Buf.to_array kind in
  let law_of_input = Buf.to_array law_of_input in
  let deterministic =
    Array.for_all (fun kd -> kd <> kind_chance) kind
    && Array.for_all (fun lid -> point_sym.(lid) >= 0) law_of_input
  in
  {
    players = k;
    domain_size = dsize;
    node_count = Array.length kind;
    root;
    kind;
    speaker = Buf.to_array speaker;
    arity = Buf.to_array arity;
    width = Buf.to_array width;
    out_value = Buf.to_array out_value;
    child_base = Buf.to_array child_base;
    children = Buf.to_array children;
    emit_base = Buf.to_array emit_base;
    law_of_input;
    coin_law = Buf.to_array coin_law;
    laws;
    samplers;
    point_sym;
    deterministic;
  }

(* ------------------------------------------------------------------ *)
(* Scalar execution.                                                   *)
(* ------------------------------------------------------------------ *)

let check_profile p input_indices =
  if Array.length input_indices <> p.players then
    invalid_arg "Compile.exec: wrong number of inputs";
  Array.iter
    (fun i ->
      if i < 0 || i >= p.domain_size then
        invalid_arg "Compile.exec: input index out of domain")
    input_indices

let exec ?(on_msg = fun ~speaker:_ ~arity:_ ~width:_ ~msg:_ -> ())
    ?(on_coin = fun _ -> ()) p ~sample ~input_indices =
  check_profile p input_indices;
  let pc = ref p.root in
  while p.kind.(!pc) <> kind_output do
    let n = !pc in
    if p.kind.(n) = kind_speak then begin
      let s = p.speaker.(n) in
      let lid = p.law_of_input.(p.emit_base.(n) + input_indices.(s)) in
      let msg = sample p.samplers.(lid) in
      on_msg ~speaker:s ~arity:p.arity.(n) ~width:p.width.(n) ~msg;
      pc := p.children.(p.child_base.(n) + msg)
    end
    else begin
      let c = sample p.samplers.(p.coin_law.(n)) in
      on_coin c;
      pc := p.children.(p.child_base.(n) + c)
    end
  done;
  p.out_value.(!pc)

(* ------------------------------------------------------------------ *)
(* Bit-sliced batch execution.                                         *)
(*                                                                     *)
(* One machine word per VM state: bit [l] of [node_mask.(n)] says lane *)
(* [l]'s execution passes through node [n]. Node ids are postorder, so *)
(* iterating ids downward visits every parent before any child — one   *)
(* linear pass over the program advances all lanes at once, and DAG-   *)
(* shared nodes simply accumulate the union of their parents' lanes    *)
(* before they are processed.                                          *)
(* ------------------------------------------------------------------ *)

let max_lanes = 62

type batch = {
  lanes : int;
  outputs : int array;  (** per-lane leaf value *)
  node_mask : int array;  (** lanes whose path visits the node *)
  edge_mask : int array;  (** per child slot: lanes taking that edge *)
}

let outputs b = b.outputs
let lanes b = b.lanes

let exec_batch p ~input_indices =
  if not p.deterministic then
    invalid_arg "Compile.exec_batch: deterministic programs only";
  let nlanes = Array.length input_indices in
  if nlanes = 0 || nlanes > max_lanes then
    invalid_arg "Compile.exec_batch: 1..62 lanes";
  Array.iter (check_profile p) input_indices;
  (* Lane masks per (player, input value): which lanes hold value [v]
     for player [j]. This is the bit-sliced image of the input planes. *)
  let pmask = Array.make_matrix p.players p.domain_size 0 in
  Array.iteri
    (fun lane prof ->
      let b = 1 lsl lane in
      Array.iteri (fun j v -> pmask.(j).(v) <- pmask.(j).(v) lor b) prof)
    input_indices;
  let node_mask = Array.make p.node_count 0 in
  let edge_mask = Array.make (Array.length p.children) 0 in
  let outputs = Array.make nlanes (-1) in
  node_mask.(p.root) <-
    (if nlanes = max_lanes then max_int else (1 lsl nlanes) - 1);
  for n = p.node_count - 1 downto 0 do
    let m = node_mask.(n) in
    if m <> 0 then
      if p.kind.(n) = kind_speak then begin
        let pm = pmask.(p.speaker.(n)) in
        let eb = p.emit_base.(n) and cb = p.child_base.(n) in
        for v = 0 to p.domain_size - 1 do
          let lv = m land pm.(v) in
          if lv <> 0 then begin
            let sym = p.point_sym.(p.law_of_input.(eb + v)) in
            edge_mask.(cb + sym) <- edge_mask.(cb + sym) lor lv;
            let c = p.children.(cb + sym) in
            node_mask.(c) <- node_mask.(c) lor lv
          end
        done
      end
      else begin
        (* Output leaf: record the value for each lane that landed. *)
        let v = p.out_value.(n) in
        let rest = ref m in
        while !rest <> 0 do
          let b = !rest land - !rest in
          let lane = ref 0 and bb = ref b in
          while !bb land 1 = 0 do
            incr lane;
            bb := !bb lsr 1
          done;
          outputs.(!lane) <- v;
          rest := !rest land (!rest - 1)
        done
      end
  done;
  { lanes = nlanes; outputs; node_mask; edge_mask }

(* A lane's transcript, read back off the edge masks: from the root,
   follow the unique outgoing edge carrying the lane's bit. Node ids
   strictly decrease along any root-to-leaf path, so this terminates in
   at most [node_count] steps. *)
let lane_transcript p b lane =
  if lane < 0 || lane >= b.lanes then
    invalid_arg "Compile.lane_transcript: lane out of range";
  let bit = 1 lsl lane in
  let rec go n acc =
    if p.kind.(n) = kind_output then List.rev acc
    else begin
      let cb = p.child_base.(n) in
      let sym = ref (-1) in
      for s = 0 to p.arity.(n) - 1 do
        if b.edge_mask.(cb + s) land bit <> 0 then sym := s
      done;
      if !sym < 0 then invalid_arg "Compile.lane_transcript: broken batch";
      go p.children.(cb + !sym) (Tree.Msg (p.speaker.(n), !sym) :: acc)
    end
  in
  go p.root []

let lane_bits p b lane =
  if lane < 0 || lane >= b.lanes then
    invalid_arg "Compile.lane_bits: lane out of range";
  let bit = 1 lsl lane in
  let total = ref 0 in
  for n = 0 to p.node_count - 1 do
    if p.kind.(n) = kind_speak && b.node_mask.(n) land bit <> 0 then
      total := !total + p.width.(n)
  done;
  !total

(* Batched input sweep: slice the profile list into 62-lane batches and
   advance each batch in one pass, across the Par domain pool. Order is
   preserved ([Par.parallel_map] keeps list order; lanes keep array
   order within a batch). *)
let exec_sweep ?domains p ~input_indices =
  let total = Array.length input_indices in
  if total = 0 then [||]
  else begin
    let nchunks = (total + max_lanes - 1) / max_lanes in
    let chunks =
      List.init nchunks (fun c ->
          let lo = c * max_lanes in
          Array.sub input_indices lo (Stdlib.min max_lanes (total - lo)))
    in
    let batches =
      Par.parallel_map ?domains
        (fun chunk -> (exec_batch p ~input_indices:chunk).outputs)
        chunks
    in
    Array.concat batches
  end

(* ------------------------------------------------------------------ *)
(* Disassembler — stable text rendering for golden tests and debug.    *)
(* ------------------------------------------------------------------ *)

let disassemble p =
  let b = Buffer.create 256 in
  Printf.bprintf b "players=%d domain=%d nodes=%d root=n%d det=%b\n" p.players
    p.domain_size p.node_count p.root p.deterministic;
  for n = p.node_count - 1 downto 0 do
    if p.kind.(n) = kind_output then
      Printf.bprintf b "n%d: out %d\n" n p.out_value.(n)
    else begin
      let cb = p.child_base.(n) in
      let kids =
        String.concat " "
          (List.init p.arity.(n) (fun s ->
               Printf.sprintf "n%d" p.children.(cb + s)))
      in
      if p.kind.(n) = kind_speak then begin
        let row =
          String.concat " "
            (List.init p.domain_size (fun v ->
                 Printf.sprintf "%d->L%d" v
                   p.law_of_input.(p.emit_base.(n) + v)))
        in
        Printf.bprintf b "n%d: speak p%d w%d [%s] kids[%s]\n" n p.speaker.(n)
          p.width.(n) row kids
      end
      else
        Printf.bprintf b "n%d: chance L%d kids[%s]\n" n p.coin_law.(n) kids
    end
  done;
  Array.iteri
    (fun i l ->
      let body =
        String.concat " "
          (List.map
             (fun (v, w) ->
               Printf.sprintf "%d:%s" v (Exact.Rational.to_string w))
             (D.to_alist l))
      in
      Printf.bprintf b "L%d: {%s}\n" i body)
    p.laws;
  Buffer.contents b
