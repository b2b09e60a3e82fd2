type write = { player : int; vec : Coding.Bitvec.t; label : string }

type t = {
  k : int;
  mutable rev_writes : write list;
  mutable total : int;
  by_player : int array;
  charged : bool;  (** posts emit Broadcast events and bump "board.*" *)
}

let create ~k =
  if k <= 0 then invalid_arg "Board.create: need at least one player";
  { k; rev_writes = []; total = 0; by_player = Array.make k 0; charged = true }

let scratch t = { t with by_player = Array.copy t.by_player; charged = false }

let players t = t.k

let post_vec t ~player ?(label = "") vec =
  if player < 0 || player >= t.k then invalid_arg "Board.post: bad player";
  let n = Coding.Bitvec.length vec in
  t.rev_writes <- { player; vec; label } :: t.rev_writes;
  t.total <- t.total + n;
  t.by_player.(player) <- t.by_player.(player) + n;
  (* Observability: every charged write in the repo funnels through
     here, so the trace's Broadcast events and the "board.*" counters
     are complete by construction — one event and one bump per message,
     never per bit. Guards first: with the null sink and no registry
     installed this is three predictable branches. *)
  if t.charged then begin
    if Obs.Trace.enabled () then
      Obs.Trace.emit (Obs.Event.Broadcast { player; bits = n; label });
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.bump "board.bits" n;
      Obs.Metrics.bump "board.messages" 1
    end
  end

let post t ~player ?label w =
  (* Zero-copy: freezing hands the writer's packed buffer straight to
     the board; the message is never re-boxed on its way across. *)
  post_vec t ~player ?label (Coding.Bitbuf.Writer.freeze w)

let writes t = List.rev t.rev_writes
let total_bits t = t.total
let write_count t = List.length t.rev_writes
let bits_by t i = t.by_player.(i)
let last_write t = match t.rev_writes with [] -> None | w :: _ -> Some w

let equal a b =
  a.k = b.k && a.total = b.total
  && List.length a.rev_writes = List.length b.rev_writes
  && List.for_all2
       (fun x y ->
         x.player = y.player && x.label = y.label
         && Coding.Bitvec.equal x.vec y.vec)
       a.rev_writes b.rev_writes
let reader_of_write w = Coding.Bitbuf.Reader.of_vec w.vec

let pp fmt t =
  Format.fprintf fmt "@[<v>board (%d players, %d bits):@," t.k t.total;
  List.iter
    (fun w ->
      Format.fprintf fmt "  p%d%s: %s@," w.player
        (if w.label = "" then "" else " [" ^ w.label ^ "]")
        (Coding.Bitvec.to_string w.vec))
    (writes t);
  Format.fprintf fmt "@]"
