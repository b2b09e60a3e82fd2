(* One player's Bracha machine for one slot, built so that a message
   that crosses no threshold allocates nothing.

   Votes sit in vote cells: the distinct values this machine has heard
   echoed or readied, in first-seen order, each with the number of
   distinct senders that echoed it and that readied it. A value's cell
   is found by a linear scan with [Bitvec.equal]: an honest slot
   carries one value and an equivocating speaker two, so a vote builds
   no key and hashes nothing. A sender's one ECHO vote and one READY
   vote are a byte each in [echoed_from] / [readied_from]. *)

type phase = Send | Echo | Ready

let phase_to_string = function
  | Send -> "send"
  | Echo -> "echo"
  | Ready -> "ready"

type action = Broadcast of phase * Coding.Bitvec.t | Deliver of Coding.Bitvec.t

(* Votes for one value: how many distinct senders echoed / readied it. *)
type cell = { value : Coding.Bitvec.t; mutable echoes : int; mutable readies : int }

type t = {
  n : int;
  f : int;
  speaker : int;  (* the one player whose SEND counts *)
  mutable cells : cell array;  (* [0, used): first-seen order *)
  mutable used : int;
  echoed_from : Bytes.t;  (* nonzero: sender already cast its one ECHO vote *)
  readied_from : Bytes.t;
  mutable sent_echo : bool;
  mutable sent_ready : bool;
  mutable delivered : Coding.Bitvec.t option;
}

let echo_threshold ~n ~f = ((n + f) / 2) + 1
let ready_amplify ~f = f + 1
let deliver_threshold ~f = (2 * f) + 1

let create ~n ~f ~speaker () =
  if f < 0 then invalid_arg "Rbc.create: negative f";
  if n <= 3 * f then invalid_arg "Rbc.create: need n > 3f";
  if speaker < 0 || speaker >= n then invalid_arg "Rbc.create: bad speaker";
  {
    n;
    f;
    speaker;
    cells = [||];
    used = 0;
    echoed_from = Bytes.make n '\000';
    readied_from = Bytes.make n '\000';
    sent_echo = false;
    sent_ready = false;
    delivered = None;
  }

(* The index of [value]'s cell, or [t.used] if it has none. *)
let rec find_cell t value i =
  if i = t.used || Coding.Bitvec.equal t.cells.(i).value value then i
  else find_cell t value (i + 1)

let votes_for t value =
  let i = find_cell t value 0 in
  if i < t.used then t.cells.(i)
  else begin
    let c = { value; echoes = 0; readies = 0 } in
    if i = Array.length t.cells then
      t.cells <- Array.append t.cells (Array.make (max 2 i) c);
    t.cells.(i) <- c;
    t.used <- i + 1;
    c
  end

let delivered t = t.delivered

(* Threshold reactions shared by the ECHO and READY counting paths:
   turning READY is one-shot, delivery is one-shot, and an enabling
   READY is emitted before the Deliver it makes possible. With no
   threshold crossed this returns [[]] and allocates nothing. *)
let react t v =
  let acts = ref [] in
  if
    (not t.sent_ready)
    && (v.echoes >= echo_threshold ~n:t.n ~f:t.f
       || v.readies >= ready_amplify ~f:t.f)
  then begin
    t.sent_ready <- true;
    acts := Broadcast (Ready, v.value) :: !acts
  end;
  if Option.is_none t.delivered && v.readies >= deliver_threshold ~f:t.f then begin
    t.delivered <- Some v.value;
    acts := Deliver v.value :: !acts
  end;
  List.rev !acts

let handle t ~from phase value =
  if from < 0 || from >= t.n then invalid_arg "Rbc.handle: bad sender";
  match phase with
  | Send ->
      (* Only the speaker's first SEND triggers the echo: a SEND from
         anyone else is a forgery, and an equivocator's second value
         reaches us only through other players' echoes. *)
      if t.sent_echo || from <> t.speaker then []
      else begin
        t.sent_echo <- true;
        [ Broadcast (Echo, value) ]
      end
  | Echo ->
      if Bytes.get t.echoed_from from <> '\000' then []
      else begin
        Bytes.set t.echoed_from from '\001';
        let v = votes_for t value in
        v.echoes <- v.echoes + 1;
        react t v
      end
  | Ready ->
      if Bytes.get t.readied_from from <> '\000' then []
      else begin
        Bytes.set t.readied_from from '\001';
        let v = votes_for t value in
        v.readies <- v.readies + 1;
        react t v
      end
