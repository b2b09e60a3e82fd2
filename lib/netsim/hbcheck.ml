(** Dynamic happens-before checker for pipelined board emulation.

    The static analysis ([Analysis.Depgraph]) proves which earlier
    slots each slot may read and partitions slots into waves; this
    module is the {e runtime oracle} for that claim. It watches the
    network-level lifecycle of every reliable-broadcast instance —
    when a slot's initial SEND fan-out is launched and when each player
    delivers it — and flags a race whenever a slot is launched while
    some slot it reads has not yet been delivered {e at the launching
    speaker}. In a faithful distributed deployment the speaker could
    not have computed that payload; the orchestrated emulation masks
    the problem (it computes payloads sequentially), so this checker is
    what keeps the pipelined mode honest. [check] hard-errors on any
    recorded race.

    The certificate is carried as plain arrays so the netsim layer
    stays independent of the analysis library; [validate_cert] checks
    the structural soundness invariant (every slot's reads lie strictly
    before its own wave) that makes a wave partition race-free by
    construction. *)

type cert = {
  slots : int;  (** slots covered by the analysis *)
  reads : int array array;
      (** per covered slot, the earlier slots it may read *)
  waves : int array;
      (** ascending wave-start boundaries, first is 0 when [slots > 0] *)
}

let sequential_cert ~slots =
  {
    slots;
    reads = Array.init slots (fun t -> Array.init t Fun.id);
    waves = Array.init slots Fun.id;
  }

let wave_start_of waves slot =
  let w = ref 0 in
  Array.iter (fun b -> if b <= slot then w := b) waves;
  !w

let validate_cert c =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  if c.slots < 0 then err "negative slot count"
  else if c.slots > 0 && (Array.length c.waves = 0 || c.waves.(0) <> 0) then
    err "waves must start at slot 0"
  else if Array.length c.reads <> c.slots then
    err "reads table covers %d slots, certificate declares %d"
      (Array.length c.reads) c.slots
  else begin
    let ok = ref (Ok ()) in
    Array.iteri
      (fun i b ->
        if i > 0 && b <= c.waves.(i - 1) then
          ok := err "wave boundaries not strictly ascending at %d" b;
        if b < 0 || b >= max c.slots 1 then
          ok := err "wave boundary %d out of range" b)
      c.waves;
    Array.iteri
      (fun t rs ->
        let w = wave_start_of c.waves t in
        Array.iter
          (fun s ->
            if s < 0 || s >= t then
              ok := err "slot %d reads non-earlier slot %d" t s
            else if s >= w then
              ok :=
                err
                  "slot %d reads slot %d inside its own wave (start %d): \
                   pipelining would race"
                  t s w)
          rs)
      c.reads;
    !ok
  end

type race = { slot : int; speaker : int; missing : int }

type t = {
  cert : cert;
  k : int;
  mutable delivered : bool array array;
      (** per slot, which players delivered it ([[||]] = none yet) *)
  launched : (int, unit) Hashtbl.t;
  mutable races : race list;
}

let create cert ~k =
  {
    cert;
    k;
    delivered = [||];
    launched = Hashtbl.create 16;
    races = [];
  }

let race_message { slot; speaker; missing } =
  Printf.sprintf
    "hbcheck: slot %d launched by player %d before slot %d (which it reads) \
     was delivered at that player"
    slot speaker missing

let delivered_at t ~slot ~player =
  slot < Array.length t.delivered
  &&
  let d = t.delivered.(slot) in
  Array.length d > 0 && d.(player)

(* Slots past the analyzed range are treated as reading every earlier
   slot — the conservative fallback the emulation also applies (it runs
   them as singleton waves). *)
let note_launch t ~slot ~speaker =
  if not (Hashtbl.mem t.launched slot) then begin
    Hashtbl.replace t.launched slot ();
    let read s =
      if not (delivered_at t ~slot:s ~player:speaker) then
        t.races <- { slot; speaker; missing = s } :: t.races
    in
    if slot < t.cert.slots then Array.iter read t.cert.reads.(slot)
    else
      for s = 0 to slot - 1 do
        read s
      done
  end

let note_deliver t ~slot ~player =
  let n = Array.length t.delivered in
  if slot >= n then begin
    let grown = Array.make (max (slot + 1) (2 * n)) [||] in
    Array.blit t.delivered 0 grown 0 n;
    t.delivered <- grown
  end;
  if Array.length t.delivered.(slot) = 0 then
    t.delivered.(slot) <- Array.make t.k false;
  t.delivered.(slot).(player) <- true

let observe t payload =
  match payload with
  | Obs.Event.Rbc_send { slot; src; _ } -> note_launch t ~slot ~speaker:src
  | Obs.Event.Rbc_deliver { slot; player; _ } -> note_deliver t ~slot ~player
  | _ -> ()

let races t = List.rev t.races
let ok t = t.races = []

let check t =
  match races t with
  | [] -> ()
  | r :: _ as all ->
      failwith
        (Printf.sprintf "%s (%d race(s) total)" (race_message r)
           (List.length all))
