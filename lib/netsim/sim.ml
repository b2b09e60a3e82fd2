type envelope = { src : int; dst : int; payload : int; bits : int }

let max_jitter_bound = 1 lsl 30

(* Radix heap keyed on delivery time (Ahuja, Mehlhorn, Orlin & Tarjan
   1990). Keys never fall below [now], the last delivered time: bucket
   0 holds the messages due at [now], and bucket [b >= 1] the times
   whose highest bit differing from [now] is bit [b - 1]. Non-negative
   times differ from [now] below bit 62, so 63 buckets cover them all. *)
let buckets = 63

(* The pending messages, as int columns in one pool. [next] threads
   both the FIFO bucket lists and the free list; -1 ends a list. *)
type pool = {
  mutable time : int array;
  mutable src : int array;
  mutable dst : int array;
  mutable bits : int array;
  mutable handle : int array;
  mutable next : int array;
  mutable free : int;
  head : int array;  (* per bucket: first slot, or -1 when empty *)
  tail : int array;  (* per non-empty bucket: last slot *)
}

let new_pool () =
  { time = [||]; src = [||]; dst = [||]; bits = [||]; handle = [||];
    next = [||]; free = -1; head = Array.make buckets (-1);
    tail = Array.make buckets (-1) }

(* Held by a network with nothing in flight; never written. *)
let no_pool = new_pool ()

(* A drained network's pool, kept for the next network that sends on
   this domain: a warm wave allocates no queue. *)
let stash : pool option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let acquire () =
  let s = Domain.DLS.get stash in
  match !s with Some p -> s := None; p | None -> new_pool ()

(* Double the columns; called only with the free list empty. *)
let grow p =
  let cap = Array.length p.time in
  let cap' = max 64 (2 * cap) in
  let extend a =
    let b = Array.make cap' 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  p.time <- extend p.time;
  p.src <- extend p.src;
  p.dst <- extend p.dst;
  p.bits <- extend p.bits;
  p.handle <- extend p.handle;
  p.next <- extend p.next;
  for i = cap to cap' - 1 do
    p.next.(i) <- (if i + 1 < cap' then i + 1 else -1)
  done;
  p.free <- cap

(* Byte [x] of [msb_table] is the index of the highest set bit of
   [x], for [x] in 1..255. *)
let msb_table =
  String.init 256 (fun x ->
      let r = ref 0 in
      while x lsr (!r + 1) <> 0 do
        incr r
      done;
      Char.chr !r)

(* Index of the highest set bit of [x > 0], plus [r]: a byte at a time,
   so one load when [x] fits a byte, as the gaps of jitter-free and
   small-jitter traffic do. *)
let rec msb_from x r =
  if x < 256 then r + Char.code (String.unsafe_get msb_table x)
  else msb_from (x lsr 8) (r + 8)

let bucket ~now time = if time = now then 0 else 1 + msb_from (time lxor now) 0

let append p b i =
  p.next.(i) <- -1;
  if p.head.(b) < 0 then p.head.(b) <- i else p.next.(p.tail.(b)) <- i;
  p.tail.(b) <- i

type t = {
  rng : Prob.Rng.t;
  drop_prob : float;
  max_jitter : int;
  mutable pool : pool;
  mutable size : int;
  mutable now : int;
  mutable sent : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable bits_sent : int;
}

let create ?(drop_prob = 0.) ?(max_jitter = 0) ~seed () =
  if drop_prob < 0. || drop_prob > 1. then
    invalid_arg "Sim.create: drop_prob outside [0, 1]";
  if max_jitter < 0 then invalid_arg "Sim.create: negative max_jitter";
  if max_jitter > max_jitter_bound then
    invalid_arg "Sim.create: max_jitter above 2^30";
  { rng = Prob.Rng.of_int_seed seed; drop_prob; max_jitter; pool = no_pool;
    size = 0; now = 0; sent = 0; dropped = 0; delivered = 0; bits_sent = 0 }

let send t ~src ~dst ~bits handle =
  if t.drop_prob > 0. && Prob.Rng.bernoulli t.rng t.drop_prob then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    let jitter =
      if t.max_jitter = 0 then 0 else Prob.Rng.int t.rng (t.max_jitter + 1)
    in
    if t.pool == no_pool then t.pool <- acquire ();
    let p = t.pool in
    if p.free < 0 then grow p;
    let i = p.free in
    p.free <- p.next.(i);
    let time = t.now + 1 + jitter in
    p.time.(i) <- time;
    p.src.(i) <- src;
    p.dst.(i) <- dst;
    p.bits.(i) <- bits;
    p.handle.(i) <- handle;
    (* Sends append in sequence order, so equal times stay FIFO. *)
    append p (bucket ~now:t.now time) i;
    t.size <- t.size + 1;
    t.sent <- t.sent + 1;
    t.bits_sent <- t.bits_sent + bits;
    true
  end

(* Bucket 0 is empty: the least time in the least non-empty bucket
   becomes [now], and that bucket moves, in order, into the lower
   buckets, all empty. Equal times share a bucket, so bucket 0 ends up
   holding the messages due at [now] in sequence order. *)
let refill t p =
  let b = ref 1 in
  while p.head.(!b) < 0 do
    incr b
  done;
  let first = p.head.(!b) in
  p.head.(!b) <- -1;
  let least = ref max_int and i = ref first in
  while !i >= 0 do
    if p.time.(!i) < !least then least := p.time.(!i);
    i := p.next.(!i)
  done;
  t.now <- !least;
  i := first;
  while !i >= 0 do
    let next = p.next.(!i) in
    append p (bucket ~now:t.now p.time.(!i)) !i;
    i := next
  done

let run t ~deliver =
  while t.size > 0 do
    let p = t.pool in
    if p.head.(0) < 0 then refill t p;
    let i = p.head.(0) in
    p.head.(0) <- p.next.(i);
    let env =
      { src = p.src.(i); dst = p.dst.(i); payload = p.handle.(i);
        bits = p.bits.(i) }
    in
    p.next.(i) <- p.free;
    p.free <- i;
    t.size <- t.size - 1;
    t.delivered <- t.delivered + 1;
    deliver env
  done;
  if t.pool != no_pool then begin
    Domain.DLS.get stash := Some t.pool;
    t.pool <- no_pool
  end

let now t = t.now
let sent t = t.sent
let dropped t = t.dropped
let delivered t = t.delivered
let bits_sent t = t.bits_sent
