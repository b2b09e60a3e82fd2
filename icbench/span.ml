(* In-memory span recorder for the traced benchmark run.

   A span is (name, operation id, parent, start, end, minor words at
   start, minor words at end). Spans live in growable struct-of-arrays
   buffers, so recording one allocates nothing on the OCaml heap
   outside the occasional buffer growth; the rollup and the file dump
   happen after the timed region. Every timing in the benchmark reads
   the same monotonic clock ([now_ns]). *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())
let minor_words () = int_of_float (Gc.minor_words ())

type buf = {
  mutable len : int;
  mutable name : int array;  (* index into [names] *)
  mutable op : int array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable w0 : int array;
  mutable w1 : int array;
}

let fresh () =
  let a () = Array.make 4096 0 in
  { len = 0; name = a (); op = a (); parent = a (); t0 = a (); t1 = a ();
    w0 = a (); w1 = a () }

let buf = ref (fresh ())
let enabled = ref false
let current_op = ref (-1)
let top = ref (-1)  (* innermost open span, -1 at the root *)
let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_of_id : string array ref = ref [||]

type id = int

(* Span names are interned once, where the wrapping code is defined. *)
let id s : id =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names s i;
      name_of_id := Array.append !name_of_id [| s |];
      i

let name (i : id) = !name_of_id.(i)

let grow b =
  let g a =
    let a' = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 a' 0 b.len;
    a'
  in
  b.name <- g b.name; b.op <- g b.op; b.parent <- g b.parent;
  b.t0 <- g b.t0; b.t1 <- g b.t1; b.w0 <- g b.w0; b.w1 <- g b.w1

let start () =
  buf := fresh ();
  top := -1;
  current_op := -1;
  enabled := true

let stop () = enabled := false
let set_op i = current_op := i

let finish b i saved =
  b.t1.(i) <- now_ns ();
  b.w1.(i) <- minor_words ();
  top := saved

(* [wrap id f] is [f ()], recorded as a span named [id] when the
   recorder is on. The span is closed on exceptions too, so a failing
   operation still nests correctly. *)
let wrap (id : id) f =
  if not !enabled then f ()
  else begin
    let b = !buf in
    if b.len = Array.length b.name then grow b;
    let i = b.len in
    b.len <- i + 1;
    b.name.(i) <- id;
    b.op.(i) <- !current_op;
    b.parent.(i) <- !top;
    let saved = !top in
    top := i;
    b.w0.(i) <- minor_words ();
    b.t0.(i) <- now_ns ();
    match f () with
    | v ->
        finish b i saved;
        v
    | exception e ->
        finish b i saved;
        raise e
  end

type span = {
  s_name : string;
  s_op : int;
  s_parent : int;
  s_ns : int;  (* inclusive duration *)
  self_ns : int;
  self_words : int;
}

(* Inclusive and self figures of every recorded span. Self = the span
   minus its direct children. *)
let spans () =
  let b = !buf in
  let n = b.len in
  let child_ns = Array.make n 0 and child_w = Array.make n 0 in
  for i = 0 to n - 1 do
    let p = b.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (b.t1.(i) - b.t0.(i));
      child_w.(p) <- child_w.(p) + (b.w1.(i) - b.w0.(i))
    end
  done;
  Array.init n (fun i ->
      let d = b.t1.(i) - b.t0.(i) and w = b.w1.(i) - b.w0.(i) in
      {
        s_name = !name_of_id.(b.name.(i));
        s_op = b.op.(i);
        s_parent = b.parent.(i);
        s_ns = d;
        self_ns = d - child_ns.(i);
        self_words = w - child_w.(i);
      })

(* Nesting invariant: no span's children together outlast it, so no
   child's self time can exceed its parent's inclusive time. Returns
   the violations as messages. *)
let check_nesting spans =
  let bad = ref [] in
  Array.iteri
    (fun i s ->
      if s.self_ns < 0 then
        bad := Printf.sprintf "span %d (%s): children outlast it" i s.s_name
               :: !bad;
      if s.s_parent >= 0 then begin
        let p = spans.(s.s_parent) in
        if s.self_ns > p.s_ns then
          bad := Printf.sprintf "span %d (%s): self %d ns > parent %s %d ns"
                   i s.s_name s.self_ns p.s_name p.s_ns
                 :: !bad
      end)
    spans;
  List.rev !bad

(* Write the spans, one tab-separated line each: name id, operation,
   parent line (-1 at the root), start (ns since the first span),
   duration (ns) and minor words allocated. Lines are numbered from 0
   in recording order; comment lines first map the name ids. *)
let dump path =
  let b = !buf in
  let oc = open_out path in
  Array.iteri (fun i n -> Printf.fprintf oc "# name %d %s\n" i n) !name_of_id;
  output_string oc "# name\top\tparent\tstart_ns\tdur_ns\tminor_words\n";
  let origin = if b.len > 0 then b.t0.(0) else 0 in
  for i = 0 to b.len - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%d\t%d\t%d\n" b.name.(i) b.op.(i)
      b.parent.(i) (b.t0.(i) - origin) (b.t1.(i) - b.t0.(i))
      (b.w1.(i) - b.w0.(i))
  done;
  close_out oc
