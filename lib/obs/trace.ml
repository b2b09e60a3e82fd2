let current : Sink.t ref = ref Sink.null
let seq = ref 0

let sink () = !current
let enabled () = not (Sink.is_null !current)

let reset () =
  current := Sink.null;
  seq := 0

let emit payload =
  let s = !current in
  if not (Sink.is_null s) then begin
    incr seq;
    Sink.send s { Event.seq = !seq; payload }
  end

let next_seq () = !seq

let with_span name f =
  if Sink.is_null !current then f ()
  else begin
    emit (Event.Span_start { name });
    let t0 = Sys.time () in
    match f () with
    | v ->
        emit (Event.Span_end { name; seconds = Sys.time () -. t0 });
        v
    | exception e ->
        emit (Event.Span_end { name; seconds = Sys.time () -. t0 });
        raise e
  end

let with_sink s f =
  let saved = !current in
  current := s;
  match f () with
  | v ->
      Sink.flush s;
      current := saved;
      v
  | exception e ->
      Sink.flush s;
      current := saved;
      raise e
