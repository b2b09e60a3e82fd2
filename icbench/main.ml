(* Benchmark entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a report, then as the last line one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]: the end-to-end
   metrics with [--trace 0], the per-layer metrics with [--trace 1].
   A copy of the result, with the run's environment, and the spans of
   a traced run go to [.icbench/]. *)

open Icbench

let out_dir = ".icbench"

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S operation time to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Catalog.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S; known: %s\n" !workload
          (String.concat ", " Catalog.names);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let args =
    { Harness.workload = w; seed = !seed; seconds = !seconds;
      trace = !trace = 1; smoke = false; min_ops = 100;
      out_dir = Some out_dir }
  in
  let o, env = Harness.run args in
  let metrics =
    Catalog.complete
      (if args.trace then Catalog.per_layer else Catalog.end_to_end)
      o.metrics
  in
  print_endline ("env: " ^ Obs.Jsonw.to_string (Obj env));
  List.iter print_endline o.notes;
  List.iteri
    (fun i m -> if i < 20 then print_endline ("FAILED " ^ m))
    o.failures;
  let result =
    Harness.result_json ~correct:o.correct ~attempted:o.attempted
      ~failed:o.failed metrics
  in
  let (Op.W { name; _ }) = w in
  let copy =
    Filename.concat out_dir
      (Printf.sprintf "result-%s-seed%d-trace%d.json" name !seed !trace)
  in
  Out_channel.with_open_text copy (fun oc ->
      Obs.Jsonw.to_channel oc (Obj (env @ [ ("result", result) ]));
      output_char oc '\n');
  print_endline (Obs.Jsonw.to_string result)
