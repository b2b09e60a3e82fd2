(* [run f] runs [f] in a forked child and returns its result,
   marshalled back through a pipe; the child's heap, caches and
   registrations die with it. The parent waits for the child before
   returning. *)
let run (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let v =
        match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (v : ('a, string) Stdlib.result) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = (Marshal.from_channel ic : ('a, string) Stdlib.result) in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match v with Ok v -> v | Error m -> failwith ("child process failed: " ^ m)
