(* Oracle checks run after each operation, outside its timer. A check
   raises [Mismatch] on disagreement; the harness counts the operation
   as failed.

   [corrupt] makes every expected value a check compares against
   deliberately wrong. The self-test sets it to prove that each
   workload's oracles can fail, i.e. that [fail_ratio] is not
   vacuously 0. *)

exception Mismatch of string

let corrupt = ref false
let fail fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

let close ?(tol = 1e-9) what ~got ~want =
  let want = if !corrupt then want +. 1. else want in
  if not (Float.abs (got -. want) <= tol) then
    fail "%s: got %.17g, want %.17g" what got want

let int_eq what ~got ~want =
  let want = if !corrupt then want + 1 else want in
  if got <> want then fail "%s: got %d, want %d" what got want

let bool_eq what ~got ~want =
  let want = if !corrupt then not want else want in
  if got <> want then fail "%s: got %b, want %b" what got want

(* A relation between two measured values ([a <= b] up to [tol]). *)
let le ?(tol = 1e-9) what a b =
  if not (a <= b +. tol) then fail "%s: %.17g > %.17g" what a b

let holds what cond = if not cond then fail "%s" what
