type spec =
  | Crash of { player : int; after_sends : int }
  | Drop of { prob : float }
  | Delay of { max_jitter : int }
  | Equivocate of { player : int }

type plan = spec list

let none = []

let parse_item item =
  match String.index_opt item ':' with
  | None -> Error (Printf.sprintf "fault %S: expected kind:value" item)
  | Some i -> (
      let kind = String.sub item 0 i in
      let value = String.sub item (i + 1) (String.length item - i - 1) in
      match kind with
      | "crash" -> (
          match String.index_opt value '@' with
          | None -> (
              match int_of_string_opt value with
              | Some p when p >= 0 -> Ok (Crash { player = p; after_sends = 0 })
              | _ -> Error (Printf.sprintf "crash:%s: bad player index" value))
          | Some j -> (
              let p = String.sub value 0 j in
              let s = String.sub value (j + 1) (String.length value - j - 1) in
              match (int_of_string_opt p, int_of_string_opt s) with
              | Some p, Some s when p >= 0 && s >= 0 ->
                  Ok (Crash { player = p; after_sends = s })
              | _ -> Error (Printf.sprintf "crash:%s: expected P@S" value)))
      | "drop" -> (
          match float_of_string_opt value with
          | Some p when p >= 0. && p <= 1. -> Ok (Drop { prob = p })
          | _ ->
              Error (Printf.sprintf "drop:%s: expected probability in [0,1]" value))
      | "delay" -> (
          match int_of_string_opt value with
          | Some j when j >= 0 && j <= Sim.max_jitter_bound ->
              Ok (Delay { max_jitter = j })
          | _ ->
              Error
                (Printf.sprintf "delay:%s: bad jitter bound (expected 0..2^30)"
                   value))
      | "equiv" -> (
          match int_of_string_opt value with
          | Some p when p >= 0 -> Ok (Equivocate { player = p })
          | _ -> Error (Printf.sprintf "equiv:%s: bad player index" value))
      | other ->
          Error
            (Printf.sprintf
               "unknown fault kind %S (expected crash, drop, delay, equiv)"
               other))

(* Two crash (or two equivocation) specs naming the same player have no
   single sensible meaning — min-budget, last-wins and first-wins are
   all defensible — so the DSL rejects the ambiguity outright instead
   of silently picking one. *)
let duplicate_player plan spec =
  match spec with
  | Crash { player = p; _ } ->
      if List.exists (function Crash { player; _ } -> player = p | _ -> false) plan
      then Some (Printf.sprintf "duplicate crash spec for player %d" p)
      else None
  | Equivocate { player = p } ->
      if List.exists (function Equivocate { player } -> player = p | _ -> false) plan
      then Some (Printf.sprintf "duplicate equiv spec for player %d" p)
      else None
  | Drop _ | Delay _ -> None

let parse s =
  if String.trim s = "" then Ok []
  else
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.fold_left
         (fun acc item ->
           match (acc, parse_item item) with
           | Error e, _ -> Error e
           | Ok _, Error e -> Error e
           | Ok plan, Ok spec -> (
               match duplicate_player plan spec with
               | Some e -> Error e
               | None -> Ok (spec :: plan)))
         (Ok [])
    |> Result.map List.rev

let spec_to_string = function
  | Crash { player; after_sends = 0 } -> Printf.sprintf "crash:%d" player
  | Crash { player; after_sends } -> Printf.sprintf "crash:%d@%d" player after_sends
  | Drop { prob } -> Printf.sprintf "drop:%g" prob
  | Delay { max_jitter } -> Printf.sprintf "delay:%d" max_jitter
  | Equivocate { player } -> Printf.sprintf "equiv:%d" player

let to_string plan = String.concat "," (List.map spec_to_string plan)

let drop_prob plan =
  List.fold_left
    (fun acc -> function Drop { prob } -> prob | _ -> acc)
    0. plan

let max_jitter plan =
  List.fold_left
    (fun acc -> function Delay { max_jitter } -> max_jitter | _ -> acc)
    0 plan

(* Any player named anywhere in the plan must exist: both accessors
   check the whole plan, so a bad index surfaces no matter which one
   the runtime consults first. *)
let check plan ~k =
  let out_of_range = function
    | (Crash { player; _ } | Equivocate { player }) as spec
      when player < 0 || player >= k ->
        Some
          (Printf.sprintf "%s: player %d out of range [0, %d)"
             (spec_to_string spec) player k)
    | _ -> None
  in
  match List.find_map out_of_range plan with None -> Ok () | Some e -> Error e

let validate plan ~k =
  match check plan ~k with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fault: " ^ e)

let crash_budget plan ~k =
  validate plan ~k;
  let budget = Array.make k max_int in
  List.iter
    (function
      | Crash { player; after_sends } ->
          budget.(player) <- min budget.(player) after_sends
      | _ -> ())
    plan;
  budget

let equivocators plan ~k =
  validate plan ~k;
  let flags = Array.make k false in
  List.iter
    (function Equivocate { player } -> flags.(player) <- true | _ -> ())
    plan;
  flags
