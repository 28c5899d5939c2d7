type t =
  | Budget_exhausted_warm_fallback
  | Raw_warm_packing
  | Net_bound_dropped of string list
  | Numerical_recovery of int
  | Deadline_truncated
  | Hook_failed of string
  | Candidate_failed of string
  | Worker_failure of string
  | Outline_exceeded of float
  | Engine_failed of string

let severity = function
  | Numerical_recovery _ | Hook_failed _ | Candidate_failed _
  | Worker_failure _ | Engine_failed _ -> 0
  | Budget_exhausted_warm_fallback | Deadline_truncated -> 1
  | Net_bound_dropped _ | Raw_warm_packing | Outline_exceeded _ -> 2

let degrades_quality t = severity t >= 1

(* Exception texts can contain anything; keep the rendering single-line
   and parenthesis-free so the whole value stays greppable. *)
let clean s =
  String.map (fun c -> if c = '\n' || c = '(' || c = ')' then ' ' else c) s

let to_string = function
  | Budget_exhausted_warm_fallback -> "budget_exhausted_warm_fallback"
  | Raw_warm_packing -> "raw_warm_packing"
  | Net_bound_dropped nets ->
    Printf.sprintf "net_bound_dropped(%s)" (String.concat "," nets)
  | Numerical_recovery n -> Printf.sprintf "numerical_recovery(%d)" n
  | Deadline_truncated -> "deadline_truncated"
  | Hook_failed msg -> Printf.sprintf "hook_failed(%s)" (clean msg)
  | Candidate_failed msg -> Printf.sprintf "candidate_failed(%s)" (clean msg)
  | Worker_failure msg -> Printf.sprintf "worker_failure(%s)" (clean msg)
  | Outline_exceeded by -> Printf.sprintf "outline_exceeded(%g)" by
  | Engine_failed msg -> Printf.sprintf "engine_failed(%s)" (clean msg)

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Process exit codes.  Every [exit] in bin/, bench/ and examples/ goes
   through these constants (the SA008 lint enforces it), so the
   degradation taxonomy is the single place the exit contract lives. *)
let exit_clean = 0
let exit_error = 1
let exit_degraded = 3

let exit_code ds =
  if List.exists degrades_quality ds then exit_degraded else exit_clean
