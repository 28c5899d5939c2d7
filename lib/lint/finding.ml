type rule =
  | SA000
  | SA001
  | SA002
  | SA003
  | SA004
  | SA005
  | SA006
  | SA007
  | SA008
  | SA014
  | SA017
  | SA018

let all_rules =
  [ SA001; SA002; SA003; SA004; SA005; SA006; SA007; SA008; SA014; SA017;
    SA018 ]

let rule_name = function
  | SA000 -> "SA000"
  | SA001 -> "SA001"
  | SA002 -> "SA002"
  | SA003 -> "SA003"
  | SA004 -> "SA004"
  | SA005 -> "SA005"
  | SA006 -> "SA006"
  | SA007 -> "SA007"
  | SA008 -> "SA008"
  | SA014 -> "SA014"
  | SA017 -> "SA017"
  | SA018 -> "SA018"

let rule_of_string s =
  match String.uppercase_ascii s with
  | "SA000" -> Some SA000
  | "SA001" -> Some SA001
  | "SA002" -> Some SA002
  | "SA003" -> Some SA003
  | "SA004" -> Some SA004
  | "SA005" -> Some SA005
  | "SA006" -> Some SA006
  | "SA007" -> Some SA007
  | "SA008" -> Some SA008
  | "SA014" -> Some SA014
  | "SA017" -> Some SA017
  | "SA018" -> Some SA018
  | _ -> None

let rule_doc = function
  | SA000 -> "file could not be parsed (infrastructure failure, never baselined)"
  | SA001 ->
    "raw float comparison (=, <>, <, <=, >, >=, compare) — use Fp_geometry.Tol"
  | SA002 ->
    "Stdlib.Random or Hashtbl.randomize — all randomness must go through \
     Fp_util.Rng"
  | SA003 ->
    "console IO inside lib/ (stdout/stderr writes, stdin reads) — log \
     through Logs or return data; the console belongs to the CLI/bench \
     layer"
  | SA004 ->
    "wall-clock read or sleep (Unix.gettimeofday, Unix.times, Unix.sleep, \
     Sys.time) outside the sanctioned timing sites (Augment, CLI/bench \
     layer)"
  | SA005 ->
    "a Pool.run/Pool.map task, or a let-bound helper it calls, mutates \
     captured state without Atomic/Mutex (the disjoint-slot convention \
     excepted)"
  | SA006 ->
    "catch-all exception handler can swallow Augment.Abort / Fault.Injected \
     — match concrete exceptions, re-raise, or record for a later re-raise"
  | SA007 ->
    "fault-site literal absent from the canonical Fault.builtin catalogue \
     (or catalogue, registrations and docs/robustness.md drifted apart)"
  | SA008 ->
    "exit with an integer literal — exit codes come from the \
     Fp_core.Degradation mapping"
  | SA014 ->
    "raw channel open (open_in*, open_out*, In_channel.open_*, \
     Out_channel.open_*) — open through In_channel.with_open_* / \
     Out_channel.with_open_*, which close the channel on every exit"
  | SA017 ->
    "read-modify-write on an Atomic.t as separate get/set — racy between \
     domains; use compare_and_set, fetch_and_add or exchange"
  | SA018 ->
    "module-level mutable container (ref, Hashtbl, Array, Bytes, Queue, \
     Stack, Buffer) in lib/ — state that every pool task could race on; \
     pass it as an argument"

let rule_index = function
  | SA000 -> 0
  | SA001 -> 1
  | SA002 -> 2
  | SA003 -> 3
  | SA004 -> 4
  | SA005 -> 5
  | SA006 -> 6
  | SA007 -> 7
  | SA008 -> 8
  | SA014 -> 14
  | SA017 -> 17
  | SA018 -> 18

type t = { file : string; line : int; rule : rule; msg : string }

let v ~file ~line rule msg = { file; line; rule; msg }

let to_string t =
  Printf.sprintf "%s:%d %s %s" t.file t.line (rule_name t.rule) t.msg

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare (rule_index a.rule) (rule_index b.rule) in
      if c <> 0 then c else String.compare a.msg b.msg

(* One source defect, one finding: when several rules fire at the same
   file:line (a raw open whose contents are printed fires SA003 and
   SA014), keep only the lowest-numbered rule at that location.  Findings of
   the same rule at one line are all kept: the global SA007 checks
   legitimately report several distinct drifts at a file's line 1.
   Output stays sorted by (file, line, rule, msg) for stable diffs. *)
let dedupe findings =
  let sorted = List.sort_uniq compare findings in
  let rec go = function
    | [] -> []
    | f :: _ as group ->
      let same, rest =
        List.partition (fun g -> g.file = f.file && g.line = f.line) group
      in
      let min_rule =
        List.fold_left
          (fun m g -> Int.min m (rule_index g.rule))
          max_int same
      in
      List.filter (fun g -> rule_index g.rule = min_rule) same @ go rest
  in
  go sorted
