(* Tests for Fp_lint: rule detection on the corpus fixtures, role
   gating, SA005's walk into local helpers, finding dedupe, SARIF
   rendering, baseline parsing/matching/drift, and the repo-wide
   clean-against-baseline check. *)

module Finding = Fp_lint.Finding
module Rules = Fp_lint.Rules
module Baseline = Fp_lint.Baseline
module Driver = Fp_lint.Driver
module Sarif = Fp_lint.Sarif

let corpus = "lint_corpus"

let lint ?role name =
  let role = Option.value role ~default:Rules.Lib in
  Driver.lint_file ~role ~root:"." (Filename.concat corpus name)

let rule_names fs =
  List.sort_uniq String.compare
    (List.map (fun f -> Finding.rule_name f.Finding.rule) fs)

let check_rules msg expected fs =
  Alcotest.(check (list string)) msg expected (rule_names fs)

let msg_contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let some_msg_contains needle fs =
  Alcotest.(check bool)
    ("some finding mentions " ^ needle)
    true
    (List.exists (fun f -> msg_contains ~needle f.Finding.msg) fs)

(* ------------------------- corpus: positives ------------------------ *)

let test_sa001_pos () =
  let fs = lint "sa001_pos.ml" in
  check_rules "only SA001" [ "SA001" ] fs;
  Alcotest.(check int) "all four sites" 4 (List.length fs)

(* File mode joins [root] only to relative paths: an absolute path
   names the file itself. *)
let test_absolute_path () =
  let abs = Filename.concat (Sys.getcwd ()) (Filename.concat corpus "sa001_pos.ml") in
  let fs = Driver.lint_file ~role:Rules.Lib ~root:"." abs in
  check_rules "only SA001" [ "SA001" ] fs;
  Alcotest.(check int) "all four sites" 4 (List.length fs)

let test_sa002_pos () =
  let fs = lint "sa002_pos.ml" in
  check_rules "only SA002" [ "SA002" ] fs;
  Alcotest.(check int) "two Random uses + Hashtbl.randomize" 3
    (List.length fs)

let test_sa003_pos () =
  let fs = lint "sa003_pos.ml" in
  check_rules "only SA003" [ "SA003" ] fs;
  Alcotest.(check int) "three writers + read_line" 4 (List.length fs)

let test_sa004_pos () =
  let fs = lint "sa004_pos.ml" in
  check_rules "only SA004" [ "SA004" ] fs;
  Alcotest.(check int) "two clock reads + a sleep" 3 (List.length fs)

let test_sa005_pos () =
  let fs = lint "sa005_pos.ml" in
  check_rules "only SA005" [ "SA005" ] fs;
  Alcotest.(check int) "ref + field + helper + Bytes setter" 4
    (List.length fs);
  (* the helper's write is reported in the helper, naming it *)
  some_msg_contains "local helper mark" fs;
  some_msg_contains "mutates a captured Bytes" fs

let test_sa006_pos () =
  let fs = lint "sa006_pos.ml" in
  check_rules "only SA006" [ "SA006" ] fs;
  Alcotest.(check int) "both handlers" 2 (List.length fs)

(* SA011 reported a catch-all below a pool task at the task, and was the
   only guard where SA006 was out of force.  It is retired: SA006 is in
   force in every role and reports the handler itself. *)
let test_sa011_below_task () =
  Alcotest.(check bool) "SA011 is no longer a rule id" true
    (Finding.rule_of_string "SA011" = None);
  List.iter
    (fun (where, role) ->
      let fs = lint ~role "sa006_task_pos.ml" in
      check_rules ("only SA006 " ^ where) [ "SA006" ] fs;
      Alcotest.(check (list int))
        ("at the helper's handler " ^ where)
        [ 5 ]
        (List.map (fun f -> f.Finding.line) fs))
    [ ("in lib", Rules.Lib); ("in bin", Rules.Bin); ("in bench", Rules.Bench) ]

let test_sa007_pos () = check_rules "only SA007" [ "SA007" ] (lint "sa007_pos.ml")
let test_sa008_pos () = check_rules "only SA008" [ "SA008" ] (lint "sa008_pos.ml")

let test_sa000_unparseable () =
  check_rules "SA000 for garbage" [ "SA000" ] (lint "sa000_bad.ml")

(* ---------------------- corpus: protocol rules ---------------------- *)

let test_sa014_pos () =
  let fs = lint "sa014_pos.ml" in
  check_rules "only SA014" [ "SA014" ] fs;
  Alcotest.(check int) "three Stdlib opens + two module opens" 5
    (List.length fs);
  some_msg_contains "open_out_gen" fs;
  some_msg_contains "In_channel.open_text" fs

let test_sa017_pos () =
  let fs = lint "sa017_pos.ml" in
  check_rules "only SA017" [ "SA017" ] fs;
  Alcotest.(check int) "inline RMW + let-bound RMW" 2 (List.length fs);
  some_msg_contains "Atomic.get:10 -> Atomic.set:11" fs

(* ----------------------- corpus: module state ----------------------- *)

let test_sa018_pos () =
  let fs = lint "sa018_pos.ml" in
  check_rules "only SA018" [ "SA018" ] fs;
  Alcotest.(check int) "ref, Hashtbl, Array, Bytes, nested Buffer" 5
    (List.length fs);
  some_msg_contains "module-level Hashtbl.create" fs

(* ------------------------- corpus: negatives ------------------------ *)

let neg name () = check_rules (name ^ " clean") [] (lint name)

(* ------------------------------ roles ------------------------------- *)

let test_roles_gate_rules () =
  (* console IO, raw float comparisons and module-level state are
     lib-only concerns. *)
  check_rules "SA003 off outside lib" [] (lint ~role:Rules.Bench "sa003_pos.ml");
  check_rules "SA001 off outside lib" [] (lint ~role:Rules.Bin "sa001_pos.ml");
  check_rules "SA018 off outside lib" [] (lint ~role:Rules.Bin "sa018_pos.ml");
  (* the domain-safety, exception-flow and exit-code rules follow the
     code everywhere: a pool started from bin/ or bench/ must not lose
     Abort in a catch-all either. *)
  check_rules "SA005 on in bench" [ "SA005" ]
    (lint ~role:Rules.Bench "sa005_pos.ml");
  check_rules "SA006 on in bin" [ "SA006" ] (lint ~role:Rules.Bin "sa006_pos.ml");
  check_rules "SA006 on in bench" [ "SA006" ]
    (lint ~role:Rules.Bench "sa006_pos.ml");
  check_rules "SA008 on in examples" [ "SA008" ]
    (lint ~role:Rules.Examples "sa008_pos.ml")

(* --------------- interprocedural: SA005's helper walk --------------- *)

(* The one walk that crosses a function boundary: SA005 follows a pool
   task into the let-bound helpers of its own definition. *)
let lint_source src =
  Rules.check_structure ~ctx:Driver.default_context ~path:"lib/core/cell.ml"
    ~role:Rules.Lib
    (Parse.implementation (Lexing.from_string src))

(* The [Bytes] setter family writes its first argument, like
   [Bytes.set]: a helper stamping a captured buffer is a race. *)
let test_bytes_setter_mutates () =
  List.iter
    (fun write ->
      let fs =
        lint_source
          (Printf.sprintf
             "let stamp n =\n\
             \  let buf = Bytes.create 8 in\n\
             \  let put x = %s in\n\
             \  Fp_util.Pool.run ~jobs:4 ~n (fun i -> put i)\n"
             write)
      in
      check_rules write [ "SA005" ] fs;
      Alcotest.(check int) (write ^ ": one finding") 1 (List.length fs);
      some_msg_contains "local helper put" fs;
      some_msg_contains "mutates a captured Bytes" fs)
    [
      "Bytes.set_int64_le buf 0 (Int64.of_int x)";
      "Bytes.set_int32_be buf 0 (Int32.of_int x)";
      "Bytes.set_uint16_le buf 0 x";
      "Bytes.set_uint8 buf 0 x";
    ];
  (* a buffer the helper makes for itself is its own *)
  check_rules "helper-local buffer" []
    (lint_source
       "let stamp n =\n\
       \  let put x =\n\
       \    let b = Bytes.create 8 in\n\
       \    Bytes.set_int64_le b 0 (Int64.of_int x);\n\
       \    Bytes.get_uint8 b 0\n\
       \  in\n\
       \  Fp_util.Pool.map ~jobs:4 ~n (fun i -> put i)\n")

(* ------------------------------ dedupe ------------------------------ *)

let test_dedupe () =
  let f1 = Finding.v ~file:"lib/a.ml" ~line:10 Finding.SA003 "prints" in
  let f2 = Finding.v ~file:"lib/a.ml" ~line:10 Finding.SA014 "raw open" in
  let f3 = Finding.v ~file:"lib/a.ml" ~line:20 Finding.SA014 "elsewhere" in
  let d = Finding.dedupe [ f3; f2; f1; f1 ] in
  (* same file:line — the earlier rule wins; exact duplicates
     collapse; other lines are untouched. *)
  Alcotest.(check (list string))
    "earlier rule wins at a shared line"
    [ Finding.to_string f1; Finding.to_string f3 ]
    (List.map Finding.to_string d)

(* ------------------------------ SARIF ------------------------------- *)

let test_sarif_render () =
  let f = Finding.v ~file:"lib/a.ml" ~line:10 Finding.SA004 "clock" in
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
    in
    go 0
  in
  let doc = Sarif.render [ f ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle doc))
    [
      {|"version":"2.1.0"|};
      {|"name":"fp_lint"|};
      {|"ruleId":"SA004"|};
      {|"uri":"lib/a.ml"|};
      {|"uriBaseId":"SRCROOT"|};
      {|"startLine":10|};
    ];
  Alcotest.(check bool) "no suppressions when unbaselined" false
    (contains ~needle:{|"suppressions"|} doc);
  let entry =
    {
      Baseline.e_file = "lib/a.ml";
      e_line = Some 10;
      e_rule = Finding.SA004;
      e_just = "sanctioned timing site";
      e_src_line = 1;
    }
  in
  let doc = Sarif.render ~baseline:[ entry ] [ f ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("baselined: contains " ^ needle) true
        (contains ~needle doc))
    [ {|"suppressions"|}; {|"kind":"external"|}; {|sanctioned timing site|} ]

(* ----------------------------- baseline ----------------------------- *)

let entry file line rule just =
  {
    Baseline.e_file = file;
    e_line = line;
    e_rule = rule;
    e_just = just;
    e_src_line = 1;
  }

let test_baseline_parse () =
  let text =
    "# comment\n\
     \n\
     lib/lp/basis.ml SA001 -- LU kernel\n\
     lib/milp/branch_bound.ml:211 SA004 -- deadline enforcement\n"
  in
  match Baseline.parse ~path:"b" text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok [ a; b ] ->
    Alcotest.(check string) "file" "lib/lp/basis.ml" a.Baseline.e_file;
    Alcotest.(check (option int)) "whole file" None a.Baseline.e_line;
    Alcotest.(check (option int)) "pinned" (Some 211) b.Baseline.e_line;
    Alcotest.(check string) "justification" "deadline enforcement"
      b.Baseline.e_just
  | Ok es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)

let expect_parse_error what text =
  match Baseline.parse ~path:"b" text with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: parse unexpectedly succeeded" what

let test_baseline_rejects () =
  expect_parse_error "missing justification" "lib/a.ml SA001\n";
  expect_parse_error "empty justification" "lib/a.ml SA001 -- \n";
  expect_parse_error "unknown rule" "lib/a.ml SA999 -- why\n";
  expect_parse_error "SA000 not baselineable" "lib/a.ml SA000 -- why\n";
  expect_parse_error "malformed" "just some words\n"

let test_baseline_missing_is_error () =
  match Baseline.load "lint_corpus/no_such.baseline" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline silently became empty"

let test_baseline_apply () =
  let f1 = Finding.v ~file:"lib/a.ml" ~line:10 Finding.SA001 "x"
  and f2 = Finding.v ~file:"lib/a.ml" ~line:20 Finding.SA001 "y"
  and f3 = Finding.v ~file:"lib/b.ml" ~line:5 Finding.SA004 "z" in
  (* Whole-file entry covers every line of its rule in that file. *)
  let v =
    Baseline.apply [ entry "lib/a.ml" None Finding.SA001 "j" ] [ f1; f2; f3 ]
  in
  Alcotest.(check (list string)) "f3 unbaselined"
    [ Finding.to_string f3 ]
    (List.map Finding.to_string v.Baseline.unbaselined);
  Alcotest.(check int) "no stale" 0 (List.length v.Baseline.stale);
  (* Line-pinned entry covers exactly its line. *)
  let v =
    Baseline.apply
      [ entry "lib/a.ml" (Some 10) Finding.SA001 "j" ]
      [ f1; f2 ]
  in
  Alcotest.(check (list string)) "f2 left"
    [ Finding.to_string f2 ]
    (List.map Finding.to_string v.Baseline.unbaselined);
  (* An entry covering nothing is stale (drift check). *)
  let v = Baseline.apply [ entry "lib/gone.ml" (Some 3) Finding.SA001 "j" ] [] in
  Alcotest.(check int) "stale entry surfaces" 1 (List.length v.Baseline.stale)

let test_baseline_never_covers_sa000 () =
  let f = Finding.v ~file:"lib/a.ml" ~line:1 Finding.SA000 "unparseable" in
  let v = Baseline.apply [ entry "lib/a.ml" None Finding.SA000 "j" ] [ f ] in
  Alcotest.(check int) "SA000 stays" 1 (List.length v.Baseline.unbaselined)

(* --------------------- repo-wide baseline match --------------------- *)

(* The suite runs from _build/default/test; walk up to the real source
   root (the first ancestor holding dune-project and lint.baseline whose
   path is outside _build) and lint it exactly as `dune build @lint`
   does.  Skipped when no such root exists (e.g. opam sandbox). *)
let find_repo_root () =
  let rec up dir =
    let has f = Sys.file_exists (Filename.concat dir f) in
    let in_build =
      List.mem "_build" (String.split_on_char '/' dir)
    in
    if (not in_build) && has "dune-project" && has "lint.baseline" then
      Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let test_repo_clean_against_baseline () =
  match find_repo_root () with
  | None -> ()
  | Some root -> (
    let findings = Driver.lint_tree ~root () in
    match Baseline.load (Filename.concat root "lint.baseline") with
    | Error e -> Alcotest.failf "baseline: %s" e
    | Ok entries ->
      let v = Baseline.apply entries findings in
      Alcotest.(check (list string)) "no unbaselined findings" []
        (List.map Finding.to_string v.Baseline.unbaselined);
      Alcotest.(check int) "no stale baseline entries" 0
        (List.length v.Baseline.stale))

let test_repo_baseline_has_justifications () =
  match find_repo_root () with
  | None -> ()
  | Some root -> (
    match Baseline.load (Filename.concat root "lint.baseline") with
    | Error e -> Alcotest.failf "baseline: %s" e
    | Ok entries ->
      Alcotest.(check bool) "baseline is non-trivial" true
        (List.length entries > 0);
      List.iter
        (fun (e : Baseline.entry) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s has a real justification" e.Baseline.e_file)
            true
            (String.length (String.trim e.Baseline.e_just) >= 10))
        entries)

let () =
  Alcotest.run "fp_lint"
    [
      ( "corpus-pos",
        [
          Alcotest.test_case "SA001 float compares" `Quick test_sa001_pos;
          Alcotest.test_case "absolute file path" `Quick test_absolute_path;
          Alcotest.test_case "SA002 ambient Random" `Quick test_sa002_pos;
          Alcotest.test_case "SA003 stdout writes" `Quick test_sa003_pos;
          Alcotest.test_case "SA004 wall clock" `Quick test_sa004_pos;
          Alcotest.test_case "SA005 racy closures" `Quick test_sa005_pos;
          Alcotest.test_case "SA006 swallowing catch-alls" `Quick
            test_sa006_pos;
          Alcotest.test_case "SA007 unknown fault site" `Quick test_sa007_pos;
          Alcotest.test_case "SA008 literal exit" `Quick test_sa008_pos;
          Alcotest.test_case "SA000 unparseable" `Quick test_sa000_unparseable;
          Alcotest.test_case "SA011 swallowed below the task" `Quick
            test_sa011_below_task;
          Alcotest.test_case "SA014 channel lifecycle" `Quick test_sa014_pos;
          Alcotest.test_case "SA017 atomic get/set RMW" `Quick test_sa017_pos;
          Alcotest.test_case "SA018 module-level state" `Quick test_sa018_pos;
        ] );
      ( "corpus-neg",
        [
          Alcotest.test_case "tolerance compares" `Quick (neg "sa001_neg.ml");
          Alcotest.test_case "seeded rng" `Quick (neg "sa002_neg.ml");
          Alcotest.test_case "logging" `Quick (neg "sa003_neg.ml");
          Alcotest.test_case "logical clocks" `Quick (neg "sa004_neg.ml");
          Alcotest.test_case "synchronized closures" `Quick (neg "sa005_neg.ml");
          Alcotest.test_case "containment handlers" `Quick (neg "sa006_neg.ml");
          Alcotest.test_case "catalogued fault site" `Quick (neg "sa007_neg.ml");
          Alcotest.test_case "mapped exit codes" `Quick (neg "sa008_neg.ml");
          Alcotest.test_case "pure helper chains" `Quick
            (neg "sa005_helpers_neg.ml");
          Alcotest.test_case "contained handlers below tasks" `Quick
            (neg "sa006_task_neg.ml");
          Alcotest.test_case "blessed capture shapes" `Quick
            (neg "sa005_capture_neg.ml");
          Alcotest.test_case "protected channels" `Quick (neg "sa014_neg.ml");
          Alcotest.test_case "CAS and fetch_and_add" `Quick
            (neg "sa017_neg.ml");
          Alcotest.test_case "synchronized or per-call state" `Quick
            (neg "sa018_neg.ml");
        ] );
      ( "roles",
        [ Alcotest.test_case "role gating" `Quick test_roles_gate_rules ] );
      ( "interproc",
        [
          Alcotest.test_case "bytes setters mutate" `Quick
            test_bytes_setter_mutates;
        ] );
      ( "findings",
        [
          Alcotest.test_case "dedupe keeps the earlier rule" `Quick
            test_dedupe;
          Alcotest.test_case "sarif rendering" `Quick test_sarif_render;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "parse" `Quick test_baseline_parse;
          Alcotest.test_case "rejects bad entries" `Quick test_baseline_rejects;
          Alcotest.test_case "missing file is an error" `Quick
            test_baseline_missing_is_error;
          Alcotest.test_case "apply/stale" `Quick test_baseline_apply;
          Alcotest.test_case "SA000 uncoverable" `Quick
            test_baseline_never_covers_sa000;
        ] );
      ( "repo",
        [
          Alcotest.test_case "clean against baseline" `Quick
            test_repo_clean_against_baseline;
          Alcotest.test_case "justifications present" `Quick
            test_repo_baseline_has_justifications;
        ] );
    ]
