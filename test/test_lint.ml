(* Tests for Fp_lint: rule detection on the corpus fixtures (syntactic
   and interprocedural), call-graph resolution, effect-fixpoint
   convergence, finding dedupe, SARIF rendering, baseline
   parsing/matching/drift, and the repo-wide clean-against-baseline
   check. *)

module Finding = Fp_lint.Finding
module Rules = Fp_lint.Rules
module Baseline = Fp_lint.Baseline
module Driver = Fp_lint.Driver
module Callgraph = Fp_lint.Callgraph
module Effects = Fp_lint.Effects
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

(* ------------------------- corpus: positives ------------------------ *)

let test_sa001_pos () =
  let fs = lint "sa001_pos.ml" in
  check_rules "only SA001" [ "SA001" ] fs;
  Alcotest.(check int) "all four sites" 4 (List.length fs)

let test_sa002_pos () = check_rules "only SA002" [ "SA002" ] (lint "sa002_pos.ml")
let test_sa003_pos () =
  let fs = lint "sa003_pos.ml" in
  check_rules "only SA003" [ "SA003" ] fs;
  Alcotest.(check int) "all three writers" 3 (List.length fs)

let test_sa004_pos () = check_rules "only SA004" [ "SA004" ] (lint "sa004_pos.ml")

let test_sa005_pos () =
  let fs = lint "sa005_pos.ml" in
  (* The two direct mutations stay SA005; the worker-index escape moved
     to the interprocedural escape rule (SA012), which supersedes the
     old syntactic heuristic. *)
  check_rules "SA005 + SA012" [ "SA005"; "SA012" ] fs;
  Alcotest.(check int) "ref + field + worker escape" 3 (List.length fs)

let test_sa006_pos () =
  let fs = lint "sa006_pos.ml" in
  check_rules "only SA006" [ "SA006" ] fs;
  Alcotest.(check int) "both handlers" 2 (List.length fs)

let test_sa007_pos () = check_rules "only SA007" [ "SA007" ] (lint "sa007_pos.ml")
let test_sa008_pos () = check_rules "only SA008" [ "SA008" ] (lint "sa008_pos.ml")

let test_sa000_unparseable () =
  check_rules "SA000 for garbage" [ "SA000" ] (lint "sa000_bad.ml")

(* ------------------ corpus: interprocedural rules ------------------- *)

let test_sa010_pos () =
  let fs = lint "sa010_pos.ml" in
  (* Hashtbl.randomize and read_line sit two helpers below the task:
     no syntactic rule fires on this file — only the transitive effect
     pass sees the taint. *)
  check_rules "only SA010 — old rules are blind here" [ "SA010" ] fs;
  Alcotest.(check int) "rng chain + io chain" 2 (List.length fs)

let test_sa011_pos () =
  let fs = lint "sa011_pos.ml" in
  (* The helper's own handler is SA006 (syntactic, at the handler);
     SA011 adds the task-level view (at the task, one call up). *)
  check_rules "SA006 at the handler, SA011 at the task" [ "SA006"; "SA011" ]
    fs;
  Alcotest.(check int) "one of each" 2 (List.length fs)

let test_sa012_pos () =
  let fs = lint "sa012_pos.ml" in
  check_rules "only SA012" [ "SA012" ] fs;
  Alcotest.(check int) "captured-arg + transitive + local helper" 3
    (List.length fs)

(* ---------------------- corpus: protocol rules ---------------------- *)

let msg_contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let some_msg_contains needle fs =
  Alcotest.(check bool)
    ("some finding mentions " ^ needle)
    true
    (List.exists (fun f -> msg_contains ~needle f.Finding.msg) fs)

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

(* ------------------------- corpus: negatives ------------------------ *)

let neg name () = check_rules (name ^ " clean") [] (lint name)

(* ------------------------------ roles ------------------------------- *)

let test_roles_gate_rules () =
  (* stdout writes and raw float comparisons are lib-only concerns. *)
  check_rules "SA003 off outside lib" [] (lint ~role:Rules.Bench "sa003_pos.ml");
  check_rules "SA001 off outside lib" [] (lint ~role:Rules.Bin "sa001_pos.ml");
  (* the domain-safety and exit-code rules follow the code everywhere. *)
  check_rules "SA005/SA012 on in bench" [ "SA005"; "SA012" ]
    (lint ~role:Rules.Bench "sa005_pos.ml");
  check_rules "SA008 on in examples" [ "SA008" ]
    (lint ~role:Rules.Examples "sa008_pos.ml");
  (* replay taint is a lib concern; exception swallowing below a pool
     task matters everywhere — at Bench the syntactic SA006 is off, so
     SA011 is the only thing standing between Abort and the void. *)
  check_rules "SA010 off outside lib" []
    (lint ~role:Rules.Bench "sa010_pos.ml");
  check_rules "SA011 alone in bench" [ "SA011" ]
    (lint ~role:Rules.Bench "sa011_pos.ml");
  check_rules "SA012 on in bin" [ "SA012" ]
    (lint ~role:Rules.Bin "sa012_pos.ml")

(* ----------------- call graph and effect inference ------------------ *)

let parse src = Parse.implementation (Lexing.from_string src)

let graph sources =
  let cg = Callgraph.of_sources (List.map (fun (p, s) -> (p, parse s)) sources)
  in
  (cg, Effects.infer cg)

let callees cg q =
  List.sort_uniq String.compare
    (List.map (fun c -> c.Callgraph.callee) (Callgraph.calls cg q))

let test_callgraph_resolution () =
  let cg, summaries =
    graph
      [
        ("lib/core/alpha.ml", "let tick () = Unix.gettimeofday ()");
        ( "lib/core/beta.ml",
          "open Alpha\n\
           let go () = tick ()\n\
           module A = Alpha\n\
           let go2 () = A.tick ()\n\
           let go3 () = Fp_core.Alpha.tick ()" );
      ]
  in
  (* cross-module resolution through open, module alias, and the
     Fp_* dune-wrapper prefix all land on the same node. *)
  List.iter
    (fun q ->
      Alcotest.(check (list string))
        (q ^ " resolves through to Alpha.tick") [ "Alpha.tick" ] (callees cg q);
      Alcotest.(check bool)
        (q ^ " inherits the clock effect")
        true
        (Effects.has Effects.Clock (Effects.summary_of summaries q)))
    [ "Beta.go"; "Beta.go2"; "Beta.go3" ];
  (* and the witness chain names the whole path, primitive included. *)
  Alcotest.(check (list string))
    "witness chain"
    [ "Beta.go"; "Alpha.tick"; "Unix.gettimeofday" ]
    (Effects.chain summaries "Beta.go" Effects.Clock)

let test_fixpoint_cycle_converges () =
  let _, summaries =
    graph
      [
        ( "lib/core/looper.ml",
          "let rec ping n = if n = 0 then Unix.gettimeofday () else pong (n - 1)\n\
           and pong n = ping n" );
      ]
  in
  (* mutual recursion: the fixpoint must terminate and both nodes end
     at the same lattice point. *)
  List.iter
    (fun q ->
      Alcotest.(check bool) (q ^ " has clock") true
        (Effects.has Effects.Clock (Effects.summary_of summaries q)))
    [ "Looper.ping"; "Looper.pong" ]

let test_mut_param_propagation () =
  let _, summaries =
    graph
      [ ("lib/core/mut.ml", "let set r v = r := v\nlet via r = set r 1") ]
  in
  Alcotest.(check (list int))
    "set mutates its first param" [ 0 ]
    (Effects.summary_of summaries "Mut.set").Effects.mut_params;
  (* the mutation flows through the call site into via's own param. *)
  Alcotest.(check (list int))
    "via inherits the mutation" [ 0 ]
    (Effects.summary_of summaries "Mut.via").Effects.mut_params

(* The [Bytes] setter family writes its first argument, like
   [Bytes.set]: a generator state kept in bytes must stay visible. *)
let test_bytes_setter_mutates () =
  let _, summaries =
    graph
      [ ("lib/core/cell.ml", "let put b x = Bytes.set_int64_le b 0 x") ]
  in
  Alcotest.(check (list int))
    "put mutates b" [ 0 ]
    (Effects.summary_of summaries "Cell.put").Effects.mut_params

let test_infer_deterministic_and_bounded () =
  let sources =
    [
      ("lib/core/alpha.ml", "let tick () = Unix.gettimeofday ()");
      ("lib/core/beta.ml", "open Alpha\nlet go () = tick ()");
    ]
  in
  let cg, s1 = graph sources in
  let s2 = Effects.infer cg in
  (* re-running the fixpoint reproduces the same lattice point for
     every definition (idempotence — the widening bound is top). *)
  List.iter
    (fun q ->
      Alcotest.(check bool) (q ^ " stable") true
        (Effects.equal (Effects.summary_of s1 q) (Effects.summary_of s2 q)))
    (Callgraph.defs_order cg);
  Alcotest.(check int) "top is the full powerset"
    (List.length Effects.all_effects)
    (Effects.Eff_set.cardinal Effects.top)

(* ------------------------------ dedupe ------------------------------ *)

let test_dedupe () =
  let f1 = Finding.v ~file:"lib/a.ml" ~line:10 Finding.SA005 "direct" in
  let f2 = Finding.v ~file:"lib/a.ml" ~line:10 Finding.SA012 "interproc" in
  let f3 = Finding.v ~file:"lib/a.ml" ~line:20 Finding.SA012 "elsewhere" in
  let d = Finding.dedupe [ f3; f2; f1; f1 ] in
  (* same file:line — the earlier (more specific) rule wins; exact
     duplicates collapse; other lines are untouched. *)
  Alcotest.(check (list string))
    "earlier rule wins at a shared line"
    [ Finding.to_string f1; Finding.to_string f3 ]
    (List.map Finding.to_string d)

(* ------------------------------ SARIF ------------------------------- *)

let test_sarif_render () =
  let f = Finding.v ~file:"lib/a.ml" ~line:10 Finding.SA010 "taint" in
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
      {|"ruleId":"SA010"|};
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
      e_rule = Finding.SA010;
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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_repo_effects_summary_fresh () =
  match find_repo_root () with
  | None -> ()
  | Some root ->
    let committed = Filename.concat root "docs/effects-summary.md" in
    if not (Sys.file_exists committed) then
      Alcotest.fail "docs/effects-summary.md missing — regenerate with \
                     fp_lint --effects"
    else
      Alcotest.(check string)
        "committed effects summary matches --effects (regenerate with \
         `dune exec bin/fp_lint.exe -- --root . --effects`)"
        (Driver.effects_report ~root ())
        (read_file committed)

let () =
  Alcotest.run "fp_lint"
    [
      ( "corpus-pos",
        [
          Alcotest.test_case "SA001 float compares" `Quick test_sa001_pos;
          Alcotest.test_case "SA002 ambient Random" `Quick test_sa002_pos;
          Alcotest.test_case "SA003 stdout writes" `Quick test_sa003_pos;
          Alcotest.test_case "SA004 wall clock" `Quick test_sa004_pos;
          Alcotest.test_case "SA005 racy closures" `Quick test_sa005_pos;
          Alcotest.test_case "SA006 swallowing catch-alls" `Quick
            test_sa006_pos;
          Alcotest.test_case "SA007 unknown fault site" `Quick test_sa007_pos;
          Alcotest.test_case "SA008 literal exit" `Quick test_sa008_pos;
          Alcotest.test_case "SA000 unparseable" `Quick test_sa000_unparseable;
          Alcotest.test_case "SA010 transitive replay taint" `Quick
            test_sa010_pos;
          Alcotest.test_case "SA011 swallowed below the task" `Quick
            test_sa011_pos;
          Alcotest.test_case "SA014 channel lifecycle" `Quick test_sa014_pos;
          Alcotest.test_case "SA017 atomic get/set RMW" `Quick test_sa017_pos;
          Alcotest.test_case "SA012 escaping mutable captures" `Quick
            test_sa012_pos;
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
          Alcotest.test_case "pure helper chains" `Quick (neg "sa010_neg.ml");
          Alcotest.test_case "contained handlers below tasks" `Quick
            (neg "sa011_neg.ml");
          Alcotest.test_case "blessed capture shapes" `Quick
            (neg "sa012_neg.ml");
          Alcotest.test_case "protected channels" `Quick (neg "sa014_neg.ml");
          Alcotest.test_case "CAS and fetch_and_add" `Quick
            (neg "sa017_neg.ml");
        ] );
      ( "roles",
        [ Alcotest.test_case "role gating" `Quick test_roles_gate_rules ] );
      ( "interproc",
        [
          Alcotest.test_case "cross-module resolution" `Quick
            test_callgraph_resolution;
          Alcotest.test_case "cycle convergence" `Quick
            test_fixpoint_cycle_converges;
          Alcotest.test_case "mut-param propagation" `Quick
            test_mut_param_propagation;
          Alcotest.test_case "bytes setters mutate" `Quick
            test_bytes_setter_mutates;
          Alcotest.test_case "fixpoint idempotent, top bounded" `Quick
            test_infer_deterministic_and_bounded;
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
          Alcotest.test_case "effects summary fresh" `Quick
            test_repo_effects_summary_fresh;
        ] );
    ]
