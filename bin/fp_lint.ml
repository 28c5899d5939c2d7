(* Source-invariant linter driver.

   Tree mode (no FILES): lint lib/, bin/, bench/ and examples/ under
   --root, subtract the justification-annotated baseline, and exit
   non-zero when anything is left:

     exit 0 — clean against the baseline
     exit 1 — unbaselined findings (or an unparseable file)
     exit 2 — baseline problems: missing or unreadable baseline file,
              malformed entry, missing justification, or stale entries
              whose file:line no longer fires (drift); also a FILE
              argument that does not exist or cannot be read

   File mode (explicit FILES, used by the corpus tests and the CI
   injection check): lint each file under a forced role (default lib,
   the strictest) and print every finding; exit 1 when any fire.  A
   missing or unreadable FILE is a hard error (exit 2), never a silent
   pass: the CI self-check loops `if fp_lint $f; then fail` over
   corpus positives, and a deleted fixture must not vacuously succeed.
   The baseline is not consulted in file mode.

   --sarif FILE additionally writes the findings as SARIF 2.1 (baseline
   matches become suppressions) in either lint mode.  --verbose prints
   the wall-clock time of the parse and of the check to stderr in tree
   mode.

   See docs/static-analysis.md for the rule catalogue. *)

module Lint = Fp_lint

let usage = "fp_lint [options] [FILES...]"

let () =
  let root = ref "." in
  let baseline = ref "" in
  let update = ref false in
  let role = ref "lib" in
  let list_rules = ref false in
  let verbose = ref false in
  let sarif = ref "" in
  let files = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root (default: .)");
      ( "--baseline",
        Arg.Set_string baseline,
        "FILE baseline file (default: ROOT/lint.baseline)" );
      ( "--update",
        Arg.Set update,
        " rewrite the baseline from the current findings (justifications \
         left as TODO)" );
      ( "--role",
        Arg.Set_string role,
        "ROLE role for explicit FILES: lib|bin|bench|examples (default: \
         lib)" );
      ("--list-rules", Arg.Set list_rules, " print the rule catalogue");
      ( "--verbose",
        Arg.Set verbose,
        " print per-pass timings to stderr (tree mode)" );
      ( "--sarif",
        Arg.Set_string sarif,
        "FILE also write findings as SARIF 2.1 (baselined findings become \
         suppressions)" );
    ]
  in
  Arg.parse spec (fun f -> files := f :: !files) usage;
  if !list_rules then begin
    List.iter
      (fun r ->
        Printf.printf "%s  %s\n" (Lint.Finding.rule_name r)
          (Lint.Finding.rule_doc r))
      Lint.Finding.all_rules;
    exit 0
  end;
  let die code fmt = Printf.ksprintf (fun m -> prerr_endline m; exit code) fmt in
  (* Flush inside the bracket: with_open's close discards the error of a
     write that only fails at close (a full disk). *)
  let write_file path text =
    Out_channel.with_open_text path (fun oc ->
        output_string oc text;
        flush oc)
  in
  let write_sarif ?(baseline = []) findings =
    if !sarif <> "" then
      write_file !sarif (Lint.Sarif.render ~baseline findings)
  in
  match List.rev !files with
  | _ :: _ as files ->
    (* File mode. *)
    let role =
      match !role with
      | "lib" -> Lint.Rules.Lib
      | "bin" -> Lint.Rules.Bin
      | "bench" -> Lint.Rules.Bench
      | "examples" -> Lint.Rules.Examples
      | r -> die 2 "unknown --role %S" r
    in
    List.iter
      (fun f ->
        if not (Sys.file_exists f) then
          die 2
            "fp_lint: %s: no such file — file mode lints explicit paths; a \
             missing file is an error, not a clean result"
            f
        else if Sys.is_directory f then
          die 2 "fp_lint: %s: is a directory (file mode wants .ml files)" f
        else
          try In_channel.with_open_bin f ignore
          with Sys_error m -> die 2 "fp_lint: %s: unreadable: %s" f m)
      files;
    let findings =
      List.sort_uniq Lint.Finding.compare
        (List.concat_map
           (fun f -> Lint.Driver.lint_file ~role ~root:"." f)
           files)
    in
    List.iter (fun f -> print_endline (Lint.Finding.to_string f)) findings;
    write_sarif findings;
    exit (if findings = [] then 0 else 1)
  | [] ->
    (* Tree mode. *)
    let baseline_path =
      if !baseline <> "" then !baseline
      else Filename.concat !root "lint.baseline"
    in
    let t0 = Unix.gettimeofday () in
    let corpus = Lint.Driver.load_corpus ~root:!root in
    let t1 = Unix.gettimeofday () in
    let findings = Lint.Driver.lint_tree ~corpus ~root:!root () in
    let t2 = Unix.gettimeofday () in
    if !verbose then begin
      let ms a b = (b -. a) *. 1000. in
      Printf.eprintf "fp_lint: pass %-16s %6.0f ms\n" "parse" (ms t0 t1);
      Printf.eprintf "fp_lint: pass %-16s %6.0f ms\n" "check" (ms t1 t2);
      Printf.eprintf "fp_lint: total %21.0f ms\n" (ms t0 t2)
    end;
    if !update then begin
      write_file baseline_path (Lint.Baseline.render findings);
      Printf.printf "fp_lint: wrote %d entr%s to %s\n"
        (List.length findings)
        (if List.length findings = 1 then "y" else "ies")
        baseline_path;
      exit 0
    end;
    let entries =
      match Lint.Baseline.load baseline_path with
      | Ok e -> e
      | Error msg -> die 2 "fp_lint: baseline: %s" msg
    in
    write_sarif ~baseline:entries findings;
    let v = Lint.Baseline.apply entries findings in
    List.iter
      (fun f -> print_endline (Lint.Finding.to_string f))
      v.Lint.Baseline.unbaselined;
    List.iter
      (fun (e : Lint.Baseline.entry) ->
        Printf.printf
          "%s:%d stale baseline entry: %s%s %s no longer fires — remove it \
           (or the code drifted under it)\n"
          baseline_path e.e_src_line e.e_file
          (match e.e_line with Some l -> ":" ^ string_of_int l | None -> "")
          (Lint.Finding.rule_name e.e_rule))
      v.Lint.Baseline.stale;
    if v.Lint.Baseline.unbaselined <> [] then exit 1
    else if v.Lint.Baseline.stale <> [] then exit 2
    else
      Printf.printf "fp_lint: clean (%d baselined finding%s)\n"
        (List.length findings)
        (if List.length findings = 1 then "" else "s")
