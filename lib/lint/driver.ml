let default_context =
  { Rules.known_sites = List.map fst Fp_util.Fault.builtin }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_file path =
  match read_file path with
  | exception Sys_error m -> Error m
  | text -> (
    let lexbuf = Lexing.from_string text in
    Lexing.set_filename lexbuf path;
    match Parse.implementation lexbuf with
    | str -> Ok str
    | exception e -> Error (Printexc.to_string e))

let roots = [ "lib"; "bin"; "bench"; "examples" ]

(* Every .ml under [root]/[sub], as root-relative '/'-paths, sorted for
   deterministic output. *)
let ml_files root =
  let found = ref [] in
  let rec visit rel =
    let abs = Filename.concat root rel in
    if Sys.is_directory abs then
      Array.iter
        (fun name ->
          if name <> "" && name.[0] <> '.' && name <> "_build" then
            visit (rel ^ "/" ^ name))
        (Sys.readdir abs)
    else if Filename.check_suffix rel ".ml" then found := rel :: !found
  in
  List.iter (fun r -> if Sys.file_exists (Filename.concat root r) then visit r)
    roots;
  List.sort String.compare !found

(* Every source file of the tree, parsed once. *)
type corpus = (string * (Parsetree.structure, string) result) list

let load_corpus ~root =
  List.map
    (fun rel -> (rel, parse_file (Filename.concat root rel)))
    (ml_files root)

let unparseable rel msg =
  Finding.v ~file:rel ~line:1 Finding.SA000 ("unparseable: " ^ msg)

let lint_file ?(ctx = default_context) ?role ~root rel =
  let role = match role with Some r -> r | None -> Rules.role_of_path rel in
  let path = if Filename.is_relative rel then Filename.concat root rel else rel in
  match parse_file path with
  | Error msg -> [ unparseable rel msg ]
  | Ok str -> Finding.dedupe (Rules.check_structure ~ctx ~path:rel ~role str)

let docs_robustness = "docs/robustness.md"

let lint_corpus ?(ctx = default_context) corpus =
  let registered = ref [] in
  let findings =
    List.concat_map
      (fun (rel, p) ->
        match p with
        | Error msg -> [ unparseable rel msg ]
        | Ok str ->
          List.iter
            (fun (site, line) -> registered := (site, rel, line) :: !registered)
            (Rules.registered_sites str);
          Rules.check_structure ~ctx ~path:rel ~role:(Rules.role_of_path rel)
            str)
      corpus
  in
  (* Global SA007: the catalogue, the registrations and the docs must
     agree.  Per-file SA007 already flagged literals outside the
     catalogue; here the other two directions. *)
  let fault_ml = "lib/util/fault.ml" in
  let unregistered =
    List.filter
      (fun site -> not (List.exists (fun (s, _, _) -> s = site) !registered))
      ctx.Rules.known_sites
  in
  let f_unreg =
    List.map
      (fun site ->
        Finding.v ~file:fault_ml ~line:1 Finding.SA007
          (Printf.sprintf
             "catalogue site %S is not registered by any instrumented \
              module (dead catalogue entry?)"
             site))
      unregistered
  in
  let root_has_sources = List.exists (fun (rel, _) -> rel <> "") corpus in
  let f_docs ~root =
    let doc_path = Filename.concat root docs_robustness in
    if not (Sys.file_exists doc_path) then
      if root_has_sources && ctx.Rules.known_sites <> [] then
        [ Finding.v ~file:docs_robustness ~line:1 Finding.SA007
            "docs/robustness.md is missing — every catalogue fault site \
             must be documented there" ]
      else []
    else
      let text = read_file doc_path in
      let contains site =
        (* plain substring scan *)
        let n = String.length text and m = String.length site in
        let rec go i = i + m <= n && (String.sub text i m = site || go (i + 1)) in
        m = 0 || go 0
      in
      List.filter_map
        (fun site ->
          if contains site then None
          else
            Some
              (Finding.v ~file:docs_robustness ~line:1 Finding.SA007
                 (Printf.sprintf
                    "catalogue site %S is not documented in \
                     docs/robustness.md"
                    site)))
        ctx.Rules.known_sites
  in
  (findings, f_unreg, f_docs)

let lint_tree ?(ctx = default_context) ?corpus ~root () =
  let corpus = match corpus with Some c -> c | None -> load_corpus ~root in
  let findings, f_unreg, f_docs = lint_corpus ~ctx corpus in
  Finding.dedupe (findings @ f_unreg @ f_docs ~root)
