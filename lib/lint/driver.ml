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

(* The shared corpus: every source file parsed exactly once, with the
   call graph and the effect fixpoint built over those same parses.
   Each consumer — syntactic rules, Interproc, the report modes — reads
   from here instead of re-walking the tree. *)
type corpus = {
  parses : (string * (Parsetree.structure, string) result) list;
  cg : Callgraph.t;
  effects : Effects.summaries;
  timings : (string * float) list;  (* pass name, seconds, in run order *)
}

(* [clock] defaults to a constant so lib/lint itself never reads the
   wall clock (SA004); bin/fp_lint injects [Unix.gettimeofday] for the
   [--verbose] per-pass timing report. *)
let load_corpus ?(clock = fun () -> 0.) ~root () =
  let timings = ref [] in
  let timed name f =
    let t0 = clock () in
    let r = f () in
    timings := (name, clock () -. t0) :: !timings;
    r
  in
  let parses =
    timed "parse" (fun () ->
        List.map
          (fun rel -> (rel, parse_file (Filename.concat root rel)))
          (ml_files root))
  in
  let cg =
    timed "callgraph" (fun () ->
        Callgraph.of_sources
          (List.filter_map
             (fun (rel, p) ->
               match p with Ok str -> Some (rel, str) | Error _ -> None)
             parses))
  in
  let effects = timed "effects-infer" (fun () -> Effects.infer cg) in
  { parses; cg; effects; timings = List.rev !timings }

let check_one ~ctx ~corpus rel str =
  let role = Rules.role_of_path rel in
  let gate (f : Finding.t) = Rules.applies f.rule ~role ~path:rel in
  let syntactic = Rules.check_structure ~ctx ~path:rel ~role str in
  let interproc =
    List.filter gate
      (Interproc.check ~cg:corpus.cg ~summaries:corpus.effects ~file:rel)
  in
  syntactic @ interproc

let lint_file ?(ctx = default_context) ?role ~root rel =
  let role = match role with Some r -> r | None -> Rules.role_of_path rel in
  let abs = Filename.concat root rel in
  match parse_file abs with
  | Error msg ->
    [ Finding.v ~file:rel ~line:1 Finding.SA000 ("unparseable: " ^ msg) ]
  | Ok str ->
    let cg = Callgraph.of_sources [ (rel, str) ] in
    let summaries = Effects.infer cg in
    let gate (f : Finding.t) = Rules.applies f.rule ~role ~path:rel in
    let syntactic = Rules.check_structure ~ctx ~path:rel ~role str in
    let interproc =
      List.filter gate (Interproc.check ~cg ~summaries ~file:rel)
    in
    Finding.dedupe (syntactic @ interproc)

let docs_robustness = "docs/robustness.md"

let lint_corpus ?(ctx = default_context) corpus =
  let registered = ref [] in
  let findings =
    List.concat_map
      (fun (rel, p) ->
        match p with
        | Error msg ->
          [ Finding.v ~file:rel ~line:1 Finding.SA000 ("unparseable: " ^ msg) ]
        | Ok str ->
          List.iter
            (fun (site, line) -> registered := (site, rel, line) :: !registered)
            (Rules.registered_sites str);
          check_one ~ctx ~corpus rel str)
      corpus.parses
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
  let root_has_sources =
    List.exists (fun (rel, _) -> rel <> "") corpus.parses
  in
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
  let corpus =
    match corpus with Some c -> c | None -> load_corpus ~root ()
  in
  let findings, f_unreg, f_docs = lint_corpus ~ctx corpus in
  Finding.dedupe (findings @ f_unreg @ f_docs ~root)

let effects_report ?corpus ~root () =
  let c = match corpus with Some c -> c | None -> load_corpus ~root () in
  Effects.report c.cg c.effects

let callgraph_dot ?corpus ~root () =
  let c = match corpus with Some c -> c | None -> load_corpus ~root () in
  Callgraph.to_dot c.cg
