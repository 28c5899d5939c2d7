(** Repository walker: parse every implementation file once into a
    shared {!type-corpus}, run the syntactic rules ({!Rules}), build the
    call graph and the effect fixpoint ({!Effects}) over the same
    parses, run the interprocedural rules, and add the global SA007
    cross-checks.

    The driver is what [bin/fp_lint] and the [@lint] alias call; the
    corpus tests call {!lint_file} directly on fixture files with a
    forced role. *)

val default_context : Rules.context
(** [known_sites] seeded from {!Fp_util.Fault.builtin} — the canonical
    catalogue the linter itself links against, so the lint and the
    runtime can never disagree about the site list. *)

val parse_file : string -> (Parsetree.structure, string) result
(** Parse one [.ml] file with the compiler's own parser. *)

type corpus = {
  parses : (string * (Parsetree.structure, string) result) list;
  cg : Callgraph.t;
  effects : Effects.summaries;
  timings : (string * float) list;
      (** per-pass wall-clock seconds ([parse], [callgraph],
          [effects-infer]), in run order; all zero unless a [clock] was
          injected *)
}
(** Everything derived from one walk of the tree.  Build it once with
    {!load_corpus} and pass it to {!lint_tree} and the report modes —
    the report modes re-walk nothing. *)

val load_corpus :
  ?clock:(unit -> float) -> root:string -> unit -> corpus
(** Parse [lib/], [bin/], [bench/] and [examples/] once and run every
    whole-tree analysis over the shared parses.  [clock] defaults to a
    constant so this library never reads the wall clock itself (its own
    SA004 rule); [bin/fp_lint] injects [Unix.gettimeofday] for the
    [--verbose] timing report. *)

val lint_file :
  ?ctx:Rules.context ->
  ?role:Rules.role ->
  root:string ->
  string ->
  Finding.t list
(** Lint a single file.  The second argument is the path relative to
    [root] (also the path findings carry).  [role] defaults to
    {!Rules.role_of_path}; an unparseable file yields one [SA000]
    finding.  The interprocedural rules run over a single-file call
    graph, so cross-file taint is invisible here —
    that is tree mode's job — but same-file helper chains still
    resolve.  Findings come back deduplicated and sorted
    ({!Finding.dedupe}). *)

val lint_tree :
  ?ctx:Rules.context -> ?corpus:corpus -> root:string -> unit ->
  Finding.t list
(** Lint the whole tree: every file (syntactic + interprocedural over
    the whole-tree call graph) plus the global SA007
    checks — every [Fault.register] literal must be in the canonical
    catalogue, every catalogue site must be registered somewhere in
    the tree, and [docs/robustness.md] must document every catalogue
    site.  Pass [corpus] to reuse an existing {!load_corpus} result
    (the parses are shared; nothing is re-read except
    [docs/robustness.md]).  Findings come back deduplicated and sorted
    ({!Finding.dedupe}). *)

val effects_report : ?corpus:corpus -> root:string -> unit -> string
(** The [--effects] artifact: {!Effects.report} over the whole tree. *)

val callgraph_dot : ?corpus:corpus -> root:string -> unit -> string
(** The [--callgraph-dot] artifact: {!Callgraph.to_dot} over the whole
    tree. *)
