(** Repository walker: parse every implementation file once into a
    {!type-corpus}, run the per-file rules ({!Rules}) over each parse,
    and add the global SA007 cross-checks.

    The driver is what [bin/fp_lint] and the [@lint] alias call; the
    corpus tests call {!lint_file} directly on fixture files with a
    forced role. *)

val default_context : Rules.context
(** [known_sites] seeded from {!Fp_util.Fault.builtin} — the canonical
    catalogue the linter itself links against, so the lint and the
    runtime can never disagree about the site list. *)

val parse_file : string -> (Parsetree.structure, string) result
(** Parse one [.ml] file with the compiler's own parser. *)

type corpus = (string * (Parsetree.structure, string) result) list
(** Every [.ml] under [lib/], [bin/], [bench/] and [examples/] as
    [(root-relative path, parse)], sorted by path. *)

val load_corpus : root:string -> corpus
(** Parse the tree once.  [bin/fp_lint] times this and {!lint_tree}
    separately for its [--verbose] report. *)

val lint_file :
  ?ctx:Rules.context ->
  ?role:Rules.role ->
  root:string ->
  string ->
  Finding.t list
(** Lint a single file.  The second argument is its path, relative to
    [root] unless it is absolute; findings carry it as given.  [role] defaults to
    {!Rules.role_of_path}; an unparseable file yields one [SA000]
    finding.  Findings come back deduplicated and sorted
    ({!Finding.dedupe}). *)

val lint_tree :
  ?ctx:Rules.context -> ?corpus:corpus -> root:string -> unit ->
  Finding.t list
(** Lint the whole tree: every file plus the global SA007 checks —
    every [Fault.register] literal must be in the canonical catalogue,
    every catalogue site must be registered somewhere in the tree, and
    [docs/robustness.md] must document every catalogue site.  Pass
    [corpus] to reuse an existing {!load_corpus} result (nothing is
    re-read except [docs/robustness.md]).  Findings come back
    deduplicated and sorted ({!Finding.dedupe}). *)
