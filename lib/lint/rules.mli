(** The SA rule implementations: one pass of {!Ast_iterator} over a
    parsed implementation file, plus per-definition scans.

    The rules here are {e syntactic} — they run on the Parsetree,
    before any typing — so each is a conservative approximation of the
    semantic invariant it guards, documented per rule in
    [docs/static-analysis.md].  Three of them scan one top-level
    definition at a time: SA005 (pool tasks and the let-bound helpers
    they call must not mutate captured state), SA017 (no [Atomic]
    read-modify-write as a separate [get]/[set]) and SA018 (no
    module-level mutable container).  Nothing follows calls across
    definitions.  Known-intentional violations are carried by the
    justification-annotated baseline ({!Baseline}), not by loosening
    the rules. *)

type role =
  | Lib      (** [lib/] — the solver library; strictest rule set *)
  | Bin      (** [bin/] — CLI layer; printing and timing allowed *)
  | Bench    (** [bench/] — benchmark driver *)
  | Examples (** [examples/] *)
  | Other

val role_of_path : string -> role
(** Classify a repo-relative (['/']-separated) path by its first
    component. *)

type context = { known_sites : string list }
(** Cross-file facts a single-file pass needs: the canonical fault-site
    names ({!Fp_util.Fault.builtin}) for SA007.  The driver supplies
    them; corpus tests construct their own. *)

val applies : Finding.rule -> role:role -> path:string -> bool
(** Whether [rule] is in force for a file.  Encodes the scoping and the
    sanctioned-file exemptions: SA001/SA003/SA004/SA018 are [Lib]-only
    (with [lib/geometry/tol.ml] carved out of SA001 and
    [lib/core/augment.ml] out of SA004); SA002/SA005/SA006/SA007/SA008/
    SA014/SA017 apply to every role (with [lib/util/rng.ml] carved out
    of SA002 and [lib/core/degradation.ml] out of SA008). *)

val check_structure :
  ctx:context ->
  path:string ->
  role:role ->
  Parsetree.structure ->
  Finding.t list
(** Run every applicable rule over one parsed file.  [path] is the
    repo-relative path used both for findings and for the exemption
    table. *)

val registered_sites : Parsetree.structure -> (string * int) list
(** [(site, line)] for every string literal passed to [Fault.register]
    in the file — input to the driver's global SA007 registry/docs
    cross-check. *)
