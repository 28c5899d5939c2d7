(** Source-level lint findings.

    One finding is one violation of a source invariant at a
    [file:line], tagged with the rule that produced it.  Rules carry
    SA ("source analysis") codes, mirroring the ML/FL/CT code scheme
    of {!Fp_check.Diagnostic} — the two layers are complementary:
    [Fp_check] certifies {e outputs} (models and floorplans), this
    library certifies the {e source} that produces them.  Every rule is
    a syntactic per-file rule ({!Rules}); SA010–SA013, SA015 and SA016
    are retired.  The full catalogue with examples lives in
    [docs/static-analysis.md]. *)

type rule =
  | SA000  (** the file could not be parsed — always fatal, never baselined *)
  | SA001  (** raw float comparison outside [lib/geometry/tol.ml] *)
  | SA002  (** [Stdlib.Random] or [Hashtbl.randomize] outside
               [lib/util/rng.ml] *)
  | SA003  (** console IO (stdout/stderr write, stdin read) inside
               [lib/] *)
  | SA004  (** wall-clock read or sleep outside the sanctioned timing
               sites *)
  | SA005  (** a [Pool.run]/[Pool.map] task, or a let-bound helper of
               the same definition that it calls, mutates captured
               state without [Atomic]/[Mutex] *)
  | SA006  (** catch-all exception handler that can swallow
               [Augment.Abort] / [Fault.Injected] *)
  | SA007  (** fault-site literal not in the canonical
               {!Fp_util.Fault.builtin} catalogue (or catalogue/docs
               drift) *)
  | SA008  (** [exit] with an integer literal outside the
               {!Fp_core.Degradation} exit-code mapping *)
  | SA014  (** a raw channel open instead of the
               [In_channel.with_open_*]/[Out_channel.with_open_*]
               brackets *)
  | SA017  (** read-modify-write on an [Atomic.t] as separate
               [get]/[set] instead of a CAS/[fetch_and_add] loop *)
  | SA018  (** a module-level mutable container ([ref], [Hashtbl],
               [Array], [Bytes], [Queue], [Stack], [Buffer]) in [lib/] *)

val all_rules : rule list
(** Every rule, in code order ([SA000] excluded — it is an infrastructure
    failure, not a lintable invariant). *)

val rule_name : rule -> string
(** ["SA001"], ... *)

val rule_of_string : string -> rule option
(** Inverse of {!rule_name} (case-insensitive). *)

val rule_doc : rule -> string
(** One-line description, used by [fp_lint --list-rules]. *)

val rule_index : rule -> int
(** Numeric code, for severity-independent ordering. *)

type t = {
  file : string;  (** repo-relative path, ['/']-separated *)
  line : int;     (** 1-based *)
  rule : rule;
  msg : string;
}

val v : file:string -> line:int -> rule -> string -> t

val to_string : t -> string
(** ["file:line SA00x message"] — the grep/CI-friendly rendering. *)

val compare : t -> t -> int
(** Order by file, then line, then rule code, then message. *)

val dedupe : t list -> t list
(** One source defect, one finding: at each [file:line], keep only the
    findings of the lowest-numbered rule (a raw channel open whose
    contents are printed fires SA003 and SA014 at one line; SA003 is
    kept).  Several findings of that same rule at one line are all
    kept — the global SA007 checks legitimately report distinct drifts
    at a file's line 1.  Output is sorted by {!compare}. *)
