(** Parsetree helpers for the per-file rules ({!Rules}): identifier
    paths, pattern variables, lvalue roots, and the exception-flow
    shapes of SA006.  Everything is purely syntactic — the linter runs
    before typing. *)

module S : Set.S with type elt = string

val flatten : Longident.t -> string list
(** ["A.B.c"] as [["A"; "B"; "c"]]; [[]] for functor applications. *)

val norm : string list -> string list
(** Drop an explicit leading [Stdlib.]. *)

val ident_path : Parsetree.expression -> string list option
(** The normalized path of an identifier expression, [None] otherwise. *)

val last2 : string list -> (string * string) option
(** The last two components of a path: [last2 ["Fp_util"; "Pool"; "run"]
    = Some ("Pool", "run")]. *)

val line_of : Location.t -> int

val pat_vars : string list -> Parsetree.pattern -> string list
(** All variables bound by a pattern, prepended to the accumulator. *)

val sub_exprs : Parsetree.expression -> Parsetree.expression list
(** Direct sub-expressions, one iterator level deep. *)

val mentions_name : string -> Parsetree.expression -> bool
(** Free-occurrence check for a plain identifier (syntactic: rebinding
    inside the expression is not tracked). *)

val mentions_any : S.t -> Parsetree.expression -> bool

val lvalue_head : Parsetree.expression -> string option
(** The innermost plain identifier an lvalue roots in ([x], [x.f.g]);
    [None] for module-qualified or computed targets. *)

val is_fun_literal : Parsetree.expression -> bool

val pool_fn : string list -> string option
(** [Some "Pool.run"] / [Some "Pool.map"] when the path is a pool batch
    entry point (matched on the last two components, so both
    [Pool.run] and [Fp_util.Pool.run] qualify). *)

val container_mutator : string list -> bool
(** Paths that mutate their first container argument
    ([Hashtbl.replace], [Queue.push], [Buffer.add_*], [Bytes.set_*],
    ...). *)

val pat_mentions_construct : string list -> Parsetree.pattern -> bool
(** Does the pattern match any constructor whose last path component is
    in the list (e.g. [Abort], [Injected])? *)

val body_raises : Parsetree.expression -> bool
(** Does the expression contain a [raise]/[raise_notrace] application? *)

val is_catch_all : Parsetree.case -> bool
(** An unguarded [_]/variable handler. *)

val stores_caught : Parsetree.case -> bool
(** Does the handler body store the caught exception variable into a
    ref/field/container (the record-for-later-re-raise containment
    pattern, e.g. the pool drain's [t.pending_exn <- Some exn])? *)

val swallowing_catch_all : Parsetree.case list -> Parsetree.case option
(** The catch-all that can swallow [Abort]/[Injected], if the handler
    list has one that neither re-raises, nor records the exception
    ({!stores_caught}), nor sits beside an [Abort]-re-raising case. *)
