(** Fixpoint effect inference over the {!Callgraph}.

    Each definition gets a summary over the finite lattice
    [{rng, clock, io, mutation, domain-spawn, raises-Abort,
    raises-Injected, catches-all}] plus a per-parameter mutation set.
    Direct effects come from a syntactic pass over the body; the
    fixpoint propagates along resolved call edges with monotone set
    union, so it converges on any graph (mutual recursion included) —
    the lattice is a finite powerset and {!top} is its widening bound.
    Precision notes (lock trust, alias blindness) are documented in
    the implementation header and docs/static-analysis.md. *)

type eff =
  | Rng            (** ambient randomness: [Random], [Hashtbl.randomize] *)
  | Clock          (** wall clock: [Unix.gettimeofday]/[time], [Sys.time] *)
  | Io             (** console/channel I/O *)
  | Mutation       (** mutates module-level (non-local, non-parameter) state *)
  | Spawn          (** [Domain.spawn] *)
  | Raises_abort   (** can raise [Abort] ([raise] of the constructor) *)
  | Raises_injected(** can raise [Injected] (incl. [Fault.trip]) *)
  | Catches_all    (** contains a swallowing catch-all
                       ({!Ast_util.swallowing_catch_all}) *)

val all_effects : eff list
val eff_name : eff -> string

module Eff_set : Set.S with type elt = eff

val top : Eff_set.t
(** The lattice top — every effect. *)

type cause =
  | Prim of string * int     (** primitive name, line in the definition *)
  | Through of string * int  (** callee qname, call-site line *)

type summary = {
  effs : Eff_set.t;
  causes : (eff * cause) list;   (** first cause per acquired effect *)
  mut_params : int list;         (** sorted positional indices *)
  mut_causes : (int * cause) list;
}

val empty : summary
val has : eff -> summary -> bool
val equal : summary -> summary -> bool
(** Lattice-point equality (effects and mutated parameters). *)

val prim_effect : string list -> eff option
(** Classify an unresolved identifier path ([["Unix";"gettimeofday"]]).
    A strict superset of the SA002/SA003/SA004 primitive tables — the
    interprocedural rules see [Hashtbl.randomize] or [read_line] even
    though no syntactic rule covers them. *)

val direct : Callgraph.def -> summary
(** Intraprocedural extraction: primitives, module-state and parameter
    mutation, swallowing catch-alls, [raise Abort/Injected]. *)

type summaries = (string, summary) Hashtbl.t

val infer : Callgraph.t -> summaries
(** The fixpoint.  Deterministic: iteration follows
    {!Callgraph.defs_order}. *)

val summary_of : summaries -> string -> summary
(** Lookup with {!empty} as default for unknown names. *)

val chain : summaries -> string -> eff -> string list
(** Witness path from a definition to the primitive that introduced an
    effect: [["Branch_bound.run_task"; "Branch_bound.out_of_time";
    "Unix.gettimeofday"]]. *)

val mut_chain : summaries -> string -> int -> string list
(** Witness path for a mutated parameter. *)

val report : Callgraph.t -> summaries -> string
(** The [--effects] artifact: per-module summaries over [lib/],
    line-number-free and deterministic (committed as
    docs/effects-summary.md, drift-checked in CI). *)
