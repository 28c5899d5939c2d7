(** Deterministic, seeded fault injection.

    The resilience layer of this repository promises that every failure
    mode of the solve engine — a singular LU factorization, a stalled
    simplex, an exhausted branch-and-bound budget, a crashing worker or
    hook — degrades gracefully to a certified feasible floorplan.  A
    promise like that is only worth anything if every recovery path can
    be {e exercised on demand}, from tests and from the bench fault
    matrix.  This module is the switchboard: each instrumented module
    registers its fault {e sites} by name at load time, and a driver
    arms a site with a {!spec} before a run.  The instrumented code then
    asks {!fire} ("should this hit fail?") or calls {!trip} (raise
    {!Injected}) at the site.

    Nothing is armed by default, and the disarmed fast path is a single
    atomic load, so production runs pay (almost) nothing.

    {b Determinism.}  Count-based specs ([after] / [count]) fire on
    exact hit indices, so a sequential run injects identically every
    time.  Probabilistic specs draw from a private SplitMix64 stream
    seeded by [seed]; given the same hit order the decisions replay
    exactly.  Under several domains (concurrent candidate groups) the
    hit order of sites inside the candidates' searches depends on
    scheduling, so a counted spec there hits a schedule-dependent
    candidate (see docs/robustness.md).

    {b Registry.}  Sites register themselves when their module is
    initialized; linking the solve stack therefore populates
    {!sites} before [main] runs.  The registry exists so drivers (the
    bench fault matrix, [--faults] CLI validation) can enumerate every
    site without hard-coding the list. *)

exception Injected of string
(** Raised by {!trip} (and by instrumented code that chooses to fail by
    exception) with the site name. *)

val builtin : (string * string) list
(** Canonical [(site, description)] catalogue of every fault site shipped
    with the solve stack, sorted by site name.  This list is the single
    source of truth: instrumented modules {!register} exactly these
    names, the CLI [--faults] help text is rendered from it,
    [docs/robustness.md] documents these rows, and the SA007 source lint
    ([bin/fp_lint]) fails the build when a registered literal, this
    catalogue, or the docs drift apart.  {!register} stays permissive
    (tests register scratch sites), so the lint — not the runtime — is
    the enforcement point. *)

type spec = {
  site : string;
  after : int;  (** hits to let through before the fault becomes eligible
                    (default [0]: eligible from the first hit) *)
  count : int;  (** injections before the site self-disarms; [max_int]
                    never disarms (default [1]) *)
  prob : float option;
      (** when set, each eligible hit fires with this probability instead
          of unconditionally — drawn from a stream seeded by [seed] *)
  seed : int;  (** seed for the probabilistic stream (default [0]) *)
}

val spec : ?after:int -> ?count:int -> ?prob:float -> ?seed:int -> string -> spec

val parse : string -> (spec, string) result
(** Parse a CLI fault spec: [SITE], [SITE\@AFTER], [SITE\@AFTERxCOUNT],
    [SITExCOUNT] — [COUNT] may be [*] for "never disarm".  Examples:
    ["revised.iteration_limit"], ["branch_bound.budget\@3"],
    ["pool.worker_exnx*"]. Unknown sites parse fine (validation against
    {!sites} is the caller's choice — the registry depends on what is
    linked). *)

val to_string : spec -> string
(** Inverse of {!parse} (probabilistic specs render as [SITE~P:SEED],
    which {!parse} does not read back — they are API-only). *)

val register : string -> string
(** [register site] adds [site] to the registry (idempotent) and returns
    it, so instrumented modules can write
    [let site_x = Fault.register "m.x"]. *)

val sites : unit -> string list
(** Every registered site, sorted.  Complete once the instrumented
    modules are linked and initialized. *)

val arm : spec -> unit
(** Arm (or re-arm, resetting counters) the spec's site. *)

val disarm : string -> unit

val reset : unit -> unit
(** Disarm every site and clear all counters.  Tests call this in
    setup/teardown. *)

val armed : unit -> spec list

val fire : string -> bool
(** Called at a fault site: records a hit and returns [true] when the
    site is armed and this hit should fail.  Thread-safe; the disarmed
    fast path does not take the lock. *)

val trip : string -> unit
(** [trip site] raises [Injected site] when {!fire} says so. *)

val hits : string -> int
(** Hits observed at a site since it was last armed ([0] if never
    armed).  For tests. *)

val injections : string -> int
(** Injections performed at a site since it was last armed. *)
