(** Successive augmentation — the paper's solution method (section 3,
    Figure 3).

    The floorplan is built by repeatedly adding a small group of modules
    to the partial floorplan, each addition solved as a 0–1 MILP:

    {v
    (1) select a seed group;
    (2)-(3) solve its MILP;
    (4) while modules remain:
    (5)   select the next group (connectivity / random ordering);
    (7)   replace the partial floorplan by <= N covering rectangles;
    (8)-(9) formulate and solve the MILP for the group + covering rects;
    (12)-(13) (routing and adjustment live in Fp_route / Compact)
    v}

    The chip width is fixed and height is minimized, so the MILP count of
    integer variables stays roughly constant per step and total time
    grows roughly linearly in the number of groups — Table 1's claim.

    {2 Resilience}

    The engine is {e anytime}: every step commits some overlap-free
    placement of its group, and every way a step falls short of the
    clean optimizing path is recorded as a {!Degradation.t} in the
    step's {!step_stat} and in the run's {!result} — never only as a
    log line.  The ladder, top to bottom: solve the MILP once; fall back
    to the step's warm bottom-left packing; commit the packing
    geometrically even when its MILP encoding is rejected.  A run-level
    deadline ([run_time_limit]) is apportioned over the remaining steps
    and, once expired, remaining groups are committed warm-only
    ([Deadline_truncated]).  With
    [checkpoint] set, a journal ({!Journal}) is written after every
    committed step; an interrupted run resumed from it ([?resume])
    reproduces the uninterrupted run's floorplan bit-for-bit.

    Fault sites (for {!Fp_util.Fault}): ["augment.hook"] makes an
    inspection hook fail (recorded as [Hook_failed], run continues);
    ["augment.candidate_milp"] kills one candidate evaluation (recorded
    as [Candidate_failed]; when no candidate survives, the head group's
    warm packing is committed as [Raw_warm_packing]).  See
    [docs/robustness.md]. *)

type envelope_config = {
  pitch_h : float;
      (** metal width + spacing of one horizontal routing track *)
  pitch_v : float;  (** same for vertical tracks *)
  share : float;
      (** fraction of a channel charged to each of the two modules
          flanking it; 0.5 by default *)
}

type step_stat = {
  group : int list;              (** module ids added this step *)
  num_integer_vars : int;
  num_constraints : int;
  num_cover_rects : int;
  milp_status : Fp_milp.Branch_bound.status;
  nodes : int;
  lp_solves : int;               (** node LPs solved; always [nodes] *)
  warm_hits : int;               (** node LPs answered from the parent basis *)
  pivots : int;                  (** total simplex pivots (primal + dual) *)
  refactorizations : int;        (** basis refactorizations across node LPs *)
  warm_height : float;           (** bottom-left incumbent height *)
  step_height : float;           (** chip height after this step *)
  step_time : float;             (** seconds, including rejected candidates *)
  time_budget : float;
      (** MILP wall-clock budget the step ran under — the per-step cap,
          shrunk by run-deadline apportionment; [0] for
          deadline-truncated steps *)
  candidates_evaluated : int;
      (** candidate groups whose MILPs were solved this step; the stats
          above describe only the committed one.  [0] for
          deadline-truncated steps (no MILP ran) *)
  retries : int;
      (** always [0]: every step runs its search once.  Kept so that
          readers of the field keep compiling. *)
  degradations : Degradation.t list;
      (** every way this step fell short of the clean optimizing path;
          empty on a healthy step *)
}

type inspect = {
  on_model : Formulation.built -> unit;
      (** Called with every {e committed} step's formulation — lint
          hook.  Rejected candidate formulations are not observed, and
          the call happens after candidate selection (hooks always run
          on the calling domain). *)
  on_step : step_stat -> Placement.t -> unit;
      (** Called after every augmentation step with the step's stats and
          the partial placement it produced — certification hook. *)
}
(** Observation hooks injected through {!config}.  [Fp_core] cannot
    depend on [Fp_check] (the checker certifies this library's output),
    so callers that want every model linted and every partial placement
    certified inject the checks here — see the [check] subcommand and
    [--lint] flag of [bin/floorplanner.ml].

    A hook that raises {!Abort} interrupts the run cooperatively: [run]
    returns the partial result (with [interrupted = true]) after the
    commit the hook observed — and after the checkpoint journal for
    that commit was written, so the run is resumable.  Any {e other}
    exception from a hook is contained and recorded as a [Hook_failed]
    degradation; hooks observe, they cannot kill the run. *)

type config = {
  chip_width : float option;
      (** [None]: use [sqrt total_reserved_area], clamped so the widest
          module fits *)
  height_limit : float option;
      (** fixed-outline mode (default [None]): cap each step's
          chip-height variable at this value, so the MILP optimizes
          {e within} the outline instead of merely minimizing height.
          The cap is floored at what keeps every step's model well-posed
          (tallest item minimum, obstacle tops); a step that cannot meet
          the outline degrades to its warm packing rather than failing.
          Whether the {e final} plan fits is the caller's check (see
          {!Outline.excess}).  Digested into checkpoints only when set,
          so journals from unconstrained runs stay valid. *)
  group_size : int;          (** modules added per augmentation step *)
  ordering : [ `Linear | `Random of int | `Area_desc ];
  objective : Formulation.objective;
  formulation : Formulation.mode;
      (** MILP strengthening mode for every step's model (default
          [Basic]; see {!Formulation.mode}).  Digested into checkpoints
          only when not [Basic], so existing journals stay valid. *)
  allow_rotation : bool;
  linearization : Formulation.linearization;
  use_covering : bool;
      (** [false] keeps every placed module as its own obstacle — the
          ablation showing what Theorem 2 buys *)
  max_cover_rects : int option;
      (** coarsen the covering to at most this many rectangles *)
  envelope : envelope_config option;  (** around-the-cell routing mode *)
  compact_each_step : bool;
      (** run {!Compact.vertical} after every augmentation step (an
          extension beyond the paper's end-of-run adjustment; ablatable) *)
  critical_net_bound : (Fp_netlist.Net.t -> float option) option;
      (** per-net HPWL upper bounds (the paper's timing constraints on
          critical nets).  Enforced as hard constraints inside every MILP
          step that sees the net; {e best-effort across steps} — if an
          earlier group already stretched the net so far that a later
          step cannot satisfy the bound, that step falls back to its
          warm start rather than failing the run, and the step's
          {!step_stat} records a [Net_bound_dropped] degradation naming
          exactly the nets whose bound the committed placement newly
          exceeds *)
  milp : Fp_milp.Branch_bound.params;
  inspect : inspect option;  (** observation hooks; [None] by default *)
  candidates : int;
      (** candidate next groups evaluated per step (default [1]).  The
          first [candidates] groups of the remaining ordering are each
          formulated and solved against the same partial floorplan,
          concurrently on up to [Domain.recommended_domain_count ()]
          domains ({!Fp_util.Pool}); the one yielding the lowest skyline
          is committed (ties go to the earliest in the ordering) and the
          rest return to the queue.  Changes the greedy search — results
          differ from [candidates = 1] by construction — but stays
          deterministic for a fixed config. *)
  run_time_limit : float option;
      (** run-level wall-clock budget in seconds (default [None]).  The
          remaining budget is re-apportioned before every step —
          [share = time_left / steps_left] — and caps that step's MILP
          time limit; once the budget is spent, remaining groups are
          committed from their warm packings ([Deadline_truncated]).
          The run {e always} finishes with a full feasible placement. *)
  checkpoint : string option;
      (** journal path (default [None]).  When set, a {!Journal} is
          written atomically after {e every} committed step; pass the
          parsed journal back as [?resume] to continue an interrupted
          run.  See [docs/robustness.md] for the format. *)
}

val default_config : config
(** group size 4, linear ordering, area objective, rotation on, secant
    linearization, covering on, no envelopes, MILP budget 4000 nodes /
    20 s per step, no checks, no hooks, one candidate per step, no run
    deadline, no checkpoint. *)

exception Abort
(** Cooperative interrupt: raised by an inspection hook to stop the run
    after the current commit.  [run] catches it and returns the partial
    result; every other hook exception is contained as a degradation. *)

type result = {
  placement : Placement.t;
  steps : step_stat list;
      (** stats of the steps {e this} run executed — a resumed run only
          reports the steps after the checkpoint *)
  total_time : float;
  config : config;
  degradations : (int * Degradation.t) list;
      (** run-level summary: every degradation with the 1-based global
          step number it occurred at (checkpoint offset included).
          Empty means the clean optimizing path was taken throughout —
          the condition for CLI exit code 0. *)
  interrupted : bool;
      (** [true] when a hook raised {!Abort}; the placement is partial *)
}

val config_digest : config -> string
(** Hex MD5 of the configuration fields that shape the placement
    trajectory.  Excludes the observational fields ([inspect],
    [checkpoint]); closures contribute presence only.  The removed retry
    ladder's defaults are still rendered, so journals written before its
    removal resume. *)

val run :
  ?config:config ->
  ?resume:Journal.t ->
  Fp_netlist.Netlist.t ->
  result
(** Run the full successive-augmentation floorplanner on an instance.
    Deterministic for a fixed config (without a [run_time_limit]; wall
    clock budgets are inherently timing-dependent).

    [resume], when given, must be a journal written by a run with the
    same {!config_digest} and the same instance; the run continues from
    the journaled partial placement and remaining ordering, and the
    final floorplan is bit-identical to the uninterrupted run's.

    @raise Invalid_argument on an instance with no modules, a chip
    width too small for some module, or a checkpoint/config/instance
    mismatch. *)

val items_of_group :
  config -> Fp_netlist.Netlist.t -> int list -> Formulation.item list
(** The formulation items (with envelope margins applied per the config)
    for a group of module ids — exposed for tests and the ablation
    bench. *)
