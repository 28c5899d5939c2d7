(** Structured degradation taxonomy for the resilient solve engine.

    Successive augmentation is an anytime algorithm: every step commits
    {e some} certified-feasible placement of its group, but not always
    the one the MILP would have proven optimal.  Each way a step can
    fall short of the clean path is a [Degradation.t], recorded in the
    step's {!Augment.step_stat} and summarized across the run in
    {!Augment.result} — so a degraded answer is visible in the result
    value, the [check] verdict, and the CLI exit code, never only in a
    log line.  See [docs/robustness.md] for the full ladder. *)

type t =
  | Budget_exhausted_warm_fallback
      (** the step's MILP ran out of nodes or time and its best point
          was (or equalled) the warm-start packing — the group is placed
          by the skyline heuristic, not by optimization *)
  | Raw_warm_packing
      (** the MILP produced no usable point at all (solver failure or
          [Infeasible] under the linearized model); the warm packing was
          committed directly *)
  | Net_bound_dropped of string list
      (** the critical-net length bound was dropped to restore
          feasibility; the listed nets exceed the configured bound in
          the committed placement *)
  | Numerical_recovery of int
      (** the step's LP relaxations needed [n] recovery paths (warm
          basis fell back to cold, or an iteration-limited LP retreated
          to its parent bound); the answer stands, the numerics were
          stressed *)
  | Deadline_truncated
      (** the run-level time budget expired before this step; the group
          was committed from its warm packing without running a MILP *)
  | Hook_failed of string
      (** an inspection hook raised; the exception text is kept and the
          run continued (hooks observe, they must not kill the run) *)
  | Candidate_failed of string
      (** a candidate-group evaluation raised and was excluded from
          selection; the surviving candidates decided the step *)
  | Worker_failure of string
      (** the worker pool failed while evaluating candidates; the step
          fell back to sequential evaluation *)
  | Outline_exceeded of float
      (** the committed plan overflows the requested fixed outline by
          the given amount (the larger of the per-axis overshoots); the
          plan is still overlap-free and certified, the outline
          constraint was relaxed *)
  | Engine_failed of string
      (** a portfolio engine raised or produced no plan; the exception
          text is kept and the race continued with the remaining
          engines *)

val severity : t -> int
(** Coarse rank for sorting and for deciding a run's overall verdict:
    [0] — informational, result quality unaffected
    ([Numerical_recovery], [Hook_failed], [Candidate_failed],
    [Worker_failure], [Engine_failed]);
    [1] — quality degraded but constraints hold
    ([Budget_exhausted_warm_fallback], [Deadline_truncated]);
    [2] — a stated constraint was relaxed ([Net_bound_dropped],
    [Raw_warm_packing], [Outline_exceeded]). *)

val degrades_quality : t -> bool
(** [severity t >= 1] — the degradations that make a run
    "degraded-feasible" (CLI exit code 3) rather than clean. *)

val to_string : t -> string
(** Stable, machine-greppable rendering, e.g.
    ["budget_exhausted_warm_fallback"], ["net_bound_dropped(n3,n7)"],
    ["numerical_recovery(2)"]. *)

val pp : Format.formatter -> t -> unit

(** {2 Process exit contract}

    The CLI, the bench driver and the examples all map run outcomes to
    process exit codes through these constants — the SA008 lint rejects
    raw [exit <int>] literals anywhere else — so the mapping below is
    definitional:

    - {!exit_clean} ([0]) — finished, no quality-degrading events;
    - {!exit_error} ([1]) — hard failure (bad input, solver error,
      failed certification);
    - {!exit_degraded} ([3]) — feasible but quality-degraded (warm
      fallbacks, dropped net bounds, deadline truncation).

    Exit code [2] is left to the runtimes/tools convention (usage
    errors; also what [bin/fp_lint] uses for baseline problems). *)

val exit_clean : int
val exit_error : int
val exit_degraded : int

val exit_code : t list -> int
(** [exit_code ds] is {!exit_degraded} when any degradation in [ds]
    {!degrades_quality}, else {!exit_clean}. *)
