(** Race several {!Solver.t}s on one scenario and keep the best plan.

    The racer runs every selected engine concurrently, one engine per
    task of one {!Fp_util.Pool} batch ([jobs] clamped to the engine
    count), each with a private RNG stream and all sharing one
    {!Fp_util.Abort} flag and one absolute deadline derived from the
    scenario's [time_budget].

    Two policies:

    - [Best_certified] (default): every engine runs to its own
      completion (or the shared deadline) and the winner is chosen
      afterwards — the lowest {!Solver.stats.objective} among certified
      outcomes, ties broken by engine order.  Without a [time_budget]
      the whole race is deterministic for a fixed seed, {e including
      across [jobs] values}: winner selection only reads per-engine
      results that are themselves deterministic.
    - [First_certified]: the first engine to finish with a certified
      plan signals the abort flag; still-running engines wind down at
      their next safe point and engines not yet started are skipped
      ({!Fp_util.Pool.run}'s [?abort]).  Which engine "finishes first"
      is wall-clock dependent by nature — use this policy for latency,
      [Best_certified] for reproducibility.

    An engine that raises is recorded as an [Engine_failed] degradation
    on its entry and the race continues; the racer itself fails only
    when {e no} engine produced a certified plan. *)

type policy = Best_certified | First_certified

type entry = {
  solver_name : string;
  outcome : Solver.outcome;
  ran : bool;  (** [false] when the racer skipped it (abort already set) *)
}

type report = {
  winner : entry option;
      (** the chosen certified outcome; [None] when no engine certified *)
  entries : entry list;  (** in engine order, one per selected engine *)
  wall_time : float;
  policy : policy;
}

val race :
  ?policy:policy ->
  ?jobs:int ->
  engines:Solver.t list ->
  scenario:Solver.scenario ->
  Fp_netlist.Netlist.t ->
  report
(** [jobs] defaults to the engine count (each engine gets a worker);
    values beyond the engine count are clamped down, [jobs = 1] runs
    the engines sequentially in order (still honoring the policy —
    under [First_certified] a sequential race short-circuits
    deterministically).
    @raise Invalid_argument on an empty engine list. *)

val degradations_of : report -> Fp_core.Degradation.t list
(** The winning entry's degradations (empty when there is no winner) —
    the input for {!Fp_core.Degradation.exit_code} on portfolio runs.
    The exit code reflects the quality of the plan actually returned,
    not of the losing engines; their records stay visible in
    [entries] and the bench JSON. *)
