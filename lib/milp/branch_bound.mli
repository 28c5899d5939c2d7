(** Branch-and-bound solver for 0–1 mixed integer linear programs.

    This plays the role LINDO plays in the paper (section 3): an exact
    solver for the small MILP subproblems produced by successive
    augmentation.  Depth-first search over LP relaxations solved by the
    bounded-variable revised simplex {!Fp_lp.Revised}, with

    - basis warm starting: each child node re-solves from its parent's
      optimal basis via the dual simplex (branching only flips variable
      bounds, which preserves dual feasibility), with a cold solve as
      fallback on singular or stale bases;
    - 4-way branching on declared disjunction pairs (the paper's
      [(x_ij, y_ij)] "which side is module i on" variables), children
      ordered by proximity to the LP relaxation point;
    - floor/ceil branching on remaining fractional integers, nearest side
      first;
    - warm starting from a caller-supplied feasible point (the floorplan
      layer seeds it with a bottom-left skyline placement), so pruning is
      effective from the first node;
    - node- and time-budgets: when exhausted the best incumbent is
      returned with status [Feasible], mirroring how LINDO was used on a
      4-MIPS Apollo workstation;
    - optional multi-domain search ([jobs > 1]): a short sequential
      ramp-up captures the unexplored frontier, whose subtrees are then
      explored on a {!Fp_util.Pool} of domains, each with its own copy
      of the problem and its own simplex state.

    The search is deterministic given the model and parameters: the
    parallel search replays the sequential one exactly (same incumbent,
    same node count, independent of domain scheduling), at the cost of
    re-exploring subtrees whose speculative pruning bound turned out
    stale.  Each pool task writes only its own domain's search state;
    no incumbent is shared between domains.  See [docs/parallel.md].

    Fault sites (for {!Fp_util.Fault}, exercised by the resilience
    tests): ["branch_bound.budget"] forces the budget check to report
    exhaustion, exercising the anytime path (best incumbent — usually
    the caller's warm start — returned as [Feasible]/[No_solution]);
    ["branch_bound.task_loss"] drops a frontier task's result, which the
    consume loop recovers by re-running the subtree inline under the
    exact sequential contract (counted in [tasks_lost]).  See
    [docs/robustness.md]. *)

type branch_rule =
  | Most_fractional
      (** branch on the integer variable farthest from integrality *)
  | First_fractional
      (** branch on the first fractional integer variable in declaration
          order — lets the modeler encode "decide the big modules first"
          by declaration order *)

type params = {
  node_limit : int;        (** maximum branch-and-bound nodes (default 200_000) *)
  time_limit : float;      (** seconds (default 120.) *)
  int_tol : float;         (** integrality tolerance (default 1e-6) *)
  min_improvement : float; (** required objective improvement before a node
                               survives pruning; raising it trades quality
                               for speed (default 1e-7) *)
  log : bool;              (** emit progress on [Logs] (default false) *)
  branch_rule : branch_rule;  (** default [Most_fractional] *)
  warm_lp : bool;
      (** warm-start child LPs from the parent basis (default [true]);
          [false] forces a cold solve at every node — used by the
          warm-start ablation bench *)
  shadow_cold : bool;
      (** additionally solve every node LP cold, discarding the answer
          and accumulating its pivots in [shadow_pivots] (default
          [false]).  Gives the warm-start ablation a matched-tree
          comparison: both engines priced on the identical sequence of
          subproblems, same floorplan by construction.  Roughly doubles
          node cost; never use outside benchmarking. *)
  jobs : int;
      (** number of domains to search on (default [1], fully
          sequential).  Ignored when a [pool] is passed to {!solve} —
          the pool's size wins. *)
  ramp_nodes : int;
      (** nodes explored sequentially before the frontier is handed to
          the pool (default [32]).  Larger values seed more, smaller
          tasks; only meaningful when [jobs > 1]. *)
  propagate : bool;
      (** run {!Fp_lp.Lp_problem.propagate_bounds} (interval propagation
          with integer snapping) at every node before its LP (default
          [false]).  A child whose propagation empties an interval or
          whose objective box bound already meets the cutoff is pruned
          without counting as a node or solving an LP — on big-M
          disjunction models most infeasible branch combinations die
          here.  Propagated bounds ride the task trail, so parallel
          replay stays bit-identical.  Enabled by the [Tight]
          formulation mode. *)
}

val default_params : params

type status =
  | Optimal       (** search completed; incumbent is proven optimal *)
  | Feasible      (** budget exhausted (or a subtree was abandoned without
                      a bound); best incumbent returned *)
  | Infeasible    (** no integer-feasible point exists *)
  | Unbounded     (** LP relaxation unbounded at the root *)
  | No_solution   (** budget exhausted before any incumbent was found *)

type domain_work = {
  d_nodes : int;
  d_lp_solves : int;
  d_warm_hits : int;
  d_cold_solves : int;
  d_refactorizations : int;
  d_pivots : int;
  d_shadow_pivots : int;
  d_numerical_recoveries : int;
}
(** Per-domain slice of the search-effort counters.  This counts {e all}
    work a domain performed, including speculation that was later
    discarded by the replay — the honest parallel cost, not the
    sequential-equivalent cost. *)

type outcome = {
  status : status;
  best : (float array * float) option;
      (** incumbent point and objective (original sense, constant
          included) *)
  nodes : int;
      (** nodes whose LP relaxation was evaluated; always equal to
          [lp_solves] *)
  lp_solves : int;
  warm_hits : int;
      (** node LPs answered from the parent basis (dual-simplex path) *)
  cold_solves : int;
      (** node LPs solved from scratch, including warm-start fallbacks *)
  refactorizations : int;
      (** basis refactorizations across all node LPs *)
  pivots : int;
      (** total simplex pivots (primal + dual) across all node LPs *)
  shadow_pivots : int;
      (** pivots the cold engine spent on the same node sequence; [0]
          unless [shadow_cold] was set *)
  numerical_recoveries : int;
      (** node LPs that needed a recovery path: a requested warm start
          that fell back to a cold solve (singular or stale basis), or
          an LP that hit its own iteration limit and was handled via the
          parent-bound retreat.  Nonzero values mean the answer is still
          trustworthy but the numerics were stressed. *)
  tasks_lost : int;
      (** frontier-task results that vanished (worker failure or
          injected fault) and were re-run inline; [0] in healthy runs *)
  root_bound : float;
      (** LP-relaxation bound at the root, original sense *)
  elapsed : float;
  per_domain : domain_work array;
      (** one entry per worker domain (entry [0] is the calling domain,
          which also performed the ramp-up); a single entry for
          sequential runs *)
  frontier_tasks : int;
      (** subtrees captured by the ramp-up and handed to the pool; [0]
          for sequential runs and for trees the ramp-up exhausted *)
  waves : int;
      (** speculative parallel waves launched; [1] when no task's
          pruning bound went stale, [0] for sequential runs *)
}

val solve :
  ?params:params -> ?warm:float array -> ?pool:Fp_util.Pool.t -> Model.t ->
  outcome
(** [solve model] runs the search over the model's fixed row set; only
    variable bounds change from node to node.  [warm], when given, must
    be feasible and integral (checked; silently ignored otherwise — a
    bad warm start must never corrupt the search).

    [pool], when given, supplies the worker domains for [jobs > 1] (and
    overrides [params.jobs] with its size); otherwise a private
    {!Fp_util.Pool.with_pool} brackets the frontier phase.  Passing a shared
    pool amortizes domain spawning across many [solve] calls — the
    successive-augmentation driver does exactly that.  The caller must
    not invoke [solve] with the same pool from two domains at once (see
    {!Fp_util.Pool.run} on nesting). *)
