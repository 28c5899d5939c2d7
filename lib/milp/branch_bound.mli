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
    - optional multi-domain search (a {!Fp_util.Pool} of more than one
      worker passed to {!solve}): a short sequential ramp-up captures
      the unexplored frontier, whose subtrees are then explored on the
      pool's domains, each with its own copy of the problem and its own
      simplex state.

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

type params = {
  node_limit : int;        (** maximum branch-and-bound nodes (default 200_000) *)
  time_limit : float;      (** seconds (default 120.) *)
  min_improvement : float; (** required objective improvement before a node
                               survives pruning; raising it trades quality
                               for speed (default 1e-7) *)
  ramp_nodes : int;
      (** nodes explored sequentially before the frontier is handed to
          the pool (default [32]).  Larger values seed more, smaller
          tasks; only meaningful when {!solve} gets a [pool]. *)
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
(** The search itself is fixed: child LPs warm-start from the parent
    basis, the branching variable is the first fractional integer
    variable in declaration order (so a modeler encodes "decide the big
    modules first" by declaration order), and a value within [1e-6] of
    an integer counts as integral. *)

val default_params : params

type status =
  | Optimal       (** search completed; incumbent is proven optimal *)
  | Feasible      (** budget exhausted (or a subtree was abandoned without
                      a bound); best incumbent returned *)
  | Infeasible    (** no integer-feasible point exists *)
  | Unbounded     (** LP relaxation unbounded at the root *)
  | No_solution   (** budget exhausted before any incumbent was found *)

type work = {
  nodes : int;
      (** nodes whose LP relaxation was solved — one LP per node *)
  warm_hits : int;
      (** node LPs answered from the parent basis (dual-simplex path);
          the other [nodes - warm_hits] were solved from scratch *)
  pivots : int;
      (** total simplex pivots (primal + dual) across all node LPs *)
  refactorizations : int;
      (** basis refactorizations across all node LPs *)
  numerical_recoveries : int;
      (** node LPs that needed a recovery path: a requested warm start
          that fell back to a cold solve (singular or stale basis), or
          an LP that hit its own iteration limit and was handled via the
          parent-bound retreat.  Nonzero values mean the answer is still
          trustworthy but the numerics were stressed. *)
}
(** Search effort.  One record counts a domain's work while it
    searches, is that domain's [per_domain] entry, and (summed over the
    domains) is the outcome's total. *)

val no_work : work
(** All counters zero. *)

type outcome = {
  status : status;
  best : (float array * float) option;
      (** incumbent point and objective (original sense, constant
          included) *)
  work : work;
      (** the sum of [per_domain]: {e all} work the search performed,
          including parallel speculation that the replay later discarded
          — the honest parallel cost, not the sequential-equivalent
          cost *)
  tasks_lost : int;
      (** frontier-task results that vanished (worker failure or
          injected fault) and were re-run inline; [0] in healthy runs *)
  root_bound : float;
      (** LP-relaxation bound at the root, original sense *)
  per_domain : work array;
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

    [pool], when given with more than one worker, runs the search on
    its domains; without it the search is sequential.  The caller owns
    the pool, so one pool amortizes domain spawning across many [solve]
    calls — [Fp_core.Augment.run] does exactly that.  The
    caller must not invoke [solve] with the same pool from two domains
    at once (see {!Fp_util.Pool.run} on nesting). *)
