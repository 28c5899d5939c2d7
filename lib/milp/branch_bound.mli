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
      4-MIPS Apollo workstation.

    The search is sequential and deterministic given the model and a
    node budget (a time limit stops it at a timing-dependent node).
    Why there is no parallel search: see [docs/parallel.md].

    Fault site (for {!Fp_util.Fault}, exercised by the resilience
    tests): ["branch_bound.budget"] forces the budget check to report
    exhaustion, exercising the anytime path (best incumbent — usually
    the caller's warm start — returned as [Feasible]/[No_solution]).
    See [docs/robustness.md]. *)

type params = {
  node_limit : int;        (** maximum branch-and-bound nodes (default 200_000) *)
  time_limit : float;      (** seconds (default 120.) *)
  min_improvement : float; (** required objective improvement before a node
                               survives pruning; raising it trades quality
                               for speed (default 1e-7) *)
  propagate : bool;
      (** run {!Fp_lp.Lp_problem.propagate_bounds} (interval propagation
          with integer snapping) at every node before its LP (default
          [false]).  A child whose propagation empties an interval or
          whose objective box bound already meets the cutoff is pruned
          without counting as a node or solving an LP — on big-M
          disjunction models most infeasible branch combinations die
          here.  Enabled by the [Tight] formulation mode. *)
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
(** Search effort, counted while the search runs. *)

val no_work : work
(** All counters zero. *)

type outcome = {
  status : status;
  best : (float array * float) option;
      (** incumbent point and objective (original sense, constant
          included) *)
  work : work;  (** all work the search performed *)
  root_bound : float;
      (** LP-relaxation bound at the root, original sense *)
}

val solve : ?params:params -> ?warm:float array -> Model.t -> outcome
(** [solve model] runs the search over the model's fixed row set; only
    variable bounds change from node to node.  [warm], when given, must
    be feasible and integral (checked; silently ignored otherwise — a
    bad warm start must never corrupt the search).  The model's problem
    is mutated during the search and restored on return, so concurrent
    solves need separate models. *)
