(** Bounded-variable revised simplex, the library's only LP solver.

    Treats variable bounds as first class (nonbasic variables rest at
    their lower or upper bound) and keeps the basis as an LU
    factorization with product-form eta updates ({!Basis}).  Because the
    internal column space is exactly [structural variables + one logical
    per row], an optimal basis can be re-used by {!solve_from} after the
    bounds change — the branch-and-bound warm-start path, served by a
    dual-simplex phase.

    Tolerances: primal feasibility [1e-7], dual feasibility [1e-7]
    ([1e-6] when screening a warm basis), ratio-test pivot threshold
    [1e-9]; Dantzig pricing falls back to Bland's rule after [60]
    consecutive degenerate pivots.

    Fault sites (for {!Fp_util.Fault}, exercised by the resilience
    tests): ["revised.iteration_limit"] forces {!solve} / {!solve_from}
    to report [Iteration_limit]; ["basis.singular_lu"] makes
    {!solve_from} treat the snapshot's LU factorization as singular,
    taking the documented cold-solve fallback. *)

type snapshot
(** An immutable basis snapshot: which column is basic in each row
    position plus the rest status (lower / upper / free) of every
    nonbasic column.  Valid for any problem with the same variable and
    row counts — in particular for bound-only modifications of the
    problem that produced it. *)

type result =
  | Optimal of { x : float array; obj : float; basis : snapshot }
  | Infeasible
  | Unbounded
  | Iteration_limit

type stats = {
  primal_pivots : int;
  dual_pivots : int;
  refactorizations : int;
  warm : bool;
      (** [true] when the result was reached from the supplied snapshot;
          [false] on a cold solve or after a fallback. *)
}

val solve : Lp_problem.t -> result * stats
(** Cold solve: logical starting basis, primal phase 1 (violated bound
    sides relaxed with unit costs) when needed, then primal phase 2.
    The pivot budget is [50 * (rows + cols) + 2000]; running out of it
    returns [Iteration_limit]. *)

val solve_from : snapshot -> Lp_problem.t -> result * stats
(** Warm solve from a previous optimal basis.  When the snapshot is
    still dual feasible (always true after a bound-only change), runs
    the dual simplex to repair primal feasibility; otherwise restarts
    primal phase 2 from the snapshot if it is primal feasible.  Falls
    back to a cold {!solve} on dimension mismatch, singular basis, or
    numerical failure. *)
