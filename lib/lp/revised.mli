(** Bounded-variable revised simplex, the library's only LP solver.

    Treats variable bounds as first class (nonbasic variables rest at
    their lower or upper bound) and keeps the basis as an LU
    factorization with product-form eta updates ({!Basis}).  Because the
    internal column space is exactly [structural variables + one logical
    per row], an optimal basis can be re-used by {!solve_from} after the
    bounds change — the branch-and-bound warm-start path, served by a
    dual-simplex phase.  A search standardizes its problem once, in a
    {!workspace}, and the children of a branched node share one
    factorization of its basis through a {!start}.

    Tolerances: primal feasibility [1e-7], dual feasibility [1e-7]
    ([1e-6] when screening a warm basis), ratio-test pivot threshold
    [1e-9]; Dantzig pricing falls back to Bland's rule after [60]
    consecutive degenerate pivots.

    Fault sites (for {!Fp_util.Fault}, exercised by the resilience
    tests): ["revised.iteration_limit"] forces a solve to report
    [Iteration_limit]; ["basis.singular_lu"] makes a warm solve treat the
    snapshot's LU factorization as singular, taking the documented
    cold-solve fallback.  It is checked once per warm solve, before a
    shared factorization ({!start}) is computed or used. *)

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

(** {2 Repeated solves of one problem}

    A branch-and-bound search solves one problem thousands of times,
    changing only variable bounds in between.  A {!workspace}
    standardizes the problem once and keeps the basis and the scratch
    vectors of every solve; a {!start} lets the sibling nodes of a
    search share one factorization of their parent's basis.  Both are
    mutable: keep each value on one domain.  {!solve} and {!solve_from}
    are {!resolve} on a fresh workspace, and every path performs the
    same floating-point operations. *)

type workspace

val workspace : Lp_problem.t -> workspace
(** Standardize the problem.  Its rows, coefficients, right-hand sides,
    objective and sense are read once, here; each {!resolve} re-reads
    only the variable bounds. *)

type start
(** A warm start from a snapshot.  The first {!resolve} from it
    factorizes the snapshot's basis; later ones reuse the factors.  Use
    a start with one workspace only: its factors belong to that
    workspace's matrix. *)

val start : snapshot -> start

val resolve : workspace -> start option -> result * stats
(** [resolve ws None] is a cold solve of the workspace's problem under
    its current bounds; [resolve ws (Some s)] a warm solve from [s], as
    {!solve} and {!solve_from} describe.  @raise Invalid_argument when
    variables or rows were added to the problem since {!workspace}. *)
