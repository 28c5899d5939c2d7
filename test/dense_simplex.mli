(** Dense full-tableau two-phase primal simplex: the reference oracle the
    LP tests check {!Fp_lp.Revised} against.

    It shares no code with the library's solver.  It is the
    bounded-variable simplex method (Chvátal, ch. 8) on an explicit
    tableau:

    - general bounds [lo <= x <= up] are handled implicitly — nonbasic
      variables rest at either bound and may "bound-flip" without a basis
      change;
    - free and upper-bounded-only variables are standardized by splitting /
      mirroring;
    - phase 1 minimizes the sum of artificial variables (artificials are
      only created for rows whose slack cannot seed the basis);
    - Dantzig pricing with an automatic switch to Bland's rule after a run
      of degenerate pivots, which guarantees termination.

    The solver is deterministic: the same problem always takes the same
    pivot sequence. *)

type result =
  | Optimal of { x : float array; obj : float }
      (** [x] is indexed by {!Fp_lp.Lp_problem.var} handles; [obj] is the
          objective of the {e original} problem (sense respected). *)
  | Infeasible
  | Unbounded
  | Iteration_limit
      (** The pivot budget was exhausted before optimality was proven. *)

val solve : Fp_lp.Lp_problem.t -> result
(** Solve the LP within [50 * (rows + cols) + 2000] pivots across both
    phases. *)
