(** Feasibility-seeking projection floorplanner (Per-RMAP style).

    The cheap third engine of the portfolio, after PAPERS.md
    2304.06698 / 2406.03165: floorplanning is treated as a feasibility
    problem — find module positions satisfying every pairwise
    non-overlap constraint and the die half-spaces — and solved by
    iterated projections, {e superiorized} by small diminishing descent
    steps (gravity for area, net-centroid pulls for wirelength).  No
    LP, no branch-and-bound: one sweep is [O(n^2)] rectangle pushes, so
    the engine scales far past MILP sizes.

    Shapes are fixed up front (rigid modules deterministically rotated
    to landscape when rotation is allowed; flexible modules at their
    squarest legal width), which makes every projection a closed-form
    translation.  The search wraps the feasibility core in an
    outer height-shrink loop: start from the guaranteed-feasible
    bottom-left packing ({!Fp_core.Warm_start}), repeatedly shrink the
    height target geometrically and re-project from the previous
    solution, and keep the last height at which the sweeps converged.
    A [Fixed] outline skips the loop and projects straight onto the
    requested height.

    Deterministic for a fixed scenario seed (sweep order is drawn from
    the context RNG).  The warm packing means the engine {e always}
    returns a certified-valid plan; failing to reach the requested
    outline is reported as a degradation, never as a failure. *)

val solver : Solver.t
(** The engine under its portfolio name ["project"]. *)

val overlaps : float -> float -> float -> float -> int
(** [overlaps a0 a1 b0 b1] is [1] when the intervals [[a0, a1]] and
    [[b0, b1]] overlap by more than {!Fp_geometry.Tol.eps}, else [0]:
    the pair test of every sweep, decided without a branch on the data.
    It equals [Bool.to_int (Tol.gt (min a1 b1 -. max a0 b0) 0.)]
    exactly, including at shared edges and signed zeros. *)
