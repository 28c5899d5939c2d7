(** Static analysis of MILP models before they reach the solver.

    Hand-built big-M formulations are a classic source of silent modeling
    bugs (Huchette–Dey–Vielma, "Strong mixed-integer formulations for the
    floor layout problem"): a big-M constant smaller than the span of its
    disjunct silently clips the feasible region, one a thousand times too
    large wrecks numerical conditioning, and a dropped disjunction lets
    modules overlap with no solver error.  {!model} walks a
    {!Fp_milp.Model} and emits structured {!Diagnostic.t}s for these and
    other pathologies; {!formulation} additionally audits the structural
    invariants of a floorplanning subproblem (every pair of objects must
    carry a non-overlap separation).

    The big-M analysis is sound but two-staged: cheap interval arithmetic
    over (tightened) variable bounds first; rows it cannot clear are
    re-examined with an exact LP — maximize the row's left-hand side over
    the rest of the model with the row's slack binaries pinned to their
    deactivating values — so correlated variables (e.g. [x_i + w_i <= W]
    elsewhere in the model) do not produce false positives.

    Diagnostic codes are catalogued with triggering examples in
    [docs/analysis.md]. *)

module Model = Fp_milp.Model

val model : ?slack_binaries:Model.var list -> Model.t -> Diagnostic.t list
(** Lint one model.  Checks (codes ML001–ML010, see docs/analysis.md):
    infeasible variable bound pairs; variables in no constraint;
    unbounded continuous variables with objective coefficients; trivially
    infeasible and vacuous rows; duplicate / parallel rows; per-row
    coefficient dynamic range; big-M constants too small to deactivate
    their disjunct or needlessly large; binaries not covered by any
    {!Model.declare_pair}.

    [slack_binaries] are the binaries acting as big-M disjunct switches;
    by default, the binaries declared in {!Model.pairs}.

    The big-M thresholds are fixed.  A row is needlessly large when its
    deactivation capacity exceeds 1000x the required span, unless its
    switches belong to one declared pair: a pair is flagged once, and
    only when every direction row exceeds 64x (one loose direction is
    normal even under exact per-pair coefficients).  When the exact LP
    stops at its iteration limit, the interval estimate decides: a
    deficit beyond 25% of the span is an Error, a smaller one a
    Warning. *)

val formulation : Fp_core.Formulation.built -> Diagnostic.t list
(** {!model} with the exact slack-binary set of the formulation, plus the
    structural checks (codes FL001–FL003): every item pair and every
    item–fixed-rectangle pair must carry a separation entry, and every
    fixed (covering) rectangle must lie inside the chip strip. *)
