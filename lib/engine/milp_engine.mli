(** The successive-augmentation MILP pipeline as a {!Solver.t}.

    Wraps {!Fp_core.Augment.run} plus the finishing passes the CLI has
    always applied ({!Fp_core.Compact.vertical}, then
    {!Fp_core.Topology.optimize}; optional {!Fp_core.Refine}).  With a
    default scenario (free outline, no wire term, no budget) the engine
    is {e bit-identical} to calling the pipeline directly: scenario
    knobs only overlay the configuration when they are actually set.

    Scenario mapping: [Max_width w] fixes the chip width at [w];
    [Fixed {w; h}] additionally caps each step's height variable
    ([Augment.config.height_limit]); [wire_weight] switches the
    objective to [Min_height_plus_wire]; [time_budget] becomes the
    run-level deadline ([run_time_limit]); [checkpoint] is the journal
    path.  The context's abort flag is polled after every committed
    step (via an inspection hook raising {!Fp_core.Augment.Abort}). *)

val make :
  ?config:Fp_core.Augment.config ->
  ?resume:Fp_core.Journal.t ->
  ?refine:bool ->
  unit ->
  Solver.t
(** [config] defaults to {!Fp_core.Augment.default_config}; [refine]
    (default [false]) appends {!Fp_core.Refine.reinsert_top}. *)
