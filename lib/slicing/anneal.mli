(** Simulated-annealing slicing floorplanner — the Wong–Liu (DAC'86)
    baseline the paper's related-work section contrasts with.

    Search space: normalized Polish expressions ({!Polish}); neighbour
    moves M1 (swap adjacent operands), M2 (complement an operator chain),
    M3 (swap an adjacent operand/operator pair); cost: bounding-box area
    of the best realization plus an optional wirelength term and an
    outline penalty; schedule: geometric cooling with an adaptive initial
    temperature.

    A move re-merges only the cuts it touches: the leaf curves are built
    once per run, and each run sizes its moves through its own
    {!Shape.memo}, which re-merges the cuts within the changed span of
    the expression and their ancestors and reuses every other subtree
    (6–8 merges per move on 33–56 modules, where sizing the whole
    expression takes 32–55).  The chip is read from the root curve
    ({!Shape.root}) — the same root {!Shape.realize} places, so cost and
    plan cannot disagree.  A placement is built per move only for the
    wirelength term (when [wire_weight] is non-zero).

    Deterministic for a fixed seed. *)

type config = {
  seed : int;
  cooling : float;          (** temperature ratio per stage (default 0.88) *)
  moves_per_stage : int;    (** attempted moves per temperature; scaled by
                                the module count internally *)
  stages : int;             (** maximum cooling stages (default 60) *)
  wire_weight : float;      (** weight of the HPWL term (default 0.) *)
  outline : Fp_core.Outline.t;
      (** [Free] (default) minimizes bounding-box area; [Max_width w]
          realizes for minimum height at bounded width, like the MILP's
          fixed-width chip; [Fixed] also caps the height.  Realization
          falls back to the minimum-area root when no root fits the
          width cap, so the cost charges excess on both axes: [4 h]
          per unit of width excess under [Max_width], and [4 w_max] per
          unit of height plus [4 h_max] per unit of width excess under
          [Fixed], which drives the search inside the outline *)
  time_limit : float option;
      (** wall-clock budget in seconds (default [None]); checked at each
          cooling-stage boundary, and the best plan so far is returned
          with [stats.truncated] set *)
  flex_samples : int;       (** shape samples per flexible module
                                (default 6, at least 2) *)
}

val default_config : config

type stats = {
  iterations : int;
  accepted : int;
  best_cost : float;
  initial_cost : float;
  elapsed : float;
  truncated : bool;
      (** the run stopped early on its [time_limit] or an [?abort]
          signal; the returned plan is the best seen, not the schedule's
          endpoint *)
}

val run :
  ?config:config ->
  ?abort:Fp_util.Abort.t ->
  Fp_netlist.Netlist.t ->
  Fp_core.Placement.t * stats
(** Floorplan an instance.  The returned placement uses the realized
    chip width as [chip_width] and is always valid (slicing floorplans
    cannot overlap).  [abort], polled every move, stops the run
    cooperatively and returns the best plan so far (the portfolio racer
    signals it when another engine wins).  Deadline/abort checks consume
    no randomness: for a fixed seed without truncation the result is
    bit-identical across [time_limit]/[abort] settings.
    @raise Invalid_argument on an empty instance, or when
    [flex_samples < 2] (before the first move). *)
