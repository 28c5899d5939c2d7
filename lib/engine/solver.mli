(** The engine-agnostic solver contract.

    Every floorplanning backend in this repository — the paper's
    successive-augmentation MILP ({!Milp_engine}), the Wong–Liu slicing
    annealer ({!Sa_engine}), and the Per-RMAP-style projection solver
    ({!Project}) — is exposed as a {!t}: a named function from an
    instance plus {e scenario} knobs to an {!outcome} carrying an
    independently certified plan and typed stats.  Callers (the CLI, the
    bench, {!Portfolio.race}) program against this record and never
    against a concrete engine.

    The split of inputs is deliberate:

    - the {!scenario} is {e what to solve} — seed, outline, wirelength
      weight, wall-clock budget, checkpoint path.  It is shared verbatim
      by every engine in a portfolio so they race on the same problem;
    - the {!context} is {e how to run} — the RNG stream, the
      cooperative {!Fp_util.Abort} flag and the absolute deadline.  It
      is owned by the caller, so a racer can hand each engine its own
      stream and signal all of them at once.

    Engines must be deterministic for a fixed scenario + seed when no
    deadline or abort fires; wall-clock truncation is inherently
    timing-dependent and is reported through [stats] degradations
    instead of being hidden. *)

module Outline = Fp_core.Outline
module Degradation = Fp_core.Degradation

type scenario = {
  seed : int;           (** RNG seed for stochastic engines *)
  outline : Outline.t;  (** die constraint; see {!Fp_core.Outline} *)
  wire_weight : float option;
      (** [Some w] adds [w * HPWL] to every engine's objective; [None]
          leaves each engine's configured objective untouched *)
  time_budget : float option;
      (** wall-clock budget in seconds for one engine run; a portfolio
          turns it into one shared absolute {!context.deadline} *)
  checkpoint : string option;
      (** journal path for engines that checkpoint (MILP only today);
          others ignore it *)
}

val default_scenario : scenario
(** seed 1990, free outline, no wire term, no budget, no checkpoint. *)

type context = {
  rng : Fp_util.Rng.t;
      (** the engine's private stream — callers create one per engine
          from the scenario seed so racing engines never share *)
  abort : Fp_util.Abort.t;
      (** cooperative cancellation; engines poll it at their safe
          points and return their best-so-far when it is set *)
  deadline : float option;
      (** absolute [Unix.gettimeofday]-scale instant to stop by —
          already combined from the scenario's [time_budget] by
          {!of_scenario} *)
}

val of_scenario : scenario -> context
(** Fresh context for a standalone run: a new RNG from the scenario
    seed, a new abort flag, and the deadline anchored at now +
    [time_budget]. *)

type stats = {
  engine : string;       (** the solver's [name] *)
  wall_time : float;     (** seconds spent inside [solve] *)
  work : int;
      (** engine-specific effort unit: B&B nodes for MILP, attempted
          moves for SA, projection sweeps for the projection solver *)
  objective : float;
      (** scenario objective recomputed from the returned geometry by
          {!finalize} — comparable {e across} engines: chip height when
          the outline constrains the width, bounding-box area when it
          is free, plus the scenario wire term.  [infinity] when there
          is no plan *)
  certified : bool;
      (** the plan passed {!Fp_check.Certify.placement} (the referee
          re-checks from first principles; engines cannot self-certify)
          {e and} fits the scenario outline *)
  complete : bool;
      (** every module is placed and the engine ran to its own
          completion (not truncated/interrupted) *)
  degradations : (int * Degradation.t) list;
      (** every way the run fell short of its clean path, with the
          engine-specific step index it happened at *)
  detail : (string * float) list;
      (** engine-specific numeric extras for the bench JSON (e.g.
          ["nodes"], ["accepted"], ["sweeps"]) *)
}

type outcome = {
  plan : Fp_core.Placement.t option;
      (** [None] only when the engine failed outright; a truncated
          engine still returns its best-so-far *)
  stats : stats;
}

type t = {
  name : string;  (** stable id: ["milp"], ["sa"], ["project"] *)
  solve : context -> scenario -> Fp_netlist.Netlist.t -> outcome;
}

val objective_of :
  scenario -> Fp_netlist.Netlist.t -> Fp_core.Placement.t -> float
(** The cross-engine scenario objective of a plan (see
    {!stats.objective}). *)

val finalize :
  engine:string ->
  scenario:scenario ->
  t0:float ->
  work:int ->
  complete:bool ->
  degradations:(int * Degradation.t) list ->
  detail:(string * float) list ->
  Fp_netlist.Netlist.t ->
  Fp_core.Placement.t option ->
  outcome
(** Shared epilogue every engine ends with: certify the plan with
    {!Fp_check.Certify}, measure the outline excess (recording an
    [Outline_exceeded] degradation and withholding certification when
    the plan overflows a requested outline), recompute the scenario
    objective, and stamp the wall time against [t0]. *)

val deadline_left : context -> float option
(** Seconds until the context deadline ([None] when unlimited); never
    negative. *)
