module Rect = Fp_geometry.Rect
module Skyline = Fp_geometry.Skyline
module Covering = Fp_geometry.Covering
module Tol = Fp_geometry.Tol
module Netlist = Fp_netlist.Netlist
module Module_def = Fp_netlist.Module_def
module Net = Fp_netlist.Net
module Ordering = Fp_netlist.Ordering
module Branch_bound = Fp_milp.Branch_bound
module Pool = Fp_util.Pool
module Fault = Fp_util.Fault

let src = Logs.Src.create "fp.augment" ~doc:"successive augmentation"

module Log = (val Logs.src_log src : Logs.LOG)

exception Abort

(* Fault sites: a hook raising out of its observation (the run must
   survive and record it), and a candidate MILP evaluation dying (the
   candidate is excluded; when none survives, the head group's warm
   packing is committed). *)
let site_hook = Fault.register "augment.hook"
let site_candidate = Fault.register "augment.candidate_milp"

type envelope_config = { pitch_h : float; pitch_v : float; share : float }

type step_stat = {
  group : int list;
  num_integer_vars : int;
  num_constraints : int;
  num_cover_rects : int;
  milp_status : Branch_bound.status;
  nodes : int;
  lp_solves : int;
  warm_hits : int;
  pivots : int;
  refactorizations : int;
  warm_height : float;
  step_height : float;
  step_time : float;
  time_budget : float;
  candidates_evaluated : int;
  retries : int;
  degradations : Degradation.t list;
}

type inspect = {
  on_model : Formulation.built -> unit;
  on_step : step_stat -> Placement.t -> unit;
}

type config = {
  chip_width : float option;
  height_limit : float option;
  group_size : int;
  ordering : [ `Linear | `Random of int | `Area_desc ];
  objective : Formulation.objective;
  formulation : Formulation.mode;
  allow_rotation : bool;
  linearization : Formulation.linearization;
  use_covering : bool;
  max_cover_rects : int option;
  envelope : envelope_config option;
  compact_each_step : bool;
  critical_net_bound : (Fp_netlist.Net.t -> float option) option;
  milp : Branch_bound.params;
  inspect : inspect option;
  candidates : int;
  run_time_limit : float option;
  checkpoint : string option;
}

let default_config =
  {
    chip_width = None;
    height_limit = None;
    group_size = 4;
    ordering = `Linear;
    objective = Formulation.Min_height;
    formulation = Formulation.Basic;
    allow_rotation = true;
    linearization = Formulation.Secant;
    use_covering = true;
    max_cover_rects = Some 8;
    envelope = None;
    compact_each_step = true;
    critical_net_bound = None;
    milp =
      {
        Branch_bound.default_params with
        Branch_bound.node_limit = 4000;
        time_limit = 20.;
        min_improvement = 1e-4;
      };
    inspect = None;
    candidates = 1;
    run_time_limit = None;
    checkpoint = None;
  }

type result = {
  placement : Placement.t;
  steps : step_stat list;
  total_time : float;
  config : config;
  degradations : (int * Degradation.t) list;
  interrupted : bool;
}

(* Canonical rendering of everything in the config that shapes the
   placement trajectory, digested into the checkpoint journal.
   [inspect] and [checkpoint] are observational.  The two closure fields
   cannot be digested, only their presence can: resuming with a
   {e different} bound function or objective weight of the same shape is
   on the caller. *)
let config_digest cfg =
  let b = Buffer.create 256 in
  let p fmt = Printf.bprintf b fmt in
  (match cfg.chip_width with None -> p "w:auto;" | Some w -> p "w:%h;" w);
  (* Emitted only when set, so digests of unconstrained configs match
     the ones journals recorded before the field existed. *)
  (match cfg.height_limit with None -> () | Some h -> p "hlim:%h;" h);
  p "g:%d;" cfg.group_size;
  (match cfg.ordering with
  | `Linear -> p "ord:linear;"
  | `Random seed -> p "ord:random:%d;" seed
  | `Area_desc -> p "ord:area_desc;");
  (match cfg.objective with
  | Formulation.Min_height -> p "obj:height;"
  | Formulation.Min_height_plus_wire lambda -> p "obj:wire:%h;" lambda);
  (* Emitted only when non-default, so digests of basic-formulation
     configs match the ones journals recorded before the field existed. *)
  (match cfg.formulation with
  | Formulation.Basic -> ()
  | Formulation.Tight -> p "form:tight;");
  p "rot:%b;" cfg.allow_rotation;
  p "lin:%s;"
    (match cfg.linearization with
    | Formulation.Tangent -> "tangent"
    | Formulation.Secant -> "secant");
  p "cov:%b;" cfg.use_covering;
  (match cfg.max_cover_rects with
  | None -> p "maxcov:none;"
  | Some m -> p "maxcov:%d;" m);
  (match cfg.envelope with
  | None -> p "env:none;"
  | Some e -> p "env:%h:%h:%h;" e.pitch_h e.pitch_v e.share);
  p "compact:%b;" cfg.compact_each_step;
  p "netbound:%b;" (cfg.critical_net_bound <> None);
  let m = cfg.milp in
  (* The fixed integrality tolerance, branching rule ("ff") and LP warm
     start, the removed shadow-cold and deterministic flags, and the
     removed retry ladder's defaults (2 retries at 4x) print the values
     they always had, so older journals resume. *)
  p "milp:%d:%h:%h:%h:ff:true:false:true;" m.Branch_bound.node_limit
    m.Branch_bound.time_limit 1e-6 m.Branch_bound.min_improvement;
  p "cand:%d;" cfg.candidates;
  (match cfg.run_time_limit with
  | None -> p "deadline:none;"
  | Some l -> p "deadline:%h;" l);
  p "retries:%d:%h;" 2 4.;
  Digest.to_hex (Digest.string (Buffer.contents b))

let margins_of cfg nl id =
  match cfg.envelope with
  | None -> (0., 0., 0., 0.)
  | Some e ->
    let pl, pr, pb, pt = Netlist.pins_per_side nl id in
    let f pins pitch = float_of_int pins *. pitch *. e.share in
    (f pl e.pitch_v, f pr e.pitch_v, f pb e.pitch_h, f pt e.pitch_h)

let items_of_group cfg nl group =
  List.map
    (fun id ->
      { Formulation.def = Netlist.module_at nl id;
        margins = margins_of cfg nl id })
    group

let item_max_height ~allow_rotation ~linearization (it : Formulation.item) =
  match Formulation.flex_line ~linearization it with
  | Some line -> snd (Formulation.flex_env line line.Formulation.dw_ub)
  | None ->
    let we = Formulation.item_min_width ~allow_rotation:false it
    and he = Formulation.item_min_height ~allow_rotation:false it in
    if allow_rotation then Float.max he we else he

(* Default chip width: a roughly square chip for the total reserved
   area, never narrower than the widest single module. *)
let derive_chip_width cfg nl =
  let items =
    items_of_group cfg nl (List.init (Netlist.num_modules nl) Fun.id)
  in
  let reserved =
    List.fold_left
      (fun a it ->
        a
        +. Formulation.item_min_reserved_area
             ~linearization:cfg.linearization it)
      0. items
  in
  let min_w =
    List.fold_left
      (fun a it ->
        Float.max a
          (Formulation.item_min_width ~allow_rotation:cfg.allow_rotation it))
      0. items
  in
  Float.max (Float.sqrt reserved) min_w

let ordering_of cfg nl =
  match cfg.ordering with
  | `Linear -> Ordering.linear nl
  | `Random seed -> Ordering.random ~seed nl
  | `Area_desc -> Ordering.by_area_desc nl

let obstacles_of cfg skyline placement =
  if cfg.use_covering then begin
    let cover = Covering.of_skyline skyline in
    match cfg.max_cover_rects with
    | Some m when List.length cover > m -> Covering.coarsen ~max_count:m cover
    | Some _ | None -> cover
  end
  else Placement.envelopes placement

(* Everything one candidate evaluation produces.  Evaluation is pure
   with respect to the partial floorplan — [Placement], [Skyline] and
   [Formulation.build] are functional — so several candidates can be
   evaluated concurrently against the same snapshot and at most one
   committed. *)
type eval = {
  e_group : int list;
  e_built : Formulation.built;
  e_num_obstacles : int;
  e_outcome : Branch_bound.outcome;
  e_warm_height : float;
  e_placement : Placement.t;
  e_skyline : Skyline.t;
  e_degradations : Degradation.t list;
}

(* Fabricated outcome for steps whose MILP never ran (deadline-truncated
   warm-only commits): all-zero effort, no incumbent. *)
let no_outcome =
  {
    Branch_bound.status = Branch_bound.No_solution; best = None;
    work = Branch_bound.no_work; root_bound = nan;
  }

(* Net names whose configured length bound is exceeded in [placement]
   (only nets with every pin placed can be measured). *)
let nets_over_bound cfg nl placement =
  match cfg.critical_net_bound with
  | None -> []
  | Some bound_fn ->
    List.filter_map
      (fun net ->
        match bound_fn net with
        | None -> None
        | Some b -> (
          match Metrics.net_hpwl nl placement net with
          | Some len when Tol.gt len b -> Some net.Net.name
          | _ -> None))
      (Netlist.nets nl)

let evaluate cfg nl ~chip_width ~skyline ~placement ~mode group =
  (* Largest modules first: their pair binaries are declared first, so
     First_fractional branching decides the big shapes early. *)
  let group =
    List.sort
      (fun a b ->
        compare
          (Module_def.area (Netlist.module_at nl b))
          (Module_def.area (Netlist.module_at nl a)))
      group
  in
  let items = Array.of_list (items_of_group cfg nl group) in
  let ids = Array.of_list group in
  let obstacles = obstacles_of cfg skyline placement in
  let height_bound =
    let free =
      Skyline.max_height skyline
      +. Array.fold_left
           (fun a it ->
             a
             +. item_max_height ~allow_rotation:cfg.allow_rotation
                  ~linearization:cfg.linearization it)
           0. items
      +. 1.
    in
    match (cfg.height_limit, mode) with
    | None, _ -> free
    (* The cap only steers a search, and a warm-only commit runs none:
       its model is built under the free bound, which always admits
       the warm packing. *)
    | Some _, `Warm_only _ -> free
    | Some h, `Solve _ ->
      (* Fixed-outline mode: cap the chip-height variable at the outline
         height, but never below the tallest item minimum or the
         obstacle tops, which [Formulation.build] rejects outright.  An
         outline the step cannot meet is then an infeasible step: either
         the search proves the capped model infeasible, or some pair has
         no relation that fits under the cap and the build raises
         [Formulation.No_feasible_relation] (the caller then commits the
         step warm-only).  Both commit the warm packing with a
         [Raw_warm_packing] degradation. *)
      let floor_h =
        Array.fold_left
          (fun a it ->
            Float.max a
              (Formulation.item_min_height ~allow_rotation:cfg.allow_rotation
                 it))
          (List.fold_left
             (fun a r -> Float.max a (Rect.y_max r))
             0. obstacles)
          items
      in
      Float.min free (Float.max h (floor_h +. 1.))
  in
  (* Warm start: greedy bottom-left packing on the profile of the
     obstacles actually passed to the MILP.  This must NOT be the
     placed-module skyline: coarsened covering rectangles are hulls
     that can protrude above it, and a warm placement on the lower
     profile would overlap them. *)
  let obstacle_sky =
    List.fold_left Skyline.add_rect (Skyline.create ~width:chip_width) obstacles
  in
  let warm =
    Warm_start.place_group ~skyline:obstacle_sky
      ~allow_rotation:cfg.allow_rotation ~linearization:cfg.linearization items
  in
  let warm_height = Warm_start.height_after ~skyline:obstacle_sky warm in
  (* Incumbent clamp (Tight): the warm packing is a feasible
     placement of height [warm_height], so when height alone is
     optimized no solution worth finding exceeds it — shrinking the
     chip-height variable's bound to the incumbent is then free, and it
     is the single strongest input to the per-pair big-M computation:
     every vertical M is capped by the height bound, so the whole
     vertical relaxation tightens with it.  Unsafe under a wirelength
     term or critical-net bounds (the optimum may trade height up), so
     those keep the free bound.  The warm point itself stays feasible
     at equality, and the warm skyline dominates every obstacle top and
     item minimum height, so the model stays well-posed. *)
  let height_bound =
    match (cfg.formulation, cfg.objective, cfg.critical_net_bound) with
    | Formulation.Tight, Formulation.Min_height, None ->
      Float.min height_bound warm_height
    | _ -> height_bound
  in
  let wire_context =
    match (cfg.objective, cfg.critical_net_bound) with
    | Formulation.Min_height, None -> None
    | Formulation.Min_height_plus_wire _, _ | _, Some _ ->
      (* Length bounds need the net bounding-box variables too. *)
      Some (nl, placement, ids)
  in
  let built =
    Formulation.build ~chip_width ~height_bound ~objective:cfg.objective
      ~formulation:cfg.formulation
      ~allow_rotation:cfg.allow_rotation ~linearization:cfg.linearization
      ~fixed:obstacles ?wire_context ?net_length_bound:cfg.critical_net_bound
      (Array.to_list items)
  in
  let warm_sol =
    (* The warm placement avoids the obstacles by construction; if
       numerics still reject it, search without an incumbent rather
       than aborting the run. *)
    match
      Formulation.assign_warm built
        (fun k -> warm.(k).Warm_start.envelope)
        ~rotated:(fun k -> warm.(k).Warm_start.rotated)
    with
    | sol -> Some sol
    | exception Invalid_argument msg ->
      Log.warn (fun f -> f "warm start unusable: %s" msg);
      None
  in
  let degradations = ref [] in
  let degrade d = degradations := d :: !degradations in
  (* [sol = None] means "no MILP-encoded point at all": the group is
     committed geometrically from the warm choices. *)
  let outcome, sol =
    match mode with
    | `Warm_only reason ->
      degrade reason;
      (no_outcome, warm_sol)
    | `Solve milp ->
      let outcome =
        Branch_bound.solve ~params:milp ?warm:warm_sol built.Formulation.model
      in
      let recoveries = outcome.Branch_bound.work.numerical_recoveries in
      if recoveries > 0 then
        degrade (Degradation.Numerical_recovery recoveries);
      (match (outcome.Branch_bound.best, warm_sol) with
      | Some (x, _), Some w
        when outcome.Branch_bound.status <> Branch_bound.Optimal && x = w ->
        (* The budget ran out and the "incumbent" is just the warm
           packing the search was seeded with — optimization never
           improved on the heuristic. *)
        degrade Degradation.Budget_exhausted_warm_fallback;
        (outcome, Some x)
      | Some (x, _), _ -> (outcome, Some x)
      | None, Some w ->
        (match outcome.Branch_bound.status with
        | Branch_bound.No_solution ->
          Log.warn (fun f ->
              f "MILP step found no solution; falling back to warm start");
          degrade Degradation.Budget_exhausted_warm_fallback
        | _ ->
          (* The linearized model rejects every point (typically a net
             length bound no placement of this group can satisfy any
             more); the geometric packing is still sound. *)
          Log.warn (fun f ->
              f "MILP step infeasible; committing warm packing");
          degrade Degradation.Raw_warm_packing);
        (outcome, Some w)
      | None, None ->
        Log.err (fun f ->
            f "MILP step failed outright; using raw warm packing");
        degrade Degradation.Raw_warm_packing;
        (outcome, None))
  in
  let extracted =
    match sol with
    | Some sol -> Formulation.extract built sol
    | None ->
      (* Last resort: trust the geometric warm placement even though
         the model rejected its encoding. *)
      Array.mapi
        (fun k c ->
          Formulation.decode_item items.(k) c.Warm_start.envelope
            ~rotated:c.Warm_start.rotated)
        warm
  in
  let pre_placement = placement in
  let placement = ref placement in
  Array.iteri
    (fun k (envelope, silicon, rotated) ->
      placement :=
        Placement.add !placement
          { Placement.module_id = ids.(k); rect = silicon; envelope; rotated })
    extracted;
  if cfg.compact_each_step then placement := Compact.vertical !placement;
  (* Surface critical nets whose bound the committed placement exceeds —
     the documented best-effort fallback, now with names attached.  Nets
     already over bound before this step were reported when it happened. *)
  (match nets_over_bound cfg nl !placement with
  | [] -> ()
  | over -> (
    let before = nets_over_bound cfg nl pre_placement in
    match List.filter (fun n -> not (List.mem n before)) over with
    | [] -> ()
    | dropped -> degrade (Degradation.Net_bound_dropped dropped)));
  let skyline =
    Skyline.of_rects ~width:chip_width (Placement.envelopes !placement)
  in
  {
    e_group = group;
    e_built = built;
    e_num_obstacles = List.length obstacles;
    e_outcome = outcome;
    e_warm_height = warm_height;
    e_placement = !placement;
    e_skyline = skyline;
    e_degradations = List.rev !degradations;
  }

let run ?(config = default_config) ?resume nl =
  let cfg = config in
  if Netlist.num_modules nl = 0 then
    invalid_arg "Augment.run: empty instance";
  if cfg.group_size < 1 then invalid_arg "Augment.run: group_size < 1";
  if cfg.candidates < 1 then invalid_arg "Augment.run: candidates < 1";
  let t0 = Unix.gettimeofday () in
  let run_deadline = Option.map (fun l -> t0 +. l) cfg.run_time_limit in
  let chip_width =
    match cfg.chip_width with
    | Some w -> w
    | None -> derive_chip_width cfg nl
  in
  let cfg_digest = config_digest cfg in
  let inst_digest = Journal.digest_instance nl in
  let start_placement, start_skyline, start_groups, steps_done0 =
    match resume with
    | None ->
      let order = ordering_of cfg nl in
      ( Placement.empty ~chip_width,
        Skyline.create ~width:chip_width,
        Ordering.groups ~size:cfg.group_size order,
        0 )
    | Some (j : Journal.t) ->
      if j.Journal.config_digest <> cfg_digest then
        invalid_arg
          "Augment.run: checkpoint was written under a different \
           configuration";
      if j.Journal.instance_digest <> inst_digest then
        invalid_arg "Augment.run: checkpoint belongs to a different instance";
      if j.Journal.chip_width <> chip_width then
        invalid_arg "Augment.run: checkpoint chip width mismatch";
      ( j.Journal.placement,
        Skyline.of_rects ~width:chip_width
          (Placement.envelopes j.Journal.placement),
        j.Journal.remaining,
        j.Journal.steps_done )
  in
  let write_checkpoint ~steps_done ~placement ~remaining =
    match cfg.checkpoint with
    | None -> ()
    | Some path ->
      Journal.write ~path
        { Journal.config_digest = cfg_digest; instance_digest = inst_digest;
          chip_width; steps_done; placement; remaining }
  in
  let skyline = ref start_skyline in
  let placement = ref start_placement in
  let steps = ref [] in
  let step_no = ref steps_done0 in
  let run_degr = ref [] in
  let remaining = ref start_groups in
  let interrupted = ref false in
  (* Hook guard: hooks observe, they must not kill the run.  [Abort] is
     the one exception with sanctioned pass-through — it is the
     cooperative-interrupt signal. *)
  let guard_hook name f =
    try
      Fault.trip site_hook;
      f ()
    with
    | Abort -> raise Abort
    | exn ->
      let msg = name ^ ": " ^ Printexc.to_string exn in
      Log.warn (fun l -> l "inspection hook failed: %s" msg);
      run_degr := (!step_no, Degradation.Hook_failed msg) :: !run_degr
  in
  let commit ~step_start ~time_budget ~n_cand ~extra_degr ~new_remaining e =
    incr step_no;
    placement := e.e_placement;
    skyline := e.e_skyline;
    remaining := new_remaining;
    let degradations = e.e_degradations @ extra_degr in
    let outcome = e.e_outcome in
    let work = outcome.Branch_bound.work in
    let stat =
      {
        group = e.e_group;
        num_integer_vars =
          Fp_milp.Model.num_integer_vars e.e_built.Formulation.model;
        num_constraints =
          Fp_milp.Model.num_constrs e.e_built.Formulation.model;
        num_cover_rects = e.e_num_obstacles;
        milp_status = outcome.Branch_bound.status;
        nodes = work.nodes;
        lp_solves = work.nodes;
        warm_hits = work.warm_hits;
        pivots = work.pivots;
        refactorizations = work.refactorizations;
        warm_height = e.e_warm_height;
        step_height = Skyline.max_height !skyline;
        step_time = Unix.gettimeofday () -. step_start;
        time_budget;
        candidates_evaluated = n_cand;
        retries = 0;
        degradations;
      }
    in
    Log.info (fun f ->
        f "step [%s]: %d ints, %d rows, %d covers, %d nodes, h=%.2f (warm %.2f)%s"
          (String.concat "," (List.map string_of_int stat.group))
          stat.num_integer_vars stat.num_constraints stat.num_cover_rects
          stat.nodes stat.step_height stat.warm_height
          (match degradations with
          | [] -> ""
          | ds ->
            " degraded: "
            ^ String.concat ", " (List.map Degradation.to_string ds)));
    steps := stat :: !steps;
    List.iter (fun d -> run_degr := (!step_no, d) :: !run_degr) degradations;
    (* Journal before the hooks: a hook-driven interrupt must land after
       the commit it observed, or resume would redo the step. *)
    write_checkpoint ~steps_done:!step_no ~placement:!placement
      ~remaining:new_remaining;
    (match cfg.inspect with
    | None -> ()
    | Some i ->
      guard_hook "on_model" (fun () -> i.on_model e.e_built);
      guard_hook "on_step" (fun () -> i.on_step stat !placement))
  in
  (* The step's one search: evaluate up to [candidates] groups against
     the same partial floorplan, concurrently when there are several,
     and pick the lowest-skyline one.  Candidate failures are excluded
     from selection. *)
  let evaluate_candidates ~milp =
    let n_cand = Int.min cfg.candidates (List.length !remaining) in
    let cands =
      Array.of_list (List.filteri (fun i _ -> i < n_cand) !remaining)
    in
    (* The candidate fault decides on the calling domain, in candidate
       order, before any evaluation starts, so a counted spec kills the
       same candidates under any schedule. *)
    let killed = Array.init n_cand (fun _ -> Fault.fire site_candidate) in
    let eval1 k =
      let evaluate mode =
        evaluate cfg nl ~chip_width ~skyline:!skyline ~placement:!placement
          ~mode cands.(k)
      in
      if killed.(k) then
        Error (Printexc.to_string (Fault.Injected site_candidate))
      else
        try
          Ok
            (try evaluate (`Solve milp)
             with Formulation.No_feasible_relation pair ->
               (* The outline cap leaves this pair no relation that
                  fits: the capped model has no feasible point, so the
                  step is infeasible, not failed. *)
               Log.info (fun f ->
                   f "no relation fits pair %s under the outline cap; \
                      committing the warm packing" pair);
               evaluate (`Warm_only Degradation.Raw_warm_packing))
        with
        | Abort -> raise Abort
        | exn -> Error (Printexc.to_string exn)
    in
    let worker_failure = ref None in
    let evals =
      if n_cand = 1 then [| eval1 0 |]
      else begin
        (* One domain per candidate, never more than the machine has. *)
        let jobs = Int.min n_cand (Domain.recommended_domain_count ()) in
        try Pool.map ~jobs ~n:n_cand eval1 with
        | Abort -> raise Abort
        | exn ->
          (* The batch itself failed; evaluate sequentially on the
             calling domain instead of giving up on the step. *)
          worker_failure := Some (Printexc.to_string exn);
          Array.init n_cand eval1
      end
    in
    let failures = ref [] in
    let ok = ref [] in
    Array.iteri
      (fun i r ->
        match r with
        | Ok e -> ok := (i, e) :: !ok
        | Error msg ->
          Log.warn (fun f -> f "candidate %d failed: %s" i msg);
          failures := Degradation.Candidate_failed msg :: !failures)
      evals;
    let extra_degr =
      List.rev !failures
      @
      match !worker_failure with
      | None -> []
      | Some msg -> [ Degradation.Worker_failure msg ]
    in
    (* Commit the candidate with the lowest resulting skyline; ties go
       to the earliest candidate in the ordering, so the choice is
       independent of how the batch scheduled the evaluations. *)
    let best =
      List.fold_left
        (fun acc (i, e) ->
          match acc with
          | None -> Some (i, e)
          | Some (bi, be) ->
            if
              Skyline.max_height e.e_skyline
              < Skyline.max_height be.e_skyline
              || (Skyline.max_height e.e_skyline
                  = Skyline.max_height be.e_skyline
                 && i < bi)
            then Some (i, e)
            else acc)
        None (List.rev !ok)
    in
    (n_cand, extra_degr, best)
  in
  (try
     while !remaining <> [] do
       let step_start = Unix.gettimeofday () in
       let deadline_left =
         match run_deadline with
         | None -> infinity
         | Some dl -> dl -. step_start
       in
       if Tol.leq deadline_left 0. then begin
         (* Run deadline expired: the remaining groups are committed
            from their warm packings, no MILP — the engine stays
            anytime and every commit is still overlap-free. *)
         let group = List.hd !remaining in
         let e =
           evaluate cfg nl ~chip_width ~skyline:!skyline
             ~placement:!placement
             ~mode:(`Warm_only Degradation.Deadline_truncated) group
         in
         commit ~step_start ~time_budget:0. ~n_cand:0 ~extra_degr:[]
           ~new_remaining:(List.tl !remaining) e
       end
       else begin
         (* Apportion what is left of the run budget over the steps
            still to do, never exceeding the configured per-step cap. *)
         let steps_left = List.length !remaining in
         let share = deadline_left /. float_of_int steps_left in
         let milp =
           { cfg.milp with
             Branch_bound.time_limit =
               Float.min cfg.milp.Branch_bound.time_limit share;
             (* Node-entry interval propagation rides the strengthened
                formulation: it needs no formulation support itself, but
                gating it keeps the default [Basic] trajectory (and its
                recorded benchmarks) bit-identical. *)
             propagate = cfg.formulation <> Formulation.Basic }
         in
         let n_cand, extra_degr, best = evaluate_candidates ~milp in
         let time_budget = milp.Branch_bound.time_limit in
         match best with
         | Some (bi, e) ->
           commit ~step_start ~time_budget ~n_cand ~extra_degr
             ~new_remaining:(List.filteri (fun i _ -> i <> bi) !remaining)
             e
         | None ->
           (* Nothing evaluable: commit the head group geometrically so
              the run still terminates with a feasible floorplan. *)
           let group = List.hd !remaining in
           let e =
             evaluate cfg nl ~chip_width ~skyline:!skyline
               ~placement:!placement
               ~mode:(`Warm_only Degradation.Raw_warm_packing) group
           in
           commit ~step_start ~time_budget ~n_cand ~extra_degr
             ~new_remaining:(List.tl !remaining) e
       end
     done
   with Abort ->
     Log.info (fun f -> f "run aborted by hook after %d steps" !step_no);
     interrupted := true);
  {
    placement = !placement;
    steps = List.rev !steps;
    total_time = Unix.gettimeofday () -. t0;
    config = cfg;
    degradations = List.rev !run_degr;
    interrupted = !interrupted;
  }
