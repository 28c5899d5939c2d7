module Augment = Fp_core.Augment
module Compact = Fp_core.Compact
module Topology = Fp_core.Topology
module Refine = Fp_core.Refine
module Outline = Fp_core.Outline
module Degradation = Fp_core.Degradation
module Abort = Fp_util.Abort

(* Overlay the scenario knobs that are actually set; an all-default
   scenario leaves the config untouched, which is what keeps the engine
   bit-identical to the pre-refactor pipeline. *)
let overlay (ctx : Solver.context) (sc : Solver.scenario)
    (cfg : Augment.config) =
  let cfg =
    match sc.Solver.outline with
    | Outline.Free -> cfg
    | Outline.Max_width w -> { cfg with Augment.chip_width = Some w }
    | Outline.Fixed { w; h } ->
      { cfg with Augment.chip_width = Some w; height_limit = Some h }
  in
  let cfg =
    match sc.Solver.wire_weight with
    | None -> cfg
    | Some lambda ->
      { cfg with
        Augment.objective =
          (if Fp_geometry.Tol.is_zero lambda then Fp_core.Formulation.Min_height
           else Fp_core.Formulation.Min_height_plus_wire lambda) }
  in
  let cfg =
    match Solver.deadline_left ctx with
    | None -> cfg
    | Some left ->
      let limit =
        match cfg.Augment.run_time_limit with
        | None -> left
        | Some l -> Float.min l left
      in
      { cfg with Augment.run_time_limit = Some limit }
  in
  match sc.Solver.checkpoint with
  | None -> cfg
  | Some path -> { cfg with Augment.checkpoint = Some path }

(* Compose the caller's inspection hooks with an abort poll: after every
   committed step (journal already written, so the run is resumable) a
   signalled flag raises the engine's own cooperative interrupt. *)
let with_abort_poll abort inspect =
  let base =
    match inspect with
    | Some i -> i
    | None ->
      { Augment.on_model = (fun _ -> ()); on_step = (fun _ _ -> ()) }
  in
  Some
    { Augment.on_model = base.Augment.on_model;
      on_step =
        (fun stat pl ->
          base.Augment.on_step stat pl;
          if Abort.is_set abort then raise Augment.Abort) }

let make ?(config = Augment.default_config) ?resume ?(refine = false) () =
  let solve (ctx : Solver.context) (sc : Solver.scenario) nl =
    let t0 = Unix.gettimeofday () in
    let cfg = overlay ctx sc config in
    let cfg =
      { cfg with Augment.inspect = with_abort_poll ctx.Solver.abort cfg.Augment.inspect }
    in
    let res = Augment.run ~config:cfg ?resume nl in
    let pl =
      (* Same epilogue as the CLI's plan path: finishing passes expect a
         complete floorplan; an interrupted run reports its partial
         placement as-is. *)
      if res.Augment.interrupted then res.Augment.placement
      else begin
        let pl = Compact.vertical res.Augment.placement in
        let pl, _ =
          Topology.optimize ~linearization:cfg.Augment.linearization nl pl
        in
        if refine then fst (Refine.reinsert_top nl pl) else pl
      end
    in
    let work =
      List.fold_left (fun a s -> a + s.Augment.nodes) 0 res.Augment.steps
    in
    let pivots =
      List.fold_left (fun a s -> a + s.Augment.pivots) 0 res.Augment.steps
    in
    Solver.finalize ~engine:"milp" ~scenario:sc ~t0 ~work
      ~complete:(not res.Augment.interrupted)
      ~degradations:res.Augment.degradations
      ~detail:
        [
          ("nodes", float_of_int work);
          ("pivots", float_of_int pivots);
          ("steps", float_of_int (List.length res.Augment.steps));
        ]
      nl (Some pl)
  in
  { Solver.name = "milp"; solve }
