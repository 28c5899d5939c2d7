(* Command-line front end for the analytical floorplanner.

   Subcommands:
     plan   -- floorplan an instance and report metrics
     route  -- floorplan, globally route, and report the adjusted area
     check  -- floorplan with full model linting + solution certification
     gen    -- generate a random instance file
     show   -- print an instance summary

   plan and route also accept --lint, which runs the same checks
   alongside the normal output.

   Instances come from a file (see Fp_netlist.Parser for the format), the
   bundled synthetic ami33, or the random generator. *)

open Cmdliner
module Netlist = Fp_netlist.Netlist
module Generator = Fp_netlist.Generator
module Parser = Fp_netlist.Parser
module BB = Fp_milp.Branch_bound
module Fault = Fp_util.Fault
module Solver = Fp_engine.Solver
module Portfolio = Fp_engine.Portfolio
open Fp_core

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning)

(* ------------------------- instance sources ------------------------- *)

let load_instance input ami33 random seed =
  match (input, ami33, random) with
  | Some path, false, None -> (
    match Parser.of_file path with
    | Ok nl -> Ok nl
    | Error e -> Error (Printf.sprintf "cannot load %s: %s" path e))
  | None, true, None -> Ok (Fp_data.Ami33.netlist ())
  | None, false, Some k ->
    Ok (Generator.generate
          { Generator.default_config with Generator.num_modules = k; seed })
  | None, false, None ->
    Error "no instance: pass --input FILE, --ami33, or --random K"
  | _ -> Error "pass exactly one of --input, --ami33, --random"

(* Numeric converters that check the option's range when the command
   line is parsed, so a bad value is a one-line usage error (exit 124)
   instead of an exception or a run on nonsense. *)
let checked base ~want ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ | Error _ ->
      Error (`Msg (Printf.sprintf "expected %s, got %S" want s))
  in
  Arg.conv (parse, Arg.conv_printer base)

let int_from lo =
  checked Arg.int
    ~want:(Printf.sprintf "an integer >= %d" lo)
    (fun n -> n >= lo)

let positive_float =
  checked Arg.float ~want:"a finite number > 0" (fun x ->
      Float.is_finite x && x > 0.)

let non_negative_float =
  checked Arg.float ~want:"a finite number >= 0" (fun x ->
      Float.is_finite x && x >= 0.)

(* [Fp_netlist.Generator] needs at least two modules. *)
let module_count = int_from 2

let input_arg =
  Arg.(value & opt (some file) None
       & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Instance file to load.")

let ami33_arg =
  Arg.(value & flag
       & info [ "ami33" ] ~doc:"Use the bundled synthetic ami33 benchmark.")

let random_arg =
  Arg.(value & opt (some module_count) None
       & info [ "random" ] ~docv:"K"
           ~doc:"Use a random instance with $(docv) modules.")

let seed_arg =
  Arg.(value & opt int 1
       & info [ "seed" ] ~docv:"N" ~doc:"Seed for --random / random ordering.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-step progress logs.")

(* --------------------------- plan options --------------------------- *)

let width_arg =
  Arg.(value & opt (some positive_float) None
       & info [ "w"; "width" ] ~docv:"W"
           ~doc:"Chip width (default: near-square from the total area).")

let group_arg =
  Arg.(value & opt (int_from 1) 4
       & info [ "g"; "group" ] ~docv:"N"
           ~doc:"Modules added per augmentation step.")

let ordering_arg =
  Arg.(value & opt (enum [ ("linear", `L); ("random", `R); ("area", `A) ]) `L
       & info [ "ordering" ] ~docv:"KIND"
           ~doc:"Augmentation order: linear (connectivity), random, or area.")

let objective_arg =
  Arg.(value & opt (some non_negative_float) None
       & info [ "wire" ] ~docv:"LAMBDA"
           ~doc:"Add a wirelength objective term with weight $(docv).")

let envelope_arg =
  Arg.(value & opt (some positive_float) None
       & info [ "envelope" ] ~docv:"PITCH"
           ~doc:"Reserve routing envelopes with the given track pitch.")

let nodes_arg =
  Arg.(value & opt (int_from 0) 4000
       & info [ "nodes" ] ~docv:"N"
           ~doc:"Branch-and-bound node budget per augmentation step.")

let candidates_arg =
  Arg.(value & opt (int_from 1) 1
       & info [ "candidates" ] ~docv:"N"
           ~doc:"Candidate next groups evaluated concurrently per \
                 augmentation step; the one with the lowest skyline is \
                 committed.")

let formulation_arg =
  Arg.(value
       & opt
           (enum
              [ ("basic", Formulation.Basic); ("tight", Formulation.Tight) ])
           Formulation.Basic
       & info [ "formulation" ] ~docv:"MODE"
           ~doc:
             "MILP strengthening mode: $(b,basic) (the paper's global \
              big-M, the default) or $(b,tight) (per-pair big-M plus the \
              static valid-inequality family in the base LP, with bound \
              propagation at every branch-and-bound node).")

let time_budget_arg =
  Arg.(value & opt (some non_negative_float) None
       & info [ "time-budget" ] ~docv:"SECS"
           ~doc:"Run-level wall-clock budget: the remaining budget is \
                 apportioned over the remaining augmentation steps, and \
                 once spent the rest of the modules are committed from \
                 their warm packings (reported as degradations).")

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Write a resumable journal to $(docv) after every \
                 committed augmentation step.")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Continue from the journal at --checkpoint instead of \
                 starting over; the final floorplan is bit-identical to \
                 an uninterrupted run.")

let stop_after_arg =
  Arg.(value & opt (some (int_from 1)) None
       & info [ "stop-after" ] ~docv:"N"
           ~doc:"Interrupt the run after $(docv) committed steps (for \
                 testing checkpoint/resume; pair with --checkpoint).")

let faults_arg =
  (* The site list is rendered from [Fault.builtin] so this help text,
     the runtime registry and docs/robustness.md can never disagree. *)
  let doc =
    Printf.sprintf
      "Comma-separated fault injections, each SITE[@AFTER][xCOUNT] \
       (COUNT may be *): arm the named fault sites before the run to \
       exercise the recovery paths.  Known sites: %s."
      (String.concat "; "
         (List.map
            (fun (site, what) -> Printf.sprintf "$(b,%s) — %s" site what)
            Fault.builtin))
  in
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"SPECS" ~doc)

let arm_faults specs =
  match specs with
  | None -> Ok ()
  | Some s ->
    Fault.reset ();
    let specs =
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (( <> ) "")
    in
    List.fold_left
      (fun acc spec ->
        Result.bind acc (fun () ->
            match Fault.parse spec with
            | Error e -> Error e
            | Ok sp ->
              if List.mem sp.Fault.site (Fault.sites ()) then
                Ok (Fault.arm sp)
              else
                Error
                  (Printf.sprintf "unknown fault site %S; known sites: %s"
                     sp.Fault.site
                     (String.concat ", " (Fault.sites ())))))
      (Ok ()) specs

let load_resume ~checkpoint ~resume =
  if not resume then Ok None
  else
    match checkpoint with
    | None -> Error "--resume requires --checkpoint FILE"
    | Some path ->
      if not (Sys.file_exists path) then
        Error (path ^ ": checkpoint not found")
      else Result.map Option.some (Journal.read ~path)

(* Wrap the inspection hooks so the run aborts cooperatively after [n]
   committed steps — the deterministic interrupt used by the
   checkpoint/resume tests. *)
let with_stop_after n inspect =
  let count = ref 0 in
  let on_model, on_step =
    match inspect with
    | Some i -> (i.Augment.on_model, i.Augment.on_step)
    | None -> ((fun _ -> ()), fun _ _ -> ())
  in
  Some
    { Augment.on_model;
      on_step =
        (fun stat pl ->
          on_step stat pl;
          incr count;
          if !count >= n then raise Augment.Abort) }

let report_engine_degradations (st : Solver.stats) =
  (match st.Solver.degradations with
  | [] -> ()
  | ds ->
    Printf.printf "degraded   : %d event%s\n" (List.length ds)
      (if List.length ds = 1 then "" else "s");
    List.iter
      (fun (step, d) ->
        Printf.printf "  step %d: %s\n" step (Degradation.to_string d))
      ds);
  if not st.Solver.complete then
    if String.equal st.Solver.engine "milp" then
      Printf.printf "interrupted: yes (continue with --resume)\n"
    else Printf.printf "truncated  : yes (time budget)\n"

(* One line per raced engine in the portfolio report. *)
let report_engine_stats (st : Solver.stats) =
  Printf.printf "  %-8s : %s  objective=%.1f  time=%.2fs  work=%d%s\n"
    st.Solver.engine
    (if st.Solver.certified then "certified" else "uncertified")
    st.Solver.objective st.Solver.wall_time st.Solver.work
    (match st.Solver.degradations with
    | [] -> ""
    | ds -> Printf.sprintf "  degradations=%d" (List.length ds))

let refine_arg =
  Arg.(value & flag
       & info [ "refine" ]
           ~doc:"Run the re-insertion refinement after augmentation.")

let slicing_arg =
  Arg.(value & flag
       & info [ "slicing" ]
           ~doc:"Alias for $(b,--engine sa): use the slicing \
                 simulated-annealing baseline instead of the MILP \
                 floorplanner.")

let engine_arg =
  Arg.(value
       & opt
           (enum
              [ ("milp", `Milp); ("sa", `Sa); ("project", `Project);
                ("portfolio", `Portfolio) ])
           `Milp
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:
             "Floorplanning engine: $(b,milp) (successive-augmentation \
              MILP, the default), $(b,sa) (slicing simulated annealing), \
              $(b,project) (feasibility-seeking projections), or \
              $(b,portfolio) (race all three and keep the best certified \
              plan).")

let outline_arg =
  Arg.(value & opt (some (t2 ~sep:'x' positive_float positive_float)) None
       & info [ "outline" ] ~docv:"WxH"
           ~doc:
             "Fixed-outline mode: constrain the floorplan to a \
              $(docv) die.  A plan that exceeds the outline is still \
              reported, with the overshoot as a quality degradation \
              (exit 3).")

(* The engine-agnostic knob record every backend consumes.  [--outline]
   wins over [--width]; [--width] alone is the paper's half-open strip. *)
let scenario_of ~seed ~width ~outline ~wire ~time_budget ~checkpoint =
  {
    Solver.seed;
    outline =
      (match (outline, width) with
      | Some (w, h), _ -> Outline.Fixed { w; h }
      | None, Some w -> Outline.Max_width w
      | None, None -> Outline.Free);
    wire_weight = wire;
    time_budget;
    checkpoint;
  }

let svg_arg =
  Arg.(value & opt (some string) None
       & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG rendering to $(docv).")

let ascii_arg =
  Arg.(value & flag & info [ "ascii" ] ~doc:"Print an ASCII rendering.")

let config_of ?time_budget ?checkpoint ?(formulation = Formulation.Basic)
    ~width ~group ~ordering ~wire ~envelope ~nodes ~seed ~candidates () =
  let d = Augment.default_config in
  {
    d with
    Augment.chip_width = width;
    group_size = group;
    ordering =
      (match ordering with
      | `L -> `Linear
      | `R -> `Random seed
      | `A -> `Area_desc);
    objective =
      (match wire with
      | None -> Formulation.Min_height
      | Some lambda -> Formulation.Min_height_plus_wire lambda);
    formulation;
    envelope =
      Option.map
        (fun pitch -> { Augment.pitch_h = pitch; pitch_v = pitch; share = 0.5 })
        envelope;
    milp = { d.Augment.milp with BB.node_limit = nodes };
    candidates;
    run_time_limit = time_budget;
    checkpoint;
  }

(* ------------------------------ checking ----------------------------- *)

module Diag = Fp_check.Diagnostic

(* Augmentation hooks that lint every step's MILP model, certify every
   partial placement, and audit the step's covering decomposition against
   Theorems 1-2.  Findings accumulate in [findings], subjects tagged with
   the step number. *)
let checking_hooks nl findings =
  let step = ref 0 in
  let add ds =
    findings :=
      List.rev_append
        (List.map
           (fun d ->
             { d with
               Diag.subject = Printf.sprintf "step %d: %s" !step d.Diag.subject })
           ds)
        !findings
  in
  {
    Augment.on_model =
      (fun built ->
        incr step;
        add (Fp_check.Lint.formulation built));
    on_step =
      (fun _stat pl ->
        add (Fp_check.Certify.placement nl pl);
        let sky =
          Fp_geometry.Skyline.of_rects ~width:pl.Placement.chip_width
            (Placement.envelopes pl)
        in
        add
          (Fp_check.Certify.covering ~skyline:sky
             ~num_placed:(Placement.num_placed pl)
             (Fp_geometry.Covering.of_skyline sky)));
  }

(* Final-placement certification appended after compaction / topology
   optimization. *)
let certify_final nl pl findings =
  findings :=
    List.rev_append
      (List.map
         (fun d ->
           { d with Diag.subject = "final: " ^ d.Diag.subject })
         (Fp_check.Certify.placement nl pl))
      !findings

let report_findings ~machine findings =
  let ds = List.stable_sort Diag.compare findings in
  if machine then List.iter (fun d -> print_endline (Diag.to_line d)) ds
  else Fmt.pr "%a" Diag.pp_report ds;
  if List.exists Diag.is_error ds then 1 else 0

let lint_arg =
  Arg.(value & flag
       & info [ "lint" ]
           ~doc:"Lint every augmentation step's MILP model, certify every \
                 partial and the final placement, and print the findings \
                 (exit 1 on any error-severity finding).")

(* [route] and [check] run the MILP engine under the default scenario,
   which overlays nothing on [config]. *)
let solve_milp nl config =
  let sc = Solver.default_scenario in
  let outcome =
    (Fp_engine.Milp_engine.make ~config ()).Solver.solve
      (Solver.of_scenario sc) sc nl
  in
  match outcome.Solver.plan with
  | Some pl -> (pl, outcome.Solver.stats)
  | None -> assert false (* the MILP engine always returns its placement *)

(* Exit code 3: the run finished feasible but quality-degraded (warm
   fallbacks, dropped net bounds, deadline truncation); informational
   degradations stay at 0.  With --lint, the final plan is certified and
   an error-severity finding (exit 1) wins. *)
let finish_exit ~lint nl pl findings (st : Solver.stats) =
  let degraded = Degradation.exit_code (List.map snd st.Solver.degradations) in
  if lint then begin
    certify_final nl pl findings;
    match report_findings ~machine:false !findings with
    | 0 -> degraded
    | n -> n
  end
  else degraded

let report_plan nl pl dt =
  Printf.printf "instance   : %s\n" (Netlist.name nl);
  Printf.printf "modules    : %d (%d nets)\n" (Netlist.num_modules nl)
    (Netlist.num_nets nl);
  Printf.printf "chip       : %.2f x %.2f = %.1f\n" pl.Placement.chip_width
    pl.Placement.height (Placement.chip_area pl);
  Printf.printf "utilization: %.1f%%\n" (100. *. Metrics.utilization nl pl);
  Printf.printf "wirelength : %.1f (HPWL)\n" (Metrics.hpwl nl pl);
  Printf.printf "time       : %.2f s\n" dt;
  match Placement.valid pl with
  | Ok () -> Printf.printf "validity   : ok\n"
  | Error e -> Printf.printf "validity   : BROKEN (%s)\n" e

let plan_cmd =
  let run input ami33 random seed verbose width group ordering wire envelope
      nodes formulation candidates time_budget checkpoint resume stop_after
      faults refine slicing engine outline svg ascii lint =
    setup_logs verbose;
    match
      let ( let* ) = Result.bind in
      let* nl = load_instance input ami33 random seed in
      let* () = arm_faults faults in
      let* resume = load_resume ~checkpoint ~resume in
      Ok (nl, resume)
    with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok (nl, resume) ->
      let config =
        config_of ?time_budget ?checkpoint ~formulation ~width ~group
          ~ordering ~wire ~envelope ~nodes ~seed ~candidates ()
      in
      let findings = ref [] in
      let config =
        if lint then
          { config with
            Augment.check = true;
            inspect = Some (checking_hooks nl findings) }
        else config
      in
      let config =
        match stop_after with
        | None -> config
        | Some n ->
          { config with Augment.inspect = with_stop_after n config.Augment.inspect }
      in
      let engine = if slicing then `Sa else engine in
      let scenario =
        scenario_of ~seed ~width ~outline ~wire ~time_budget ~checkpoint
      in
      let solver_of = function
        | `Milp -> Fp_engine.Milp_engine.make ~config ?resume ~refine ()
        | `Sa -> Fp_engine.Sa_engine.make ()
        | `Project -> Fp_engine.Project.solver
      in
      (* Shared tail for every engine: metrics, degradations, renderings,
         optional lint certification, exit via the degradation ladder. *)
      let epilogue (st : Solver.stats) pl =
        report_plan nl pl st.Solver.wall_time;
        report_engine_degradations st;
        Option.iter
          (fun path ->
            Fp_viz.Svg.save path (Fp_viz.Svg.of_placement ~netlist:nl pl);
            Printf.printf "svg        : %s\n" path)
          svg;
        if ascii then print_string (Fp_viz.Ascii.render pl);
        finish_exit ~lint nl pl findings st
      in
      (match engine with
      | `Portfolio ->
        let engines = List.map solver_of [ `Milp; `Sa; `Project ] in
        let report = Portfolio.race ~engines ~scenario nl in
        List.iter
          (fun (e : Portfolio.entry) ->
            if e.Portfolio.ran then
              report_engine_stats e.Portfolio.outcome.Solver.stats
            else Printf.printf "  %-8s : skipped\n" e.Portfolio.solver_name)
          report.Portfolio.entries;
        (match report.Portfolio.winner with
        | None ->
          Printf.eprintf "error: no engine produced a certified plan\n";
          Degradation.exit_error
        | Some w ->
          Printf.printf "winner     : %s  (race %.2f s)\n"
            w.Portfolio.solver_name report.Portfolio.wall_time;
          (match w.Portfolio.outcome.Solver.plan with
          | Some pl -> epilogue w.Portfolio.outcome.Solver.stats pl
          | None -> assert false (* a certified winner carries a plan *)))
      | (`Milp | `Sa | `Project) as e -> (
        let s = solver_of e in
        let ctx = Solver.of_scenario scenario in
        let outcome = s.Solver.solve ctx scenario nl in
        match outcome.Solver.plan with
        | None ->
          Printf.eprintf "error: engine %s produced no plan\n" s.Solver.name;
          Degradation.exit_error
        | Some pl -> epilogue outcome.Solver.stats pl))
  in
  let term =
    Term.(
      const run $ input_arg $ ami33_arg $ random_arg $ seed_arg $ verbose_arg
      $ width_arg $ group_arg $ ordering_arg $ objective_arg $ envelope_arg
      $ nodes_arg $ formulation_arg $ candidates_arg $ time_budget_arg
      $ checkpoint_arg $ resume_arg $ stop_after_arg $ faults_arg $ refine_arg $ slicing_arg $ engine_arg
      $ outline_arg $ svg_arg $ ascii_arg $ lint_arg)
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Floorplan an instance by successive augmentation")
    term

let route_cmd =
  let pitch_arg =
    Arg.(value & opt positive_float 0.35
         & info [ "pitch" ] ~docv:"P" ~doc:"Routing track pitch.")
  in
  let weighted_arg =
    Arg.(value & opt (some non_negative_float) (Some 3.)
         & info [ "penalty" ] ~docv:"P"
             ~doc:"Congestion penalty (omit for plain shortest path via \
                   --penalty-off).")
  in
  let penalty_off_arg =
    Arg.(value & flag
         & info [ "penalty-off" ] ~doc:"Use the unweighted shortest path.")
  in
  let run input ami33 random seed verbose width group ordering wire envelope
      nodes formulation candidates pitch penalty penalty_off svg lint =
    setup_logs verbose;
    match load_instance input ami33 random seed with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok nl ->
      let config =
        config_of ~formulation ~width ~group ~ordering ~wire ~envelope ~nodes
          ~seed ~candidates ()
      in
      let findings = ref [] in
      let config =
        if lint then
          { config with
            Augment.check = true;
            inspect = Some (checking_hooks nl findings) }
        else config
      in
      let pl, st = solve_milp nl config in
      report_plan nl pl st.Solver.wall_time;
      report_engine_degradations st;
      let algorithm =
        if penalty_off then Fp_route.Global_router.Shortest_path
        else
          Fp_route.Global_router.Weighted
            { penalty = Option.value penalty ~default:3. }
      in
      let rt =
        Fp_route.Global_router.route ~algorithm ~pitch_h:pitch ~pitch_v:pitch
          nl pl
      in
      let rep = Fp_route.Adjust.compute rt ~pitch_h:pitch ~pitch_v:pitch in
      Printf.printf "routing    : wirelength %.1f, %d nets, overflow %.0f\n"
        rt.Fp_route.Global_router.total_wirelength
        (List.length rt.Fp_route.Global_router.routed)
        rt.Fp_route.Global_router.overflow_total;
      Format.printf "adjusted   : %a@." Fp_route.Adjust.pp rep;
      Option.iter
        (fun path ->
          Fp_viz.Svg.save path (Fp_viz.Svg.of_routed ~netlist:nl pl rt);
          Printf.printf "svg        : %s\n" path)
        svg;
      finish_exit ~lint nl pl findings st
  in
  let term =
    Term.(
      const run $ input_arg $ ami33_arg $ random_arg $ seed_arg $ verbose_arg
      $ width_arg $ group_arg $ ordering_arg $ objective_arg $ envelope_arg
      $ nodes_arg $ formulation_arg $ candidates_arg $ pitch_arg
      $ weighted_arg $ penalty_off_arg $ svg_arg $ lint_arg)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Floorplan, globally route, and compute the adjusted chip area")
    term

let check_cmd =
  let machine_arg =
    Arg.(value & flag
         & info [ "machine" ]
             ~doc:"Emit one finding per line in the stable \
                   CODE|severity|subject|message format (for CI diffing) \
                   instead of the human-readable report.")
  in
  let run input ami33 random seed verbose width group ordering wire envelope
      nodes formulation candidates time_budget faults machine =
    setup_logs verbose;
    match
      let ( let* ) = Result.bind in
      let* nl = load_instance input ami33 random seed in
      let* () = arm_faults faults in
      Ok nl
    with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok nl ->
      let config =
        config_of ?time_budget ~formulation ~width ~group ~ordering ~wire
          ~envelope ~nodes ~seed ~candidates ()
      in
      let findings = ref [] in
      let config =
        { config with
          Augment.check = true;
          inspect = Some (checking_hooks nl findings) }
      in
      let pl, st = solve_milp nl config in
      certify_final nl pl findings;
      let code = report_findings ~machine !findings in
      let degraded =
        Degradation.exit_code (List.map snd st.Solver.degradations)
      in
      if not machine then begin
        report_engine_degradations st;
        Printf.printf "verdict    : %s\n"
          (if code <> 0 then "INVALID"
           else if degraded <> 0 then "degraded-feasible"
           else "optimal path, certified")
      end;
      if code <> 0 then code else degraded
  in
  let term =
    Term.(
      const run $ input_arg $ ami33_arg $ random_arg $ seed_arg $ verbose_arg
      $ width_arg $ group_arg $ ordering_arg $ objective_arg $ envelope_arg
      $ nodes_arg $ formulation_arg $ candidates_arg $ time_budget_arg
      $ faults_arg $ machine_arg)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Floorplan an instance with full static and dynamic checking: \
          lint every step's MILP model, certify every partial placement \
          and covering decomposition, and certify the final floorplan.  \
          Exits 1 when any error-severity finding is produced, 3 when \
          the floorplan is feasible but quality-degraded (warm-start \
          fallbacks, dropped net bounds, deadline truncation), 0 on the \
          clean optimizing path.")
    term

let gen_cmd =
  let k_arg =
    Arg.(required & pos 0 (some module_count) None
         & info [] ~docv:"K" ~doc:"Number of modules (at least 2).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the instance here (default: stdout).")
  in
  let run k seed out =
    let nl =
      Generator.generate
        { Generator.default_config with Generator.num_modules = k; seed }
    in
    (match out with
    | Some path ->
      Parser.to_file path nl;
      Printf.printf "wrote %s\n" path
    | None -> print_string (Parser.to_string nl));
    0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a random instance file")
    Term.(const run $ k_arg $ seed_arg $ out_arg)

let show_cmd =
  let run input ami33 random seed =
    match load_instance input ami33 random seed with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
    | Ok nl ->
      Format.printf "%a@." Netlist.pp_summary nl;
      Array.iter
        (fun m -> Format.printf "  %a@." Fp_netlist.Module_def.pp m)
        (Netlist.modules nl);
      Printf.printf "nets: %d (max degree %d, %d timing-critical)\n"
        (Netlist.num_nets nl)
        (List.fold_left
           (fun a n -> Int.max a (Fp_netlist.Net.degree n))
           0 (Netlist.nets nl))
        (List.length
           (List.filter
              (fun n -> n.Fp_netlist.Net.criticality > 0.)
              (Netlist.nets nl)));
      0
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print an instance summary")
    Term.(const run $ input_arg $ ami33_arg $ random_arg $ seed_arg)

let () =
  let info =
    Cmd.info "floorplanner" ~version:"1.0.0"
      ~doc:
        "Analytical floorplan design and optimization (Sutanthavibul, \
         Shragowitz and Rosen, DAC 1990)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info [ plan_cmd; route_cmd; check_cmd; gen_cmd; show_cmd ]))
