(* Tests for the engine abstraction layer: the Outline knob, the Solver
   scenario/context contract, bit-identity of the refactored MILP and SA
   backends against their direct drivers, certification of the
   projection backend, and the portfolio racer's determinism across
   worker counts. *)

module Generator = Fp_netlist.Generator
module Netlist = Fp_netlist.Netlist
module BB = Fp_milp.Branch_bound
module Anneal = Fp_slicing.Anneal
module Solver = Fp_engine.Solver
module Milp_engine = Fp_engine.Milp_engine
module Sa_engine = Fp_engine.Sa_engine
module Project = Fp_engine.Project
module Portfolio = Fp_engine.Portfolio
open Fp_core

let gen ~n ~seed =
  Generator.generate
    { Generator.default_config with Generator.num_modules = n; seed }

let small_milp_cfg =
  { Augment.default_config with
    Augment.group_size = 3;
    milp = { Augment.default_config.Augment.milp with BB.node_limit = 300 } }

let small_sa_cfg = { Anneal.default_config with Anneal.stages = 30 }

let engines () =
  [
    Milp_engine.make ~config:small_milp_cfg ();
    Sa_engine.make ~config:small_sa_cfg ();
    Project.solver;
  ]

let scenario seed = { Solver.default_scenario with Solver.seed = seed }

let solve_one s sc nl =
  let ctx = Solver.of_scenario sc in
  s.Solver.solve ctx sc nl

let stats (o : Solver.outcome) = o.Solver.stats

let has_deg p (o : Solver.outcome) =
  List.exists (fun (_, d) -> p d) (stats o).Solver.degradations

(* ------------------------------ outline ------------------------------ *)

let test_outline_limits () =
  Alcotest.(check (option (float 1e-9)))
    "free width" None
    (Outline.width_limit Outline.Free);
  Alcotest.(check (option (float 1e-9)))
    "max width" (Some 25.)
    (Outline.width_limit (Outline.Max_width 25.));
  Alcotest.(check (option (float 1e-9)))
    "max width no height" None
    (Outline.height_limit (Outline.Max_width 25.));
  let fixed = Outline.Fixed { w = 10.; h = 5. } in
  Alcotest.(check (option (float 1e-9)))
    "fixed width" (Some 10.) (Outline.width_limit fixed);
  Alcotest.(check (option (float 1e-9)))
    "fixed height" (Some 5.) (Outline.height_limit fixed)

let test_outline_excess () =
  let o = Outline.Fixed { w = 10.; h = 5. } in
  Alcotest.(check (float 1e-9)) "fits" 0. (Outline.excess o ~w:10. ~h:5.);
  Alcotest.(check (float 1e-9)) "wide" 2. (Outline.excess o ~w:12. ~h:4.);
  Alcotest.(check (float 1e-9))
    "worst axis" 3.
    (Outline.excess o ~w:12. ~h:8.);
  Alcotest.(check bool) "fits pred" true (Outline.fits o ~w:10. ~h:5.);
  Alcotest.(check bool) "overflow pred" false (Outline.fits o ~w:10.1 ~h:5.);
  Alcotest.(check bool) "free always fits" true
    (Outline.fits Outline.Free ~w:1e9 ~h:1e9)

(* --------------------- backend bit-identity --------------------- *)

(* The tentpole contract: putting Augment behind the Solver interface
   with an all-default scenario must not change the floorplan. *)
let test_milp_engine_matches_augment () =
  let nl = gen ~n:8 ~seed:4 in
  let res = Augment.run ~config:small_milp_cfg nl in
  let direct =
    let pl = Compact.vertical res.Augment.placement in
    fst (Topology.optimize ~linearization:small_milp_cfg.Augment.linearization
           nl pl)
  in
  let o = solve_one (Milp_engine.make ~config:small_milp_cfg ()) (scenario 1990) nl in
  match o.Solver.plan with
  | None -> Alcotest.fail "milp engine returned no plan"
  | Some pl ->
    Alcotest.(check bool) "identical plan" true (pl = direct);
    Alcotest.(check bool) "certified" true (stats o).Solver.certified

(* Same for the annealer: the scenario seed must reproduce a direct
   Anneal.run with that seed, bit for bit. *)
let test_sa_engine_matches_anneal () =
  let nl = gen ~n:10 ~seed:3 in
  let cfg = { small_sa_cfg with Anneal.seed = 11 } in
  let direct, _ = Anneal.run ~config:cfg nl in
  let o = solve_one (Sa_engine.make ~config:small_sa_cfg ()) (scenario 11) nl in
  match o.Solver.plan with
  | None -> Alcotest.fail "sa engine returned no plan"
  | Some pl ->
    Alcotest.(check bool) "identical plan" true (pl = direct);
    Alcotest.(check bool) "certified" true (stats o).Solver.certified

let test_engine_deterministic () =
  let nl = gen ~n:9 ~seed:8 in
  List.iter
    (fun s ->
      let a = solve_one s (scenario 21) nl and b = solve_one s (scenario 21) nl in
      Alcotest.(check bool)
        (s.Solver.name ^ " plan replays") true
        (a.Solver.plan = b.Solver.plan))
    (engines ())

(* A race lane stops at its next commit once the abort is signalled: with
   the flag already set, the MILP engine commits its first step and
   returns that partial plan. *)
let test_milp_abort_stops_at_commit () =
  let nl = gen ~n:8 ~seed:5 in
  let sc = scenario 1990 in
  let ctx = Solver.of_scenario sc in
  Fp_util.Abort.signal ctx.Solver.abort;
  let o = (Milp_engine.make ()).Solver.solve ctx sc nl in
  Alcotest.(check bool) "incomplete" false (stats o).Solver.complete;
  Alcotest.(check (float 0.)) "one step" 1.
    (List.assoc "steps" (stats o).Solver.detail)

(* ------------------------- projection engine ------------------------- *)

let test_project_certifies_ami33 () =
  let nl = Fp_data.Ami33.netlist () in
  let o = solve_one Project.solver (scenario 1990) nl in
  Alcotest.(check bool) "certified" true (stats o).Solver.certified;
  match o.Solver.plan with
  | None -> Alcotest.fail "no plan"
  | Some pl ->
    Alcotest.(check int) "all placed" (Netlist.num_modules nl)
      (Placement.num_placed pl);
    Alcotest.(check bool) "valid" true (Placement.valid pl = Ok ())

let test_project_certifies_generated () =
  let nl = gen ~n:14 ~seed:6 in
  let o = solve_one Project.solver (scenario 6) nl in
  Alcotest.(check bool) "certified" true (stats o).Solver.certified;
  match o.Solver.plan with
  | None -> Alcotest.fail "no plan"
  | Some pl ->
    Alcotest.(check int) "all placed" (Netlist.num_modules nl)
      (Placement.num_placed pl)

let test_project_fixed_outline_feasible () =
  let nl = Fp_data.Ami33.netlist () in
  let sc =
    { (scenario 1990) with Solver.outline = Outline.Fixed { w = 140.; h = 130. } }
  in
  let o = solve_one Project.solver sc nl in
  Alcotest.(check bool) "certified inside outline" true
    (stats o).Solver.certified

(* The annealer charges width and height excess alike, so it also ends
   inside a feasible die. *)
let test_sa_fixed_outline_feasible () =
  let nl = Fp_data.Ami33.netlist () in
  let sc =
    { (scenario 1990) with Solver.outline = Outline.Fixed { w = 140.; h = 130. } }
  in
  let o = solve_one (Sa_engine.make ()) sc nl in
  Alcotest.(check bool) "certified inside outline" true
    (stats o).Solver.certified

(* An impossible outline (smaller than the total silicon area) must
   still yield a valid plan, uncertified, with the overshoot recorded —
   never an exception or a silent pass. *)
let test_project_outline_degradation () =
  let nl = Fp_data.Ami33.netlist () in
  let sc =
    { (scenario 1990) with Solver.outline = Outline.Fixed { w = 125.; h = 90. } }
  in
  let o = solve_one Project.solver sc nl in
  Alcotest.(check bool) "not certified" false (stats o).Solver.certified;
  Alcotest.(check bool) "overshoot recorded" true
    (has_deg (function Degradation.Outline_exceeded _ -> true | _ -> false) o);
  match o.Solver.plan with
  | None -> Alcotest.fail "no plan"
  | Some pl ->
    Alcotest.(check bool) "plan still valid" true (Placement.valid pl = Ok ())

(* The pair test of a sweep against the test it replaced: the overlap
   as a conditional min/max difference, then [Tol.gt _ 0.].  Intervals
   are random, or built to sit on the threshold: shared edges, widths
   and overlaps of exactly eps and one ulp either side, signed zeros,
   and offsets of 1e6, where eps is about 8,600 ulps. *)
let test_project_pair_test =
  let positive_overlap a0 a1 b0 b1 =
    let overlap =
      (if a1 < b1 then a1 else b1) -. if a0 < b0 then b0 else a0
    in
    Bool.to_int (Fp_geometry.Tol.gt overlap 0.)
  in
  let gen =
    let open QCheck.Gen in
    let eps = Fp_geometry.Tol.eps in
    let near v = oneofl [ v; Float.pred v; Float.succ v ] in
    let length =
      oneof
        [ float_range 0. 50.; oneofl [ 0.; -0. ]; near eps; near (2. *. eps) ]
    in
    (* How far [b0] sits below [a1]: negative is a gap. *)
    let depth =
      oneof
        [ float_range (-50.) 50.; oneofl [ 0.; -0. ]; near eps;
          near (-.eps); near (2. *. eps) ]
    in
    let offset = oneofl [ 0.; -0.; 1e6; -1e6; 1e6 +. 0.5; -1e-3 ] in
    let* o = offset and* x = oneof [ float_range (-10.) 10.; return 0. ] in
    let* wa = length and* d = depth and* wb = length in
    let a0 = o +. x in
    let a1 = a0 +. wa in
    let b0 = a1 -. d in
    return (a0, a1, b0, b0 +. wb)
  in
  let print (a0, a1, b0, b1) = Printf.sprintf "%h %h %h %h" a0 a1 b0 b1 in
  QCheck.Test.make ~name:"pair test equals the overlap test" ~count:2000
    ~long_factor:100 (QCheck.make ~print gen)
    (fun (a0, a1, b0, b1) ->
      Project.overlaps a0 a1 b0 b1 = positive_overlap a0 a1 b0 b1
      && Project.overlaps b0 b1 a0 a1 = positive_overlap b0 b1 a0 a1)

(* Recorded trajectories: the sweep work, the best height and the plan
   bits must replay exactly.  These pin the paths the benchmark does not
   run — a fixed outline and the wire pull — next to the free outline,
   and the largest plan the benchmark's [heuristic_large] workload makes
   at seed 1: its 56-module instance, generated and read back through
   the parser as the benchmark does, under the default scenario. *)
let test_project_pinned () =
  let pin name nl sc ~work ?best_height ~certified digest =
    let o = solve_one Project.solver sc nl in
    Alcotest.(check int) (name ^ ": work") work (stats o).Solver.work;
    Option.iter
      (fun h ->
        Alcotest.(check bool) (name ^ ": best height") true
          (Float.equal h (List.assoc "best_height" (stats o).Solver.detail)))
      best_height;
    Alcotest.(check bool) (name ^ ": certified") certified
      (stats o).Solver.certified;
    Alcotest.(check string) (name ^ ": plan") digest
      (Plan_digest.hex (Option.get o.Solver.plan))
  in
  let ami33 = Fp_data.Ami33.netlist () in
  pin "ami33 free" ami33 (scenario 1990) ~work:3200
    ~best_height:0x1.c3532b3b5f2a2p+6 ~certified:true
    "1b94f99320a6913b9f0e3a83cdd03101";
  pin "ami33 fixed 115x110" ami33
    { (scenario 1990) with Solver.outline = Outline.Fixed { w = 115.; h = 110. } }
    ~work:640 ~certified:false "9bfb8d573e3343c9d3619db762914670";
  pin "generated wire pull" (gen ~n:14 ~seed:6)
    { (scenario 6) with Solver.wire_weight = Some 1. }
    ~work:3200 ~best_height:0x1.64p+6 ~certified:true
    "a6c5fd0ebc052c0b7bb241e723604bdd";
  let k56 =
    let nl =
      Generator.generate
        { Generator.default_config with
          Generator.num_modules = 56;
          total_area = 349. *. 56.;
          seed = 7919 + 56 }
    in
    match Fp_netlist.Parser.(of_string (to_string nl)) with
    | Ok nl -> nl
    | Error e -> Alcotest.fail e
  in
  pin "56 modules, parsed" k56 Solver.default_scenario ~work:3360
    ~best_height:0x1.24bc510b2e2f4p+7 ~certified:true
    "10dad6f733cb4b12e9948e72a1d1612d"

(* --------------------------- deadline knob --------------------------- *)

let test_sa_deadline_truncates () =
  let nl = gen ~n:12 ~seed:2 in
  let sc = { (scenario 3) with Solver.time_budget = Some 0.005 } in
  let o = solve_one (Sa_engine.make ()) sc nl in
  Alcotest.(check bool) "plan exists" true (o.Solver.plan <> None);
  Alcotest.(check bool) "truncation recorded" true
    (has_deg (( = ) Degradation.Deadline_truncated) o);
  Alcotest.(check bool) "incomplete" false (stats o).Solver.complete

(* ----------------------------- portfolio ----------------------------- *)

let winner_name r =
  match r.Portfolio.winner with
  | Some w -> w.Portfolio.solver_name
  | None -> "none"

let winner_plan r =
  match r.Portfolio.winner with
  | Some w -> w.Portfolio.outcome.Solver.plan
  | None -> None

(* Best_certified with no time budget: winner identity, winner plan and
   every per-engine objective must be identical for jobs = 1, 2, 3. *)
let test_portfolio_deterministic_across_jobs () =
  let nl = gen ~n:8 ~seed:5 in
  let sc = scenario 7 in
  let run jobs = Portfolio.race ~jobs ~engines:(engines ()) ~scenario:sc nl in
  let r1 = run 1 and r2 = run 2 and r3 = run 3 in
  Alcotest.(check string) "winner 1=2" (winner_name r1) (winner_name r2);
  Alcotest.(check string) "winner 1=3" (winner_name r1) (winner_name r3);
  Alcotest.(check bool) "plan 1=2" true (winner_plan r1 = winner_plan r2);
  Alcotest.(check bool) "plan 1=3" true (winner_plan r1 = winner_plan r3);
  List.iter2
    (fun (a : Portfolio.entry) (b : Portfolio.entry) ->
      Alcotest.(check string) "entry order" a.Portfolio.solver_name
        b.Portfolio.solver_name;
      Alcotest.(check (float 1e-9))
        (a.Portfolio.solver_name ^ " objective")
        a.Portfolio.outcome.Solver.stats.Solver.objective
        b.Portfolio.outcome.Solver.stats.Solver.objective)
    r1.Portfolio.entries r2.Portfolio.entries

let test_portfolio_picks_lowest_objective () =
  let nl = gen ~n:8 ~seed:5 in
  let r = Portfolio.race ~engines:(engines ()) ~scenario:(scenario 7) nl in
  match r.Portfolio.winner with
  | None -> Alcotest.fail "no winner"
  | Some w ->
    Alcotest.(check bool) "winner certified" true
      w.Portfolio.outcome.Solver.stats.Solver.certified;
    List.iter
      (fun (e : Portfolio.entry) ->
        if e.Portfolio.outcome.Solver.stats.Solver.certified then
          Alcotest.(check bool)
            ("winner <= " ^ e.Portfolio.solver_name)
            true
            (w.Portfolio.outcome.Solver.stats.Solver.objective
             <= e.Portfolio.outcome.Solver.stats.Solver.objective +. 1e-9))
      r.Portfolio.entries

let test_portfolio_first_certified () =
  let nl = gen ~n:8 ~seed:5 in
  let r =
    Portfolio.race ~policy:Portfolio.First_certified ~engines:(engines ())
      ~scenario:(scenario 7) nl
  in
  match r.Portfolio.winner with
  | None -> Alcotest.fail "no winner"
  | Some w ->
    Alcotest.(check bool) "certified" true
      w.Portfolio.outcome.Solver.stats.Solver.certified

let test_portfolio_survives_engine_failure () =
  let boom =
    { Solver.name = "boom";
      solve = (fun _ _ _ -> failwith "synthetic engine crash") }
  in
  let nl = gen ~n:6 ~seed:9 in
  let r =
    Portfolio.race ~engines:[ boom; Project.solver ] ~scenario:(scenario 9) nl
  in
  Alcotest.(check string) "project wins" "project" (winner_name r);
  let boom_entry = List.hd r.Portfolio.entries in
  Alcotest.(check bool) "failure recorded" true
    (List.exists
       (fun (_, d) ->
         match d with Degradation.Engine_failed _ -> true | _ -> false)
       boom_entry.Portfolio.outcome.Solver.stats.Solver.degradations)

let test_portfolio_rejects_empty () =
  Alcotest.check_raises "empty engines"
    (Invalid_argument "Portfolio.race: no engines") (fun () ->
      ignore (Portfolio.race ~engines:[] ~scenario:(scenario 1) (gen ~n:3 ~seed:1)))

(* ------------------------ end-to-end property ------------------------ *)

let test_any_engine_certifies =
  QCheck.Test.make ~name:"every engine's plan passes certification" ~count:9
    QCheck.(pair (int_range 0 2) (int_range 0 99))
    (fun (which, seed) ->
      let nl = gen ~n:(5 + (seed mod 4)) ~seed in
      let s = List.nth (engines ()) which in
      let o = solve_one s (scenario seed) nl in
      (stats o).Solver.certified
      &&
      match o.Solver.plan with
      | Some pl -> Placement.valid pl = Ok ()
      | None -> false)

let () =
  Alcotest.run "fp_engine"
    [
      ( "outline",
        [
          Alcotest.test_case "limits" `Quick test_outline_limits;
          Alcotest.test_case "excess" `Quick test_outline_excess;
        ] );
      ( "backends",
        [
          Alcotest.test_case "milp bit-identical" `Quick
            test_milp_engine_matches_augment;
          Alcotest.test_case "sa bit-identical" `Quick
            test_sa_engine_matches_anneal;
          Alcotest.test_case "deterministic replay" `Quick
            test_engine_deterministic;
          Alcotest.test_case "sa deadline truncates" `Quick
            test_sa_deadline_truncates;
          Alcotest.test_case "sa feasible fixed outline" `Quick
            test_sa_fixed_outline_feasible;
          Alcotest.test_case "milp abort stops at commit" `Quick
            test_milp_abort_stops_at_commit;
        ] );
      ( "project",
        [
          Alcotest.test_case "certifies ami33" `Quick
            test_project_certifies_ami33;
          Alcotest.test_case "certifies generated" `Quick
            test_project_certifies_generated;
          Alcotest.test_case "feasible fixed outline" `Quick
            test_project_fixed_outline_feasible;
          Alcotest.test_case "outline degradation" `Quick
            test_project_outline_degradation;
          Alcotest.test_case "pinned trajectories" `Quick test_project_pinned;
          QCheck_alcotest.to_alcotest test_project_pair_test;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_portfolio_deterministic_across_jobs;
          Alcotest.test_case "picks lowest objective" `Quick
            test_portfolio_picks_lowest_objective;
          Alcotest.test_case "first certified" `Quick
            test_portfolio_first_certified;
          Alcotest.test_case "survives engine failure" `Quick
            test_portfolio_survives_engine_failure;
          Alcotest.test_case "rejects empty" `Quick test_portfolio_rejects_empty;
          QCheck_alcotest.to_alcotest test_any_engine_certifies;
        ] );
    ]
