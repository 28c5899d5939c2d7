(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (section 4), plus the design-choice ablations, the fault
   matrix and the engine portfolio race.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- --table 1    -- one table
     dune exec bench/main.exe -- --figures    -- figures 5 and 6 (SVG + ASCII)
     dune exec bench/main.exe -- --ablation   -- design-choice ablations
     dune exec bench/main.exe -- --quick      -- reduced MILP budgets

   Absolute numbers differ from the paper's 1990 Apollo DN3550 runs; the
   shapes the paper claims (near-linear time in modules, connectivity
   ordering beating random, wire term reducing wirelength, envelopes
   reducing the post-routing chip area) are what this harness
   demonstrates.  See EXPERIMENTS.md for the side-by-side record. *)

module Netlist = Fp_netlist.Netlist
module BB = Fp_milp.Branch_bound
module Skyline = Fp_geometry.Skyline
module Solver = Fp_engine.Solver
module Portfolio = Fp_engine.Portfolio
open Fp_core

let out_dir = ref "."
let quick = ref false
let json = ref false
let max_k = ref max_int
let printf = Printf.printf
let t_start = Unix.gettimeofday ()

(* Git commit id stamped into every JSON record — lets a regression
   tracker attribute a number to the code that produced it.  HEAD's full
   hash, with "-dirty" appended when a tracked file differs from HEAD,
   since those numbers come from code no commit holds (untracked files,
   such as a bench output directory, do not count).  "unknown" outside
   a work tree (e.g. a tarball build). *)
let commit_id =
  lazy
    (let git args =
       try
         let ic = Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") in
         let line = try input_line ic with End_of_file -> "" in
         (line, Unix.close_process_in ic)
       with Unix.Unix_error _ | Sys_error _ -> ("", Unix.WEXITED 127)
     in
     match git "rev-parse HEAD" with
     | head, Unix.WEXITED 0 when head <> "" -> (
       match git "diff --quiet HEAD" with
       | _, Unix.WEXITED 0 -> head
       | _, Unix.WEXITED 1 -> head ^ "-dirty"
       | _ -> "unknown")
     | _ -> "unknown")

(* Minimal JSON emitter — the experiment records are flat enough that a
   dependency-free writer beats pulling in a parser library. *)
module Json = struct
  type t =
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let add_escaped buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec emit buf = function
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      (* JSON has no inf/nan literals. *)
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
    | Str s -> add_escaped buf s
    | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        l;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          emit buf v)
        kvs;
      Buffer.add_char buf '}'
end

(* Write BENCH_<exp>.json into the output directory when --json is on.
   Every record carries provenance: wall clock since harness start and
   the git commit. *)
let write_json exp fields =
  if !json then begin
    let path = Filename.concat !out_dir (Printf.sprintf "BENCH_%s.json" exp) in
    let buf = Buffer.create 1024 in
    let fields =
      fields
      @ [
          ("wall_clock_s", Json.Float (Unix.gettimeofday () -. t_start));
          ("commit", Json.Str (Lazy.force commit_id));
        ]
    in
    Json.emit buf (Json.Obj (("experiment", Json.Str exp) :: fields));
    Buffer.add_char buf '\n';
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Buffer.contents buf);
        flush oc);
    printf "JSON -> %s\n" path
  end

let status_str = function
  | BB.Optimal -> "optimal"
  | BB.Feasible -> "feasible"
  | BB.Infeasible -> "infeasible"
  | BB.Unbounded -> "unbounded"
  | BB.No_solution -> "no_solution"

(* Severity order for the CI regression gate: any step losing its solution
   outright is a solver regression; optimal -> feasible is budget noise. *)
let status_rank = function
  | BB.Optimal -> 0
  | BB.Feasible -> 1
  | BB.Infeasible | BB.Unbounded | BB.No_solution -> 2

let worst_status steps =
  List.fold_left
    (fun acc s ->
      if status_rank s.Augment.milp_status > status_rank acc then
        s.Augment.milp_status
      else acc)
    BB.Optimal steps

let sum_steps f steps = List.fold_left (fun a s -> a + f s) 0 steps

(* Resilience provenance attached to every per-run JSON record: what the
   run degraded on, and whether the run deadline had to truncate steps.
   A regression tracker diffing BENCH files sees a solver that silently
   started falling back. *)
let resilience_fields steps =
  let degs =
    List.concat_map
      (fun (s : Augment.step_stat) -> s.Augment.degradations)
      steps
  in
  [
    ( "degradations",
      Json.List (List.map (fun d -> Json.Str (Degradation.to_string d)) degs) );
    ( "deadline_misses",
      Json.Int
        (List.length
           (List.filter (fun d -> d = Degradation.Deadline_truncated) degs)) );
  ]

let formulation_fields (config : Augment.config) =
  [ ("formulation", Json.Str (Formulation.mode_to_string config.Augment.formulation)) ]

(* First [k] modules of the ami33 instance with every net that stays
   inside them — the prefix family the formulation ablation and the
   fault matrix share. *)
let ami33_prefix k =
  let full = Fp_data.Ami33.netlist () in
  if k >= Netlist.num_modules full then full
  else begin
    let mods = Array.to_list (Array.sub (Netlist.modules full) 0 k) in
    let nets =
      List.filter
        (fun n -> List.for_all (fun m -> m < k) (Fp_netlist.Net.modules n))
        (Netlist.nets full)
    in
    Netlist.create ~name:(Printf.sprintf "ami33_k%d" k) mods nets
  end

let table1_sizes () =
  List.filter (fun k -> k <= !max_k) Fp_data.Instances.table1_sizes

let hr title =
  printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let base_config () =
  let d = Augment.default_config in
  if !quick then
    { d with
      Augment.milp = { d.Augment.milp with BB.node_limit = 500; time_limit = 5. } }
  else d

(* One full floorplanning run: augmentation, then the end-of-run
   adjustment (compaction + known-topology LP), as in the paper's
   Figure 3 steps 12-13. *)
let floorplan ?config nl =
  let config = match config with Some c -> c | None -> base_config () in
  let res = Augment.run ~config nl in
  let pl = Compact.vertical res.Augment.placement in
  let pl, _ = Topology.optimize ~linearization:config.Augment.linearization nl pl in
  (res, pl)

(* --------------------------------------------------------------------- *)
(* Table 1: problem size vs execution time and utilization                *)
(* --------------------------------------------------------------------- *)

let table1 () =
  hr "Table 1 -- execution time and utilization vs problem size";
  printf "(paper: K=15/20/25/33, time in minutes on a 4-MIPS Apollo; the\n";
  printf " claim under reproduction: time grows almost linearly with K)\n\n";
  printf "%8s %12s %12s %14s %12s %10s\n" "Modules" "Chip Area" "Height"
    "Exec Time (s)" "Utilization" "MILP nodes";
  let samples = ref [] and rows = ref [] in
  List.iter
    (fun k ->
      let nl = Fp_data.Instances.table1_instance k in
      let t0 = Unix.gettimeofday () in
      let res, pl = floorplan nl in
      let dt = Unix.gettimeofday () -. t0 in
      let steps = res.Augment.steps in
      let nodes = sum_steps (fun s -> s.Augment.nodes) steps in
      samples := (float_of_int k, dt) :: !samples;
      rows :=
        Json.Obj
          ([
            ("engine", Json.Str "milp");
            ("k", Json.Int k);
            ("time_s", Json.Float dt);
            ("area", Json.Float (Placement.chip_area pl));
            ("height", Json.Float pl.Placement.height);
            ("utilization", Json.Float (Metrics.utilization nl pl));
            ("nodes", Json.Int nodes);
            ("lp_solves", Json.Int (sum_steps (fun s -> s.Augment.lp_solves) steps));
            ("warm_hits", Json.Int (sum_steps (fun s -> s.Augment.warm_hits) steps));
            ("pivots", Json.Int (sum_steps (fun s -> s.Augment.pivots) steps));
            ("worst_status", Json.Str (status_str (worst_status steps)));
          ]
          @ formulation_fields (base_config ())
          @ resilience_fields steps)
        :: !rows;
      printf "%8d %12.0f %12.1f %14.2f %11.1f%% %10d\n" k
        (Placement.chip_area pl) pl.Placement.height dt
        (100. *. Metrics.utilization nl pl)
        nodes)
    (table1_sizes ());
  if List.length !samples >= 2 then begin
    let fit = Fp_util.Stats.linear_fit (List.rev !samples) in
    printf "\nleast-squares fit of time vs K: %s\n"
      (Format.asprintf "%a" Fp_util.Stats.pp_fit fit);
    printf "(R^2 close to 1 supports the paper's almost-linear-growth claim)\n"
  end;
  write_json "table1" [ ("rows", Json.List (List.rev !rows)) ]

(* --------------------------------------------------------------------- *)
(* Table 2: ami33, over-the-cell routing                                  *)
(* --------------------------------------------------------------------- *)

let table2 () =
  hr "Table 2 -- ami33, over-the-cell routing (objective x ordering)";
  printf "(paper: best chip utilization 96%% with the area objective;\n";
  printf " wirelength measured as HPWL over generalized pins)\n\n";
  printf "%-10s %-8s %12s %12s %12s %10s\n" "Objective" "Order" "Chip Area"
    "Util" "WireLen" "Time (s)";
  let nl = Fp_data.Ami33.netlist () in
  let combos =
    [
      ("Chip Area", "Random", Formulation.Min_height, `Random 1988);
      ("Chip Area", "Linear", Formulation.Min_height, `Linear);
      ("Area+Wire", "Random", Formulation.Min_height_plus_wire 0.02,
       `Random 1988);
      ("Area+Wire", "Linear", Formulation.Min_height_plus_wire 0.02, `Linear);
    ]
  in
  List.iter
    (fun (obj_name, ord_name, objective, ordering) ->
      let base = base_config () in
      let config =
        { base with
          Augment.objective; ordering;
          (* Wire-term LPs are ~2x bigger; cap the node budget so the
             sweep stays minutes, not tens of minutes. *)
          milp =
            (match objective with
            | Formulation.Min_height -> base.Augment.milp
            | Formulation.Min_height_plus_wire _ ->
              { base.Augment.milp with BB.node_limit = 1200 }) }
      in
      let t0 = Unix.gettimeofday () in
      let _, pl = floorplan ~config nl in
      let dt = Unix.gettimeofday () -. t0 in
      printf "%-10s %-8s %12.0f %11.1f%% %12.0f %10.2f\n" obj_name ord_name
        (Placement.chip_area pl)
        (100. *. Metrics.utilization nl pl)
        (Metrics.hpwl nl pl) dt)
    combos

(* --------------------------------------------------------------------- *)
(* Table 3: ami33, around-the-cell routing                                *)
(* --------------------------------------------------------------------- *)

let pitch_h = 0.35
let pitch_v = 0.35

let table3 () =
  hr "Table 3 -- ami33, around-the-cell routing (envelopes x router)";
  printf "(paper: floorplan adjustment with envelopes decreases the final\n";
  printf " chip size; wirelength from the global router's paths)\n\n";
  printf "%-12s %-9s %12s %12s %12s %12s %10s\n" "Adjustment" "Router"
    "Base Area" "Final Area" "WireLen" "Overflow" "Growth";
  let nl = Fp_data.Ami33.netlist () in
  let plan envelopes =
    let config =
      { (base_config ()) with
        Augment.envelope =
          (if envelopes then Some { Augment.pitch_h; pitch_v; share = 0.5 }
           else None) }
    in
    snd (floorplan ~config nl)
  in
  let without_env = plan false and with_env = plan true in
  let routers =
    [ ("Shortest", Fp_route.Global_router.Shortest_path);
      ("Weighted", Fp_route.Global_router.Weighted { penalty = 3. }) ]
  in
  List.iter
    (fun (adj_name, pl) ->
      List.iter
        (fun (r_name, algorithm) ->
          let rt =
            Fp_route.Global_router.route ~algorithm ~pitch_h ~pitch_v nl pl
          in
          let rep = Fp_route.Adjust.compute rt ~pitch_h ~pitch_v in
          let base =
            rep.Fp_route.Adjust.base_width *. rep.Fp_route.Adjust.base_height
          in
          printf "%-12s %-9s %12.0f %12.0f %12.0f %12.0f %9.1f%%\n" adj_name
            r_name base rep.Fp_route.Adjust.final_area
            rt.Fp_route.Global_router.total_wirelength
            rt.Fp_route.Global_router.overflow_total
            (100. *. ((rep.Fp_route.Adjust.final_area /. base) -. 1.)))
        routers)
    [ ("No Envelope", without_env); ("Envelope", with_env) ]

(* --------------------------------------------------------------------- *)
(* Figures 5 and 6                                                        *)
(* --------------------------------------------------------------------- *)

let figures () =
  hr "Figures 5 and 6 -- ami33 floorplan, and floorplan with routing";
  let nl = Fp_data.Ami33.netlist () in
  let config =
    { (base_config ()) with
      Augment.envelope = Some { Augment.pitch_h; pitch_v; share = 0.5 } }
  in
  let _, pl = floorplan ~config nl in
  let fig5 = Filename.concat !out_dir "fig5_ami33.svg" in
  Fp_viz.Svg.save fig5 (Fp_viz.Svg.of_placement ~netlist:nl pl);
  printf "Figure 5 (floorplan of the ami33 chip) -> %s\n" fig5;
  let rt =
    Fp_route.Global_router.route
      ~algorithm:(Fp_route.Global_router.Weighted { penalty = 3. })
      ~pitch_h ~pitch_v nl pl
  in
  let fig6 = Filename.concat !out_dir "fig6_ami33_routed.svg" in
  Fp_viz.Svg.save fig6 (Fp_viz.Svg.of_routed ~netlist:nl pl rt);
  printf "Figure 6 (final floorplan with routing space) -> %s\n" fig6;
  printf "\nASCII rendering (Figure 5):\n%s\n" (Fp_viz.Ascii.render ~cols:76 pl)

(* --------------------------------------------------------------------- *)
(* Ablations                                                              *)
(* --------------------------------------------------------------------- *)

let ablation_group_size () =
  hr "Ablation -- augmentation group size (quality vs MILP effort)";
  printf "%6s %10s %12s %12s %12s\n" "Group" "Height" "Util" "Nodes" "Time (s)";
  let nl = Fp_data.Instances.table1_instance 15 in
  List.iter
    (fun g ->
      let config = { (base_config ()) with Augment.group_size = g } in
      let t0 = Unix.gettimeofday () in
      let res, pl = floorplan ~config nl in
      let dt = Unix.gettimeofday () -. t0 in
      let nodes =
        List.fold_left (fun a s -> a + s.Augment.nodes) 0 res.Augment.steps
      in
      printf "%6d %10.1f %11.1f%% %12d %12.2f\n" g pl.Placement.height
        (100. *. Metrics.utilization nl pl) nodes dt)
    [ 2; 3; 4; 5 ]

let ablation_covering () =
  hr "Ablation -- covering rectangles (Theorem 2's payoff)";
  printf "%-12s %14s %12s %12s\n" "Obstacles" "Integer vars" "Height" "Time (s)";
  let nl = Fp_data.Instances.table1_instance 20 in
  List.iter
    (fun (name, use_covering) ->
      let config = { (base_config ()) with Augment.use_covering } in
      let t0 = Unix.gettimeofday () in
      let res, pl = floorplan ~config nl in
      let dt = Unix.gettimeofday () -. t0 in
      let ints =
        List.fold_left (fun a s -> a + s.Augment.num_integer_vars) 0
          res.Augment.steps
      in
      printf "%-12s %14d %12.1f %12.2f\n" name ints pl.Placement.height dt)
    [ ("covering", true); ("raw modules", false) ]

let ablation_router_penalty () =
  hr "Ablation -- router congestion penalty sweep";
  printf "%8s %12s %12s %12s\n" "Penalty" "WireLen" "OverflowSum" "MaxOverflow";
  let nl = Fp_data.Ami33.netlist () in
  let _, pl = floorplan nl in
  List.iter
    (fun penalty ->
      let algorithm =
        if penalty = 0. then Fp_route.Global_router.Shortest_path
        else Fp_route.Global_router.Weighted { penalty }
      in
      let rt = Fp_route.Global_router.route ~algorithm ~pitch_h ~pitch_v nl pl in
      printf "%8.1f %12.0f %12.0f %12.0f\n" penalty
        rt.Fp_route.Global_router.total_wirelength
        rt.Fp_route.Global_router.overflow_total
        rt.Fp_route.Global_router.max_overflow)
    [ 0.; 1.; 3.; 10. ]

let baseline_comparison () =
  hr "Baseline -- MILP successive augmentation vs slicing + annealing";
  printf "(the paper's pitch: the MILP method is not restricted to slicing\n";
  printf " structures; Wong-Liu style SA over normalized Polish expressions\n";
  printf " is the canonical slicing competitor)\n\n";
  printf "%-10s %-22s %12s %12s %12s %10s\n" "Instance" "Method" "Chip Area"
    "Util" "HPWL" "Time (s)";
  List.iter
    (fun k ->
      let nl = Fp_data.Instances.table1_instance k in
      let t0 = Unix.gettimeofday () in
      let _, milp_pl = floorplan nl in
      let t_milp = Unix.gettimeofday () -. t0 in
      let slicing_cfg =
        { Fp_slicing.Anneal.default_config with
          Fp_slicing.Anneal.outline =
            Fp_core.Outline.Max_width milp_pl.Placement.chip_width }
      in
      let sa_pl, sa_stats = Fp_slicing.Anneal.run ~config:slicing_cfg nl in
      let row name pl t =
        printf "%-10s %-22s %12.0f %11.1f%% %12.0f %10.2f\n"
          (Netlist.name nl) name
          (Placement.chip_area pl)
          (100. *. Metrics.utilization nl pl)
          (Metrics.hpwl nl pl) t
      in
      row "MILP (this paper)" milp_pl t_milp;
      row "slicing SA (baseline)" sa_pl sa_stats.Fp_slicing.Anneal.elapsed)
    [ 15; 33 ]

let ablation_formulation () =
  hr "Ablation -- MILP formulation strengthening (basic vs tight)";
  printf "(basic: global big-M caps, the paper's formulation verbatim;\n";
  printf " tight: per-pair big-M, root presolve, incumbent height clamp,\n";
  printf " node bound propagation)\n\n";
  printf "%4s %-6s %10s %10s %10s %10s %8s\n" "K" "Mode" "Height" "Nodes"
    "Pivots" "Time (s)" "Certify";
  let rows = ref [] in
  let sizes = List.filter (fun k -> k <= !max_k) [ 10; 25; 33 ] in
  List.iter
    (fun k ->
      let nl = ami33_prefix k in
      List.iter
        (fun fm ->
          let config = { (base_config ()) with Augment.formulation = fm } in
          let t0 = Unix.gettimeofday () in
          let res, pl = floorplan ~config nl in
          let dt = Unix.gettimeofday () -. t0 in
          let steps = res.Augment.steps in
          let errors, _, _ =
            Fp_check.Diagnostic.count (Fp_check.Certify.placement nl pl)
          in
          printf "%4d %-6s %10.1f %10d %10d %10.2f %8s\n" k
            (Formulation.mode_to_string fm)
            pl.Placement.height
            (sum_steps (fun s -> s.Augment.nodes) steps)
            (sum_steps (fun s -> s.Augment.pivots) steps)
            dt
            (if errors = 0 then "pass" else "FAIL");
          rows :=
            Json.Obj
              ([
                 ("engine", Json.Str "milp");
                 ("k", Json.Int k);
                 ("height", Json.Float pl.Placement.height);
                 ("area", Json.Float (Placement.chip_area pl));
                 ("nodes", Json.Int (sum_steps (fun s -> s.Augment.nodes) steps));
                 ("pivots", Json.Int (sum_steps (fun s -> s.Augment.pivots) steps));
                 ( "lp_solves",
                   Json.Int (sum_steps (fun s -> s.Augment.lp_solves) steps) );
                 ("time_s", Json.Float dt);
                 ("certified", Json.Bool (errors = 0));
                 ("worst_status", Json.Str (status_str (worst_status steps)));
               ]
              @ formulation_fields config
              @ resilience_fields steps)
            :: !rows)
        [ Formulation.Basic; Formulation.Tight ])
    sizes;
  write_json "ablation_formulation" [ ("rows", Json.List (List.rev !rows)) ]

let ablations () =
  ablation_formulation ();
  ablation_group_size ();
  ablation_covering ();
  ablation_router_penalty ();
  baseline_comparison ()

(* --------------------------------------------------------------------- *)
(* Checking overhead: lint findings + certification time per step         *)
(* --------------------------------------------------------------------- *)

let check_overhead () =
  hr "Checking -- Fp_check lint findings and certification time per step";
  printf "(every step's MILP model linted, every partial placement and its\n";
  printf " covering decomposition certified; ami33, default config)\n\n";
  printf "%6s %8s %8s %8s %12s %14s\n" "Step" "Errors" "Warns" "Infos"
    "Lint (ms)" "Certify (ms)";
  let nl = Fp_data.Ami33.netlist () in
  let step = ref 0 in
  (* (errors, warnings, infos, lint ms) of the step's model, filled by
     on_model and consumed by on_step. *)
  let pending = ref (0, 0, 0, 0.) in
  let te = ref 0 and tw = ref 0 and ti = ref 0 in
  let tlint = ref 0. and tcert = ref 0. in
  let inspect =
    {
      Augment.on_model =
        (fun built ->
          incr step;
          let t0 = Unix.gettimeofday () in
          let ds = Fp_check.Lint.formulation built in
          let dt = 1e3 *. (Unix.gettimeofday () -. t0) in
          let e, w, i = Fp_check.Diagnostic.count ds in
          pending := (e, w, i, dt));
      on_step =
        (fun _stat pl ->
          let t0 = Unix.gettimeofday () in
          let ds = Fp_check.Certify.placement nl pl in
          let sky =
            Skyline.of_rects ~width:pl.Placement.chip_width
              (Placement.envelopes pl)
          in
          let cds =
            Fp_check.Certify.covering ~skyline:sky
              ~num_placed:(Placement.num_placed pl)
              (Fp_geometry.Covering.of_skyline sky)
          in
          let dt = 1e3 *. (Unix.gettimeofday () -. t0) in
          let e, w, i, lint_ms = !pending in
          let ce, cw, ci = Fp_check.Diagnostic.count (ds @ cds) in
          te := !te + e + ce;
          tw := !tw + w + cw;
          ti := !ti + i + ci;
          tlint := !tlint +. lint_ms;
          tcert := !tcert +. dt;
          printf "%6d %8d %8d %8d %12.1f %14.1f\n" !step (e + ce) (w + cw)
            (i + ci) lint_ms dt);
    }
  in
  let config =
    { (base_config ()) with Augment.inspect = Some inspect }
  in
  ignore (Augment.run ~config nl);
  printf "%6s %8d %8d %8d %12.1f %14.1f\n" "total" !te !tw !ti !tlint !tcert

(* --------------------------------------------------------------------- *)
(* Fault matrix: every registered fault site injected on an ami33 prefix  *)
(* --------------------------------------------------------------------- *)

let fault_matrix () =
  hr "Fault matrix -- every registered fault site, ami33 K<=12 prefix";
  printf "(acceptance: an injected fault must still yield a certifier-passing\n";
  printf " placement AND leave a degradation in the run record -- no crash,\n";
  printf " no hang, no silently-clean report)\n\n";
  let nl = ami33_prefix 12 in
  let base = base_config () in
  let base =
    { base with
      (* Small budgets give budget-type faults a real tree to hit and
         keep every row under a few seconds. *)
      Augment.milp =
        { base.Augment.milp with BB.node_limit = 300; time_limit = 5. } }
  in
  printf "%-26s %8s %8s %8s  %s\n" "Site" "Injected" "Certify" "Degrade"
    "Recorded degradations";
  let rows = ref [] and failures = ref [] in
  List.iter
    (fun site ->
      Fp_util.Fault.reset ();
      (* Some recovery paths only exist under a particular topology:
         worker crashes need concurrent candidate evaluation, hook faults
         need a hook. *)
      let config =
        match site with
        | "pool.worker_exn" -> { base with Augment.candidates = 2 }
        | "augment.hook" ->
          { base with
            Augment.inspect =
              Some
                { Augment.on_model = (fun _ -> ());
                  on_step = (fun _ _ -> ()) } }
        | _ -> base
      in
      Fp_util.Fault.arm (Fp_util.Fault.spec ~count:2 site);
      let outcome =
        match floorplan ~config nl with
        | res, pl -> Ok (res, pl)
        | exception e -> Error (Printexc.to_string e)
      in
      let injected = Fp_util.Fault.injections site in
      Fp_util.Fault.disarm site;
      match outcome with
      | Error msg ->
        failures := Printf.sprintf "%s: escaped exception %s" site msg
                    :: !failures;
        printf "%-26s %8s %8s %8s  CRASH: %s\n" site "-" "FAIL" "-" msg;
        rows :=
          Json.Obj
            [ ("engine", Json.Str "milp"); ("site", Json.Str site);
              ("ok", Json.Bool false); ("crash", Json.Str msg) ]
          :: !rows
      | Ok (res, pl) ->
        let errors, _, _ =
          Fp_check.Diagnostic.count (Fp_check.Certify.placement nl pl)
        in
        let degs = List.map snd res.Augment.degradations in
        let ok =
          errors = 0 && injected > 0 && degs <> [] && not res.Augment.interrupted
        in
        if not ok then
          failures :=
            Printf.sprintf "%s: injected=%d certify_errors=%d degradations=%d"
              site injected errors (List.length degs)
            :: !failures;
        printf "%-26s %8d %8s %8d  %s\n" site injected
          (if errors = 0 then "pass" else "FAIL")
          (List.length degs)
          (String.concat "; "
             (List.sort_uniq compare (List.map Degradation.to_string degs)));
        rows :=
          Json.Obj
            ([
              ("engine", Json.Str "milp");
              ("site", Json.Str site);
              ("injections", Json.Int injected);
              ("certified", Json.Bool (errors = 0));
              ( "degradations",
                Json.List
                  (List.map (fun d -> Json.Str (Degradation.to_string d)) degs)
              );
              ("ok", Json.Bool ok);
            ]
            @ formulation_fields config)
          :: !rows)
    (Fp_util.Fault.sites ());
  write_json "fault_matrix"
    [
      ("k", Json.Int (Netlist.num_modules nl));
      ("rows", Json.List (List.rev !rows));
    ];
  match !failures with
  | [] -> printf "\nfault matrix: all %d sites pass\n" (List.length (Fp_util.Fault.sites ()))
  | fs ->
    printf "\nfault matrix FAILURES:\n";
    List.iter (fun f -> printf "  %s\n" f) fs;
    exit Fp_core.Degradation.exit_error

(* --------------------------------------------------------------------- *)
(* Portfolio: race the three engines on ami33, per-engine JSON records    *)
(* --------------------------------------------------------------------- *)

let portfolio_bench () =
  hr "Portfolio -- engine race on ami33 (milp, sa, project)";
  printf "(every engine solves the same scenario behind the Solver\n";
  printf " interface; the winner is the lowest objective among certified\n";
  printf " plans -- deterministic for a fixed seed under Best_certified)\n\n";
  let nl = Fp_data.Ami33.netlist () in
  let engines =
    [
      Fp_engine.Milp_engine.make ~config:(base_config ()) ();
      Fp_engine.Sa_engine.make ();
      Fp_engine.Project.solver;
    ]
  in
  let scenario = { Solver.default_scenario with Solver.seed = 1990 } in
  let report = Portfolio.race ~engines ~scenario nl in
  printf "%-10s %10s %12s %10s %10s %8s\n" "Engine" "Certified" "Objective"
    "Time (s)" "Work" "Degr";
  let rows =
    List.map
      (fun (e : Portfolio.entry) ->
        let st = e.Portfolio.outcome.Solver.stats in
        printf "%-10s %10s %12.1f %10.2f %10d %8d\n" e.Portfolio.solver_name
          (if st.Solver.certified then "yes" else "no")
          st.Solver.objective st.Solver.wall_time st.Solver.work
          (List.length st.Solver.degradations);
        Json.Obj
          [
            ("engine", Json.Str st.Solver.engine);
            ("certified", Json.Bool st.Solver.certified);
            ("objective", Json.Float st.Solver.objective);
            ("time_s", Json.Float st.Solver.wall_time);
            ("work", Json.Int st.Solver.work);
            ("complete", Json.Bool st.Solver.complete);
            ("ran", Json.Bool e.Portfolio.ran);
            ( "degradations",
              Json.List
                (List.map
                   (fun (_, d) -> Json.Str (Degradation.to_string d))
                   st.Solver.degradations) );
            ( "detail",
              Json.Obj
                (List.map (fun (k, v) -> (k, Json.Float v)) st.Solver.detail)
            );
          ])
      report.Portfolio.entries
  in
  let winner_name =
    match report.Portfolio.winner with
    | Some w -> w.Portfolio.solver_name
    | None -> "none"
  in
  printf "\nwinner: %s\n" winner_name;
  write_json "portfolio"
    [
      ("instance", Json.Str "ami33");
      ("winner", Json.Str winner_name);
      ("race_time_s", Json.Float report.Portfolio.wall_time);
      ("rows", Json.List rows);
    ]

(* --------------------------------------------------------------------- *)

let () =
  let run_t1 = ref false and run_t2 = ref false and run_t3 = ref false in
  let run_figs = ref false and run_abl = ref false in
  let run_chk = ref false and run_flt = ref false in
  let run_pf = ref false and run_form = ref false in
  let any = ref false in
  let speclist =
    [
      ( "--table",
        Arg.Int
          (fun n ->
            any := true;
            match n with
            | 1 -> run_t1 := true
            | 2 -> run_t2 := true
            | 3 -> run_t3 := true
            | _ -> raise (Arg.Bad "tables are 1, 2, 3")),
        "N  regenerate table N (1, 2 or 3)" );
      ( "--figures",
        Arg.Unit (fun () -> any := true; run_figs := true),
        "  regenerate figures 5 and 6" );
      ( "--ablation",
        Arg.Unit (fun () -> any := true; run_abl := true),
        "  run design-choice ablations" );
      ( "--check",
        Arg.Unit (fun () -> any := true; run_chk := true),
        "  report lint findings + certification time per step" );
      ( "--ablation-formulation",
        Arg.Unit (fun () -> any := true; run_form := true),
        "  run only the formulation-strengthening ablation (basic/tight)" );
      ( "--portfolio",
        Arg.Unit (fun () -> any := true; run_pf := true),
        "  race the milp/sa/project engines and record per-engine rows" );
      ( "--faults",
        Arg.Unit (fun () -> any := true; run_flt := true),
        Printf.sprintf
          "  inject all %d catalogued fault sites (%s); exit 1 unless all \
           recover"
          (List.length Fp_util.Fault.builtin)
          (String.concat ", " (List.map fst Fp_util.Fault.builtin)) );
      ("--quick", Arg.Set quick, "  reduced MILP budgets (fast, lower quality)");
      ( "--json",
        Arg.Set json,
        "  also write machine-readable BENCH_<exp>.json files to --out" );
      ( "--max-k",
        Arg.Set_int max_k,
        "N  restrict Table-1 / ablation instances to K <= N (CI smoke)" );
      ( "--out",
        Arg.Set_string out_dir,
        "DIR  existing directory for the JSON and SVG outputs (default .)" );
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "floorplan benchmark harness";
  (* Checked before any experiment runs, so a typo in --out cannot throw
     away a finished run at its first write. *)
  if not (Sys.file_exists !out_dir && Sys.is_directory !out_dir) then begin
    Printf.eprintf "error: --out %s: no such directory\n" !out_dir;
    exit Degradation.exit_error
  end;
  if not !any then begin
    run_t1 := true;
    run_t2 := true;
    run_t3 := true;
    run_figs := true;
    run_abl := true;
    run_chk := true;
    run_pf := true
  end;
  if !run_t1 then table1 ();
  if !run_t2 then table2 ();
  if !run_t3 then table3 ();
  if !run_figs then figures ();
  if !run_abl then ablations ();
  if !run_form && not !run_abl then ablation_formulation ();
  if !run_flt then fault_matrix ();
  if !run_pf then portfolio_bench ();
  if !run_chk then check_overhead ();
  printf "\ndone.\n"
