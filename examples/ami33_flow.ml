(* The complete paper pipeline on the ami33 benchmark:

     floorplan (successive augmentation, Figure 3 steps 1-11)
       -> adjust (compaction + known-topology LP, step 13)
       -> global routing (step 12)
       -> channel-width adjustment and final chip area

     dune exec examples/ami33_flow.exe

   Writes ami33.svg and ami33_routed.svg to the current directory. *)

module Netlist = Fp_netlist.Netlist
module BB = Fp_milp.Branch_bound
open Fp_core

let pitch = 0.35

let () =
  let nl = Fp_data.Ami33.netlist () in
  Format.printf "%a@.@." Netlist.pp_summary nl;

  (* 1. Successive augmentation with routing envelopes (around-the-cell
     technology, as in the paper's Series 3). *)
  let config =
    {
      Augment.default_config with
      Augment.envelope =
        Some { Augment.pitch_h = pitch; pitch_v = pitch; share = 0.5 };
    }
  in
  let t0 = Unix.gettimeofday () in
  let result = Augment.run ~config nl in
  Printf.printf "augmentation: %.1f s, %d steps, height %.1f\n"
    result.Augment.total_time
    (List.length result.Augment.steps)
    result.Augment.placement.Placement.height;

  (* 2. Floorplan adjustment: compaction, then the zero-integer-variable
     topology LP of section 2.5. *)
  let pl = Compact.vertical result.Augment.placement in
  let pl, tstats = Topology.optimize nl pl in
  Printf.printf "topology LP : %d vars, %d rows, %d integer vars -> height %.1f\n"
    tstats.Topology.num_vars tstats.Topology.num_constraints
    tstats.Topology.num_integer_vars pl.Placement.height;

  Printf.printf "chip        : %.1f x %.1f, utilization %.1f%%\n"
    pl.Placement.chip_width pl.Placement.height
    (100. *. Metrics.utilization nl pl);

  Fp_viz.Svg.save "ami33.svg" (Fp_viz.Svg.of_placement ~netlist:nl pl);

  (* 3. Global routing: critical nets first, congestion-weighted paths. *)
  let rt =
    Fp_route.Global_router.route
      ~algorithm:(Fp_route.Global_router.Weighted { penalty = 3. })
      ~pitch_h:pitch ~pitch_v:pitch nl pl
  in
  Format.printf "routing     : %a@."
    (fun ppf g -> Fp_route.Channel_graph.pp_stats ppf g)
    rt.Fp_route.Global_router.graph;
  Printf.printf "              wirelength %.1f, overflow %.0f, failed %d\n"
    rt.Fp_route.Global_router.total_wirelength
    rt.Fp_route.Global_router.overflow_total rt.Fp_route.Global_router.num_failed;

  (* 4. Channel-width adjustment and the final area figure. *)
  let rep = Fp_route.Adjust.compute rt ~pitch_h:pitch ~pitch_v:pitch in
  Format.printf "adjusted    : %a@." Fp_route.Adjust.pp rep;

  Fp_viz.Svg.save "ami33_routed.svg" (Fp_viz.Svg.of_routed ~netlist:nl pl rt);
  Printf.printf "wrote ami33.svg and ami33_routed.svg (total %.1f s)\n"
    (Unix.gettimeofday () -. t0)
