(* End-to-end integration tests: the full pipeline (floorplan -> adjust ->
   topology LP -> route -> channel-width adjustment -> render) on small
   instances, cross-library invariants, and whole-flow determinism. *)

module Netlist = Fp_netlist.Netlist
module Generator = Fp_netlist.Generator
module Parser = Fp_netlist.Parser
module BB = Fp_milp.Branch_bound
module GR = Fp_route.Global_router
open Fp_core

let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let small_cfg =
  {
    Augment.default_config with
    Augment.group_size = 3;
    milp = { Augment.default_config.Augment.milp with BB.node_limit = 400 };
  }

let pipeline ?(config = small_cfg) nl =
  let res = Augment.run ~config nl in
  let pl = Compact.vertical res.Augment.placement in
  let pl, _ = Topology.optimize nl pl in
  let rt = GR.route ~algorithm:(GR.Weighted { penalty = 3. }) nl pl in
  let rep = Fp_route.Adjust.compute rt ~pitch_h:1. ~pitch_v:1. in
  (pl, rt, rep)

let instance ?(k = 7) seed =
  Generator.generate
    { Generator.default_config with Generator.num_modules = k; seed }

let test_full_pipeline_runs () =
  let nl = instance 51 in
  let pl, rt, rep = pipeline nl in
  Alcotest.(check bool) "placement valid" true (Placement.valid pl = Ok ());
  Alcotest.(check int) "all routed" 0 rt.GR.num_failed;
  Alcotest.(check bool) "final area >= base area" true
    (rep.Fp_route.Adjust.final_area
     >= (rep.Fp_route.Adjust.base_width *. rep.Fp_route.Adjust.base_height)
        -. 1e-6);
  (* Renderers accept the result. *)
  Alcotest.(check bool) "ascii renders" true
    (String.length (Fp_viz.Ascii.render pl) > 0);
  Alcotest.(check bool) "svg renders" true
    (String.length (Fp_viz.Svg.of_routed ~netlist:nl pl rt) > 0)

let test_full_pipeline_deterministic () =
  let nl = instance 52 in
  let _, rt1, rep1 = pipeline nl in
  let _, rt2, rep2 = pipeline nl in
  checkf "same wirelength" rt1.GR.total_wirelength rt2.GR.total_wirelength;
  checkf "same final area" rep1.Fp_route.Adjust.final_area
    rep2.Fp_route.Adjust.final_area

let test_envelopes_reduce_final_area () =
  (* The Table-3 claim on a small instance: with envelopes the
     post-routing growth is smaller. *)
  let nl = instance ~k:8 53 in
  let _, _, rep_plain = pipeline nl in
  let config =
    { small_cfg with
      Augment.envelope = Some { Augment.pitch_h = 1.; pitch_v = 1.; share = 0.5 } }
  in
  let _, _, rep_env = pipeline ~config nl in
  let growth r =
    r.Fp_route.Adjust.final_area
    /. (r.Fp_route.Adjust.base_width *. r.Fp_route.Adjust.base_height)
  in
  Alcotest.(check bool) "envelope growth factor smaller" true
    (growth rep_env <= growth rep_plain +. 1e-6)

let test_milp_and_slicing_agree_on_instance () =
  (* Two very different floorplanners, one instance: both must produce
     complete valid floorplans whose areas are within a sane factor. *)
  let nl = instance ~k:9 54 in
  let res = Augment.run ~config:small_cfg nl in
  let milp_pl = res.Augment.placement in
  let sa_pl, _ = Fp_slicing.Anneal.run nl in
  Alcotest.(check bool) "milp valid" true (Placement.valid milp_pl = Ok ());
  Alcotest.(check bool) "sa valid" true (Placement.valid sa_pl = Ok ());
  let area pl = Placement.chip_area pl in
  Alcotest.(check bool) "areas within 3x of each other" true
    (area milp_pl /. area sa_pl < 3. && area sa_pl /. area milp_pl < 3.)

let test_instance_file_roundtrip_through_pipeline () =
  (* Write an instance to disk, read it back, floorplan it: identical
     result to floorplanning the original. *)
  let nl = instance 55 in
  let path = Filename.temp_file "fp_int" ".fp" in
  Parser.to_file path nl;
  let nl2 =
    match Parser.of_file path with
    | Ok n -> n
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  let h1 = (Augment.run ~config:small_cfg nl).Augment.placement.Placement.height in
  let h2 = (Augment.run ~config:small_cfg nl2).Augment.placement.Placement.height in
  checkf "same height from file" h1 h2

let test_critical_net_bound_respected_end_to_end () =
  (* A one-group instance where the bound is clearly feasible: the MILP
     step that places the whole chip must honour it.  (Across groups the
     bound is best-effort: an infeasible step falls back to the warm
     start — see Augment.critical_net_bound docs.) *)
  let mods =
    [ Fp_netlist.Module_def.rigid ~id:0 ~name:"a" ~w:4. ~h:4.;
      Fp_netlist.Module_def.rigid ~id:1 ~name:"b" ~w:4. ~h:4.;
      Fp_netlist.Module_def.rigid ~id:2 ~name:"c" ~w:4. ~h:4. ]
  in
  let pin m s = { Fp_netlist.Net.module_id = m; side = s } in
  let victim =
    Fp_netlist.Net.make ~name:"crit" ~criticality:0.9
      [ pin 0 Fp_netlist.Net.Right; pin 2 Fp_netlist.Net.Left ]
  in
  let nl = Netlist.create ~name:"bounded" mods [ victim ] in
  let bound = 2. in
  let config =
    { small_cfg with
      Augment.group_size = 3;
      chip_width = Some 12.;
      compact_each_step = false;
      critical_net_bound = Some (fun _ -> Some bound);
      milp =
        { small_cfg.Augment.milp with BB.node_limit = 3000 } }
  in
  let res = Augment.run ~config nl in
  let pl = res.Augment.placement in
  Alcotest.(check bool) "valid" true (Placement.valid pl = Ok ());
  match Metrics.net_hpwl nl pl victim with
  | Some l ->
    Alcotest.(check bool)
      (Printf.sprintf "victim net short (%.1f vs bound %.1f)" l bound)
      true
      (l <= bound +. 1e-5)
  | None -> Alcotest.fail "victim net unplaced"

let test_route_tree_connectivity () =
  (* Every routed net's edges form a connected subgraph touching every
     pin node (checked with union-find). *)
  let nl = instance ~k:6 58 in
  let pl, rt, _ = pipeline nl in
  let graph = rt.GR.graph in
  List.iter
    (fun r ->
      let parent = Hashtbl.create 16 in
      let rec find x =
        match Hashtbl.find_opt parent x with
        | Some p when p <> x ->
          let root = find p in
          Hashtbl.replace parent x root;
          root
        | Some _ -> x
        | None ->
          Hashtbl.replace parent x x;
          x
      in
      let union a b = Hashtbl.replace parent (find a) (find b) in
      List.iter
        (fun ei ->
          let e = Fp_route.Channel_graph.edge_at graph ei in
          union e.Fp_route.Channel_graph.a e.Fp_route.Channel_graph.b)
        r.GR.edges;
      let pins =
        List.filter_map
          (fun p ->
            Option.map
              (fun placed ->
                Fp_route.Channel_graph.pin_node graph placed
                  p.Fp_netlist.Net.side)
              (Placement.find pl p.Fp_netlist.Net.module_id))
          r.GR.net.Fp_netlist.Net.pins
        |> List.sort_uniq compare
      in
      match pins with
      | [] | [ _ ] -> ()
      | first :: rest ->
        List.iter
          (fun p ->
            Alcotest.(check bool)
              (Printf.sprintf "net %s connected" r.GR.net.Fp_netlist.Net.name)
              true
              (find p = find first))
          rest)
    rt.GR.routed

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "full pipeline" `Quick test_full_pipeline_runs;
          Alcotest.test_case "deterministic" `Quick
            test_full_pipeline_deterministic;
          Alcotest.test_case "envelopes reduce growth" `Quick
            test_envelopes_reduce_final_area;
          Alcotest.test_case "milp vs slicing sanity" `Quick
            test_milp_and_slicing_agree_on_instance;
          Alcotest.test_case "file roundtrip" `Quick
            test_instance_file_roundtrip_through_pipeline;
          Alcotest.test_case "critical net bound" `Quick
            test_critical_net_bound_respected_end_to_end;
          Alcotest.test_case "route tree connectivity" `Quick
            test_route_tree_connectivity;
        ] );
    ]
