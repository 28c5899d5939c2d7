module Rng = Fp_util.Rng

type config = {
  num_modules : int;
  flexible_fraction : float;
  total_area : float;
  nets_per_module : float;
  max_net_degree : int;
  critical_fraction : float;
  seed : int;
}

let default_config =
  {
    num_modules = 20;
    flexible_fraction = 0.25;
    total_area = 10_000.;
    nets_per_module = 3.5;
    max_net_degree = 5;
    critical_fraction = 0.1;
    seed = 1;
  }

(* Raw module areas follow a log-uniform spread over one decade, then get
   scaled so they sum exactly to [total_area]. *)
let generate cfg =
  if cfg.num_modules < 2 then
    invalid_arg "Generator.generate: need at least two modules";
  let rng = Rng.create cfg.seed in
  let k = cfg.num_modules in
  let raw = Array.init k (fun _ -> Float.exp (Rng.range rng ~lo:0. ~hi:2.3)) in
  let raw_sum = Array.fold_left ( +. ) 0. raw in
  let areas = Array.map (fun a -> a /. raw_sum *. cfg.total_area) raw in
  let num_flex =
    int_of_float (Float.round (cfg.flexible_fraction *. float_of_int k))
  in
  (* Shuffle the module indices; the first [num_flex] of the original
     order are the flexible ones. *)
  let perm = Array.init k Fun.id in
  Rng.shuffle rng perm;
  let mods =
    List.init k (fun i ->
        let name = Printf.sprintf "m%02d" i in
        if perm.(i) < num_flex then
          (* Aspect window around square, e.g. [0.4, 2.5]. *)
          let lo = Rng.range rng ~lo:0.3 ~hi:0.6 in
          let hi = Rng.range rng ~lo:1.8 ~hi:3.0 in
          Module_def.flexible ~id:i ~name ~area:areas.(i) ~min_aspect:lo
            ~max_aspect:hi
        else begin
          (* Rigid: pick an aspect ratio, snap dims to a 1-unit grid so the
             MILP subproblems have friendly numbers. *)
          let aspect = Rng.range rng ~lo:0.4 ~hi:2.5 in
          let w = Float.max 1. (Float.round (Float.sqrt (areas.(i) *. aspect))) in
          let h = Float.max 1. (Float.round (areas.(i) /. w)) in
          Module_def.rigid ~id:i ~name ~w ~h
        end)
  in
  let num_nets =
    int_of_float (Float.round (cfg.nets_per_module *. float_of_int k))
  in
  let random_side () =
    match Rng.int rng 4 with
    | 0 -> Net.Left
    | 1 -> Net.Right
    | 2 -> Net.Bottom
    | _ -> Net.Top
  in
  let nets =
    List.init num_nets (fun n ->
        let degree = 2 + Rng.int rng (Int.max 1 (cfg.max_net_degree - 1)) in
        (* Locality: pick an anchor module, then neighbors within a window
           of ids, so connectivity clusters. *)
        let anchor = Rng.int rng k in
        let window = Int.max 3 (k / 4) in
        let members = Hashtbl.create degree in
        Hashtbl.replace members anchor ();
        let attempts = ref 0 in
        while Hashtbl.length members < degree && !attempts < 50 do
          incr attempts;
          let off = Rng.int rng (2 * window) - window in
          (* [off] can be below [-k] when the window exceeds k (k = 2),
             so take the non-negative remainder. *)
          let m = (anchor + off) mod k in
          let m = if m < 0 then m + k else m in
          Hashtbl.replace members m ()
        done;
        let pins =
          Hashtbl.fold (fun m () acc -> m :: acc) members []
          |> List.sort compare
          |> List.map (fun m -> { Net.module_id = m; side = random_side () })
        in
        let criticality =
          if Rng.float rng 1. < cfg.critical_fraction then
            Rng.range rng ~lo:0.5 ~hi:1.
          else 0.
        in
        Net.make ~criticality ~name:(Printf.sprintf "n%03d" n) pins)
  in
  (* Hashtbl iteration order would leak into pin order; we sorted by module
     id above so the instance is deterministic. *)
  Netlist.create
    ~name:(Printf.sprintf "rand%d_s%d" k cfg.seed)
    mods nets
