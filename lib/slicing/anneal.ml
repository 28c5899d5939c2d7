module Rng = Fp_util.Rng
module Netlist = Fp_netlist.Netlist
module Rect = Fp_geometry.Rect
module Tol = Fp_geometry.Tol
module Placement = Fp_core.Placement
module Metrics = Fp_core.Metrics
module Outline = Fp_core.Outline

type config = {
  seed : int;
  cooling : float;
  moves_per_stage : int;
  stages : int;
  wire_weight : float;
  outline : Outline.t;
  time_limit : float option;
  flex_samples : int;
}

let default_config =
  {
    seed = 1990;
    cooling = 0.88;
    moves_per_stage = 24;
    stages = 60;
    wire_weight = 0.;
    outline = Outline.Free;
    time_limit = None;
    flex_samples = 6;
  }

type stats = {
  iterations : int;
  accepted : int;
  best_cost : float;
  initial_cost : float;
  elapsed : float;
  truncated : bool;
}

let placement_of ?width_limit sized =
  let rects, w, _ = Shape.realize ?width_limit sized in
  List.fold_left
    (fun acc (m, rect, rotated) ->
      Placement.add acc
        { Placement.module_id = m; rect; envelope = rect; rotated })
    (Placement.empty ~chip_width:w)
    rects

(* The chip comes from the root curve; a placement is built only for
   the wirelength term. *)
let cost_of nl cfg sized =
  let width_limit = Outline.width_limit cfg.outline in
  let w, h = Shape.root ?width_limit sized in
  let wire =
    if Tol.is_zero cfg.wire_weight then 0.
    else Metrics.hpwl nl (placement_of ?width_limit sized)
  in
  (* Steep area-units penalties driving the chip inside the outline: a
     unit of excess costs several times the area of a full outline row
     (or column).  Realization picks the lowest root within the width
     cap, but falls back to the minimum-area root when none fits, so
     width excess is charged too. *)
  let outline_penalty =
    match cfg.outline with
    | Outline.Free -> 0.
    | Outline.Max_width w_max -> 4. *. h *. Float.max 0. (w -. w_max)
    | Outline.Fixed { w = w_max; h = h_max } ->
      (4. *. w_max *. Float.max 0. (h -. h_max))
      +. (4. *. h_max *. Float.max 0. (w -. w_max))
  in
  (w *. h) +. (cfg.wire_weight *. wire) +. outline_penalty

(* One random neighbour; returns None when the drawn move has no
   candidates (e.g. M3 on a tiny expression). *)
let neighbour rng expr =
  match Rng.int rng 3 with
  | 0 ->
    let pairs = Polish.num_modules expr - 1 in
    if pairs = 0 then None else Some (Polish.apply_m1 expr (Rng.int rng pairs))
  | 1 ->
    let chains = Polish.num_operator_chains expr in
    if chains = 0 then None
    else Some (Polish.apply_m2 expr (Rng.int rng chains))
  | _ ->
    let swaps = Polish.num_m3_candidates expr in
    if swaps = 0 then None else Some (Polish.apply_m3 expr (Rng.int rng swaps))

exception Truncated

let run ?(config = default_config) ?abort nl =
  let n = Netlist.num_modules nl in
  if n = 0 then invalid_arg "Anneal.run: empty instance";
  let t0 = Unix.gettimeofday () in
  let leaves =
    Shape.leaves
      (Array.init n (fun m ->
           Shape.leaf_options ~samples:config.flex_samples
             (Netlist.module_at nl m)))
  in
  let cost_of = cost_of nl config in
  let deadline = Option.map (fun l -> t0 +. l) config.time_limit in
  let truncated = ref false in
  let truncate () =
    truncated := true;
    raise Truncated
  in
  let rng = Rng.create config.seed in
  let expr = ref (Polish.of_modules n) in
  (* A move re-sizes only the cuts above the elements it changed. *)
  let memo = Shape.memo leaves !expr in
  let cost = ref (cost_of (Shape.current memo)) in
  let initial_cost = !cost in
  let best_expr = ref !expr and best_cost = ref !cost in
  let iterations = ref 0 and accepted = ref 0 in
  (* Initial temperature from the spread of a random-walk sample. *)
  let temp =
    let deltas = ref [] in
    let probe = ref !expr and pc = ref !cost in
    let probe_memo = Shape.memo leaves !probe in
    for _ = 1 to 30 do
      match neighbour rng !probe with
      | None -> ()
      | Some mv ->
        let c = cost_of (Shape.resize probe_memo mv) in
        Shape.accept probe_memo;
        deltas := Float.abs (c -. !pc) :: !deltas;
        probe := mv.Polish.expr;
        pc := c
    done;
    match !deltas with
    | [] -> 1.
    | ds -> Float.max 1e-3 (Fp_util.Stats.mean ds *. 1.5)
  in
  let temp = ref temp in
  let moves = config.moves_per_stage * Int.max 4 n / 4 in
  (* Truncation checks consume no randomness, so runs without a deadline
     or abort signal walk exactly the same RNG stream as before the
     knobs existed. *)
  (try
     for _stage = 1 to config.stages do
       (match deadline with
       | Some dl when Tol.gt (Unix.gettimeofday ()) dl -> truncate ()
       | Some _ | None -> ());
       for _ = 1 to moves do
         (match abort with
         | Some a when Fp_util.Abort.is_set a -> truncate ()
         | Some _ | None -> ());
         incr iterations;
         match neighbour rng !expr with
         | None -> ()
         | Some mv ->
           let c = cost_of (Shape.resize memo mv) in
           let delta = c -. !cost in
           let accept =
             delta <= 0.
             || Rng.float rng 1. < Float.exp (-.delta /. Float.max 1e-9 !temp)
           in
           if accept then begin
             Shape.accept memo;
             incr accepted;
             expr := mv.Polish.expr;
             cost := c;
             if c < !best_cost then begin
               best_cost := c;
               best_expr := mv.Polish.expr
             end
           end
       done;
       temp := !temp *. config.cooling
     done
   with Truncated -> ());
  let pl =
    placement_of
      ?width_limit:(Outline.width_limit config.outline)
      (Shape.size !best_expr leaves)
  in
  ( pl,
    {
      iterations = !iterations;
      accepted = !accepted;
      best_cost = !best_cost;
      initial_cost;
      elapsed = Unix.gettimeofday () -. t0;
      truncated = !truncated;
    } )
