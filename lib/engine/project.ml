module Rect = Fp_geometry.Rect
module Skyline = Fp_geometry.Skyline
module Tol = Fp_geometry.Tol
module Netlist = Fp_netlist.Netlist
module Module_def = Fp_netlist.Module_def
module Net = Fp_netlist.Net
module Placement = Fp_core.Placement
module Outline = Fp_core.Outline
module Warm_start = Fp_core.Warm_start
module Formulation = Fp_core.Formulation
module Degradation = Fp_core.Degradation
module Rng = Fp_util.Rng
module Abort = Fp_util.Abort

(* Separation slack left between projected pairs: comfortably above the
   certifier's tolerance so a projected-feasible state never fails on a
   hairline overlap, far below any module dimension. *)
let slack = 1e-4

(* Mutable projection state: positions move, shapes are frozen at
   construction ([ws]/[hs]/[rots] never change after [of_warm]). *)
type state = {
  xs : float array;
  ys : float array;
  ws : float array;
  hs : float array;
  rots : bool array;
}

let copy_state st =
  { st with xs = Array.copy st.xs; ys = Array.copy st.ys }

let restore ~from st =
  Array.blit from.xs 0 st.xs 0 (Array.length st.xs);
  Array.blit from.ys 0 st.ys 0 (Array.length st.ys)

(* Exact silicon height for the width the warm packing chose — secant
   linearization overestimates flexible heights, so recomputing keeps
   area conservation exact for the certifier. *)
let exact_height def ~w_env ~h_env =
  match def.Module_def.shape with
  | Module_def.Rigid _ -> h_env
  | Module_def.Flexible _ -> Module_def.height_for_width def w_env

let of_warm nl choices =
  let n = Array.length choices in
  let st =
    {
      xs = Array.make n 0.;
      ys = Array.make n 0.;
      ws = Array.make n 0.;
      hs = Array.make n 0.;
      rots = Array.make n false;
    }
  in
  for i = 0 to n - 1 do
    let c = choices.(i) in
    let env = c.Warm_start.envelope in
    st.xs.(i) <- env.Rect.x;
    st.ys.(i) <- env.Rect.y;
    st.ws.(i) <- env.Rect.w;
    st.hs.(i) <-
      exact_height (Netlist.module_at nl i) ~w_env:env.Rect.w
        ~h_env:env.Rect.h;
    st.rots.(i) <- c.Warm_start.rotated
  done;
  st

let top_of st =
  let top = ref 0. in
  Array.iteri (fun i y -> top := Float.max !top (y +. st.hs.(i))) st.ys;
  !top

let placement_of w_strip st =
  let n = Array.length st.xs in
  let pl = ref (Placement.empty ~chip_width:w_strip) in
  for i = 0 to n - 1 do
    let rect =
      Rect.make ~x:st.xs.(i) ~y:st.ys.(i) ~w:st.ws.(i) ~h:st.hs.(i)
    in
    pl :=
      Placement.add !pl
        { Placement.module_id = i; rect; envelope = rect;
          rotated = st.rots.(i) }
  done;
  !pl

(* Projection onto the die box: closed-form clamp per module.  A module
   taller than the height target is pinned to the floor. *)
let project_box st ~w_strip ~height =
  let n = Array.length st.xs in
  for i = 0 to n - 1 do
    st.xs.(i) <-
      Float.min (Float.max 0. st.xs.(i)) (Float.max 0. (w_strip -. st.ws.(i)));
    st.ys.(i) <-
      Float.min (Float.max 0. st.ys.(i)) (Float.max 0. (height -. st.hs.(i)))
  done

(* [Tol.gt v 0.] and [Tol.leq a b], spelled out: [Tol]'s predicates
   take an optional [?tol], which ocamlopt without flambda does not
   inline, so every call in the O(n^2) pair loop boxes its floats. *)
let[@inline] positive v = 0. < v -. Tol.eps
let[@inline] leq a b = a <= b +. Tol.eps

(* Overlap of the intervals [a0, a1] and [b0, b1]: negative when they
   are apart.  A plain conditional min/max is exact here: an overlap is
   acted on only when it exceeds eps, and then the sign of a zero
   operand cannot change its value. *)
let[@inline] overlap a0 a1 b0 b1 =
  (if a1 < b1 then a1 else b1) -. (if a0 < b0 then b0 else a0)

(* The pairwise non-overlap constraints, one per module pair [i < j],
   numbered (0,1), (0,2), (1,2), (0,3), ... and each packed into one
   int as [(i lsl 20) lor j].  A sweep shuffles the codes and reads
   both modules off each, and Fisher–Yates swaps do not depend on the
   array's contents: so a sweep visits the pairs in the order a
   shuffled permutation of the pair numbers gives, and the numbering
   is part of every seeded trajectory. *)
let pair_bits = 20
let pair_mask = (1 lsl pair_bits) - 1

let pairs_of n =
  if n > pair_mask then invalid_arg "Project: more than 2^20 - 1 modules";
  let codes = Array.make (n * (n - 1) / 2) 0 in
  let p = ref 0 in
  for j = 1 to n - 1 do
    for i = 0 to j - 1 do
      codes.(!p) <- (i lsl pair_bits) lor j;
      incr p
    done
  done;
  codes

(* Whether the intervals [a0, a1] and [b0, b1] overlap by more than
   eps, without a branch on the data: [positive (overlap a0 a1 b0 b1)]
   exactly.  Rounded subtraction is monotone in both operands, so the
   overlap, [min a1 b1 -. max a0 b0], is the smallest of the four
   rounded differences; [positive] is monotone too, so it holds of the
   smallest exactly when it holds of all four.  Each comparison is a
   materialised bool, and [land] combines them. *)
let[@inline] overlaps a0 a1 b0 b1 =
  let p1 = positive (a1 -. b0) and p2 = positive (b1 -. a0) in
  let p3 = positive (a1 -. a0) and p4 = positive (b1 -. b0) in
  Bool.to_int p1 land Bool.to_int p2 land Bool.to_int p3 land Bool.to_int p4

(* Projection onto one pairwise non-overlap constraint: if the two
   rectangles interpenetrate, translate both apart along the axis of
   least penetration, half each, leaving [slack] daylight.  Most pairs
   are apart, and deciding so takes no branch. *)
let project_pair st i j =
  let xi = st.xs.(i) and xj = st.xs.(j) in
  let yi = st.ys.(i) and yj = st.ys.(j) in
  let ai = xi +. st.ws.(i) and aj = xj +. st.ws.(j) in
  let bi = yi +. st.hs.(i) and bj = yj +. st.hs.(j) in
  if overlaps xi ai xj aj land overlaps yi bi yj bj <> 0 then begin
    let ox = overlap xi ai xj aj and oy = overlap yi bi yj bj in
    if leq ox oy then begin
      let d = (ox +. slack) /. 2. in
      if leq xi xj then begin
        st.xs.(i) <- xi -. d;
        st.xs.(j) <- xj +. d
      end
      else begin
        st.xs.(i) <- xi +. d;
        st.xs.(j) <- xj -. d
      end
    end
    else begin
      let d = (oy +. slack) /. 2. in
      if leq yi yj then begin
        st.ys.(i) <- yi -. d;
        st.ys.(j) <- yj +. d
      end
      else begin
        st.ys.(i) <- yi +. d;
        st.ys.(j) <- yj -. d
      end
    end
  end

(* Whether the pair with code [c] still penetrates deeper than the
   stopping depth on both axes. *)
let deep st c =
  let i = c lsr pair_bits and j = c land pair_mask in
  let xi = st.xs.(i) and xj = st.xs.(j) in
  let ox = overlap xi (xi +. st.ws.(i)) xj (xj +. st.ws.(j)) in
  if positive ox then
    let yi = st.ys.(i) and yj = st.ys.(j) in
    let oy = overlap yi (yi +. st.hs.(i)) yj (yj +. st.hs.(j)) in
    positive oy && not (leq (if ox < oy then ox else oy) 1e-9)
  else false

(* Whether any pair is still deep, in ascending pair order: stops at
   the first one. *)
let penetrated st pairs =
  let m = Array.length pairs in
  let p = ref 0 in
  while !p < m && not (deep st pairs.(!p)) do
    incr p
  done;
  !p < m

(* Superiorization: diminishing descent perturbations between
   projection rounds — gravity (pulls the packing down, the area
   objective) and net-centroid pulls (the wirelength objective). *)
let superiorize st ~alpha ~net_members ~wire_pull =
  let n = Array.length st.xs in
  for i = 0 to n - 1 do
    st.ys.(i) <- Float.max 0. (st.ys.(i) -. alpha)
  done;
  if wire_pull then
    Array.iter
      (fun members ->
        let k = Array.length members in
        if k >= 2 then begin
          let cx = ref 0. and cy = ref 0. in
          Array.iter
            (fun m ->
              cx := !cx +. st.xs.(m) +. (st.ws.(m) /. 2.);
              cy := !cy +. st.ys.(m) +. (st.hs.(m) /. 2.))
            members;
          let cx = !cx /. float_of_int k and cy = !cy /. float_of_int k in
          let step = alpha /. 2. in
          Array.iter
            (fun m ->
              let dx = cx -. (st.xs.(m) +. (st.ws.(m) /. 2.))
              and dy = cy -. (st.ys.(m) +. (st.hs.(m) /. 2.)) in
              let clamp d = Float.min step (Float.max (-.step) (0.2 *. d)) in
              st.xs.(m) <- st.xs.(m) +. clamp dx;
              st.ys.(m) <- Float.max 0. (st.ys.(m) +. clamp dy))
            members
        end)
      net_members

(* One projection phase toward [height]: alternating superiorization /
   pairwise projections / box projection for up to [sweeps] rounds,
   stopping early when the state is projected-feasible or the
   deadline/abort fires.  Returns (sweeps spent, truncated). *)
let project_phase rng st ~w_strip ~height ~sweeps ~alpha0 ~net_members
    ~wire_pull ~abort ~deadline pairs =
  let order = Array.copy pairs in
  let alpha = ref alpha0 in
  let k = ref 0 in
  let truncated = ref false in
  let stop = ref false in
  while (not !stop) && !k < sweeps do
    if Abort.is_set abort then begin
      truncated := true;
      stop := true
    end
    else if
      match deadline with
      | Some dl -> Tol.gt (Unix.gettimeofday ()) dl
      | None -> false
    then begin
      truncated := true;
      stop := true
    end
    else if !k > 0 && not (penetrated st pairs) then stop := true
    else begin
      superiorize st ~alpha:!alpha ~net_members ~wire_pull;
      Rng.shuffle rng order;
      for q = 0 to Array.length order - 1 do
        let c = order.(q) in
        project_pair st (c lsr pair_bits) (c land pair_mask)
      done;
      project_box st ~w_strip ~height;
      alpha := !alpha *. 0.93;
      incr k
    end
  done;
  (!k, !truncated)

(* Deterministic bottom-left legalization snapping the projected state
   to an exactly feasible packing: modules in ascending projected
   (y, x, id) order keep their projected x and drop onto the skyline —
   residual penetrations vanish, tops can only come down or stay.  The
   projection phase decides the {e arrangement}; this pass restores the
   {e invariants}. *)
let legalize st ~w_strip =
  let n = Array.length st.xs in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare st.ys.(a) st.ys.(b) in
      if c <> 0 then c
      else
        let c = Float.compare st.xs.(a) st.xs.(b) in
        if c <> 0 then c else Int.compare a b)
    order;
  let sky = ref (Skyline.create ~width:w_strip) in
  Array.iter
    (fun i ->
      let w = Float.min st.ws.(i) w_strip in
      let x = Float.min (Float.max 0. st.xs.(i)) (Float.max 0. (w_strip -. w)) in
      let y = Skyline.height_over !sky ~x0:x ~x1:(x +. w) in
      st.xs.(i) <- x;
      st.ys.(i) <- y;
      sky :=
        Skyline.add_rect !sky (Rect.make ~x ~y ~w ~h:st.hs.(i)))
    order

let content_width st =
  let w = ref 0. in
  Array.iteri (fun i x -> w := Float.max !w (x +. st.ws.(i))) st.xs;
  !w

(* Candidate strip widths.  A constrained outline dictates the width
   (floored at the widest module: an impossible outline still yields a
   valid plan, and the overflow is reported as [Outline_exceeded] by
   the shared epilogue).  A free outline gets an aspect sweep around
   the square die — the projections are cheap enough to just try
   several widths and keep the smallest bounding box. *)
let strip_widths outline st =
  let widest = Array.fold_left Float.max 0. st.ws in
  match Outline.width_limit outline with
  | Some w -> [ Float.max w widest ]
  | None ->
    let total = ref 0. in
    Array.iteri (fun i w -> total := !total +. (w *. st.hs.(i))) st.ws;
    let side = Float.sqrt !total in
    List.map
      (fun f -> Float.max (f *. side) widest)
      [ 1.0; 1.06; 1.12; 1.2; 1.3 ]

(* Projection sweeps per height target, shrink attempts per strip
   width, and the geometric height decay between attempts.  The warm
   packing may rotate rigid modules. *)
let sweeps_per_height = 160
let max_heights = 40
let shrink = 0.97
let allow_rotation = true

let solver =
  let solve (ctx : Solver.context) (sc : Solver.scenario) nl =
    let t0 = Unix.gettimeofday () in
    let n = Netlist.num_modules nl in
    if n = 0 then invalid_arg "Project.solve: empty instance";
    let warm_items () =
      Array.init n (fun i ->
          { Formulation.def = Netlist.module_at nl i;
            margins = (0., 0., 0., 0.) })
    in
    let pairs = pairs_of n in
    let net_members =
      Array.of_list
        (List.map
           (fun net -> Array.of_list (Net.modules net))
           (Netlist.nets nl))
    in
    let wire_pull =
      match sc.Solver.wire_weight with
      | Some w -> not (Tol.is_zero w)
      | None -> false
    in
    let sweeps_total = ref 0 in
    let truncated = ref false in
    (* Full optimization at one strip width: a guaranteed-feasible
       bottom-left warm pack (the floor the engine can never fall
       through — everything after only translates rectangles), then the
       shrink loop of projection phases.  Returns the best state, its
       top, and the warm top at this width. *)
    let run_width w_strip =
      let st =
        of_warm nl
          (Warm_start.place_group
             ~skyline:(Skyline.create ~width:w_strip)
             ~allow_rotation ~linearization:Formulation.Secant
             (warm_items ()))
      in
      let warm_top = top_of st in
      let mean_h =
        Array.fold_left ( +. ) 0. st.hs /. float_of_int (Int.max 1 n)
      in
      let alpha0 = 0.08 *. mean_h in
      let tallest = Array.fold_left Float.max 0. st.hs in
      let h_lo =
        let area = ref 0. in
        Array.iteri (fun i w -> area := !area +. (w *. st.hs.(i))) st.ws;
        Float.max (!area /. w_strip) tallest
      in
      let best = copy_state st in
      let best_top = ref warm_top in
      (* One shrink attempt: jitter the best-so-far coordinates (an
         escape hatch from the greedy pack's local minimum), project
         toward [height], legalize, and commit when the legalized top
         improves.  Anytime by construction — a truncated phase still
         legalizes whatever arrangement it reached. *)
      let attempt ~jitter height =
        restore ~from:best st;
        if Tol.gt jitter 0. then
          for i = 0 to n - 1 do
            st.xs.(i) <-
              st.xs.(i) +. Rng.range ctx.Solver.rng ~lo:(-.jitter) ~hi:jitter;
            st.ys.(i) <-
              Float.max 0.
                (st.ys.(i)
                +. Rng.range ctx.Solver.rng ~lo:(-.jitter) ~hi:jitter)
          done;
        let k, cut =
          project_phase ctx.Solver.rng st ~w_strip ~height
            ~sweeps:sweeps_per_height ~alpha0 ~net_members ~wire_pull
            ~abort:ctx.Solver.abort ~deadline:ctx.Solver.deadline pairs
        in
        sweeps_total := !sweeps_total + k;
        if cut then truncated := true;
        legalize st ~w_strip;
        let top = top_of st in
        let improved = Tol.lt top !best_top in
        if improved then begin
          Array.blit st.xs 0 best.xs 0 n;
          Array.blit st.ys 0 best.ys 0 n;
          best_top := top
        end;
        improved
      in
      (* Non-improving attempts are retried with a growing jitter before
         giving up — the projections are cheap enough that a few escape
         attempts cost less than one MILP node. *)
      let patience = 4 in
      let jitter_of misses = float_of_int misses *. 0.35 *. mean_h in
      (match Outline.height_limit sc.Solver.outline with
      | Some h ->
        (* Fixed outline: drive the top under [h]. *)
        let attempts = ref 0 and misses = ref 0 in
        let go = ref (Tol.gt !best_top h) in
        while !go do
          incr attempts;
          if attempt ~jitter:(jitter_of !misses) h then misses := 0
          else incr misses;
          go :=
            Tol.gt !best_top h && !misses < patience
            && !attempts < max_heights
            && not !truncated
        done
      | None ->
        (* Free / width-only outline: geometric height-shrink loop from
           the warm top, keeping the last height the phases reached. *)
        let attempts = ref 0 and misses = ref 0 in
        let go = ref true in
        while !go do
          incr attempts;
          let target = Float.max h_lo (!best_top *. shrink) in
          if attempt ~jitter:(jitter_of !misses) target then misses := 0
          else incr misses;
          go :=
            !misses < patience && !attempts < max_heights
            && (not !truncated)
            && Tol.gt !best_top h_lo
        done);
      (best, !best_top, warm_top)
    in
    (* Probe pack on an effectively unbounded strip to learn the frozen
       shapes feeding the width candidates. *)
    let probe =
      of_warm nl
        (Warm_start.place_group
           ~skyline:(Skyline.create ~width:1e9)
           ~allow_rotation ~linearization:Formulation.Secant (warm_items ()))
    in
    (* Run every candidate width (one for a constrained outline, the
       aspect sweep for a free one) and keep the smallest content
       bounding box.  A deadline cut stops the sweep — later widths are
       never better than a finished earlier one plus fresh budget. *)
    let chosen =
      List.fold_left
        (fun acc w_strip ->
          if !truncated then acc
          else
            let best, top, warm_top = run_width w_strip in
            let area = content_width best *. top in
            match acc with
            | Some (_, _, _, _, best_area) when Tol.leq best_area area -> acc
            | _ -> Some (w_strip, best, top, warm_top, area))
        None
        (strip_widths sc.Solver.outline probe)
    in
    let w_strip, best, best_top, warm_top =
      match chosen with
      | Some (w, b, t, wt, _) -> (w, b, t, wt)
      | None -> assert false (* strip_widths never returns [] *)
    in
    let pl = placement_of w_strip best in
    let degradations =
      if !truncated then [ (0, Degradation.Deadline_truncated) ] else []
    in
    Solver.finalize ~engine:"project" ~scenario:sc ~t0 ~work:!sweeps_total
      ~complete:(not !truncated) ~degradations
      ~detail:
        [
          ("sweeps", float_of_int !sweeps_total);
          ("warm_height", warm_top);
          ("best_height", best_top);
          ("strip_width", w_strip);
        ]
      nl (Some pl)
  in
  { Solver.name = "project"; solve }
