(* Tests for Fp_slicing: normalized Polish expressions and their moves,
   shape curves, realization, and the simulated annealer.  The
   staircase merge is checked against the all-pairs curves in
   [All_pairs_shape], and the linear M3 enumeration against swapping
   every position and validating. *)

module Rect = Fp_geometry.Rect
module Module_def = Fp_netlist.Module_def
module Netlist = Fp_netlist.Netlist
module Generator = Fp_netlist.Generator
module Polish = Fp_slicing.Polish
module Shape = Fp_slicing.Shape
module Anneal = Fp_slicing.Anneal
module Placement = Fp_core.Placement
module Rng = Fp_util.Rng

let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let expr_str e = Format.asprintf "%a" Polish.pp e

let mentions msg word =
  let n = String.length word in
  let rec at i =
    i + n <= String.length msg && (String.sub msg i n = word || at (i + 1))
  in
  at 0

(* ------------------------------ Polish ------------------------------ *)

let elements e = Array.init ((2 * Polish.num_modules e) - 1) (Polish.element e)

(* The oracle for validity: the balloting property (strictly more
   operands than operators in every prefix, one more in the whole),
   each module exactly once, and no two equal adjacent operators. *)
let valid_elements n elems =
  let seen = Array.make n false in
  let rec go i operands =
    if i >= Array.length elems then operands = 1
    else
      match elems.(i) with
      | Polish.Operand m ->
        if m < 0 || m >= n || seen.(m) then false
        else begin
          seen.(m) <- true;
          go (i + 1) (operands + 1)
        end
      | Polish.Operator o ->
        operands >= 2
        && (i = 0 || elems.(i - 1) <> Polish.Operator o)
        && go (i + 1) (operands - 1)
  in
  Array.length elems = (2 * n) - 1 && go 0 0

let valid e = valid_elements (Polish.num_modules e) (elements e)

(* Every move of an expression, in the order of its draw index. *)
let m1_moves e = List.init (Polish.num_modules e - 1) (Polish.apply_m1 e)
let m2_moves e = List.init (Polish.num_operator_chains e) (Polish.apply_m2 e)
let m3_moves e = List.init (Polish.num_m3_candidates e) (Polish.apply_m3 e)
let all_moves e = m1_moves e @ m2_moves e @ m3_moves e

(* The candidate of move [i] of [e], for pipelines. *)
let moved apply i e = (apply e i).Polish.expr

(* The expression an M3 move makes by swapping positions [p], [p + 1]. *)
let swap_at e p =
  (List.find (fun mv -> mv.Polish.lo = p) (m3_moves e)).Polish.expr

let test_initial_expression () =
  let e = Polish.of_modules 4 in
  Alcotest.(check string) "canonical" "0 1 V 2 V 3 V" (expr_str e);
  Alcotest.(check bool) "valid" true (valid e);
  Alcotest.(check int) "modules" 4 (Polish.num_modules e)

let test_single_module () =
  let e = Polish.of_modules 1 in
  Alcotest.(check string) "just the operand" "0" (expr_str e);
  Alcotest.(check bool) "valid" true (valid e);
  Alcotest.(check int) "no move" 0 (List.length (all_moves e))

let span mv = (mv.Polish.lo, mv.Polish.hi)

let test_m1_swaps_operands () =
  let e = Polish.of_modules 3 in
  let mv = Polish.apply_m1 e 0 in
  Alcotest.(check string) "swapped" "1 0 V 2 V" (expr_str mv.Polish.expr);
  Alcotest.(check (pair int int)) "span" (0, 1) (span mv);
  Alcotest.(check bool) "still valid" true (valid mv.Polish.expr);
  let last = Polish.apply_m1 e 1 in
  Alcotest.(check string) "last pair" "0 2 V 1 V" (expr_str last.Polish.expr);
  Alcotest.(check (pair int int)) "last span" (1, 3) (span last);
  Alcotest.(check bool) "one pair fewer than modules" true
    (try
       ignore (Polish.apply_m1 e 2);
       false
     with Invalid_argument _ -> true)

let test_m2_complements_chain () =
  let e = Polish.of_modules 3 in
  (* chains: the V after 1, and the V after 2. *)
  Alcotest.(check int) "two chains" 2 (Polish.num_operator_chains e);
  let mv = Polish.apply_m2 e 0 in
  Alcotest.(check string) "first chain flipped" "0 1 H 2 V"
    (expr_str mv.Polish.expr);
  Alcotest.(check (pair int int)) "span" (2, 2) (span mv);
  Alcotest.(check bool) "still valid" true (valid mv.Polish.expr);
  (* "0 1 2 V H": one chain of two operators. *)
  let e = swap_at (moved Polish.apply_m2 1 e) 2 in
  Alcotest.(check string) "long chain" "0 1 2 V H" (expr_str e);
  let mv = Polish.apply_m2 e 0 in
  Alcotest.(check string) "whole chain flipped" "0 1 2 H V"
    (expr_str mv.Polish.expr);
  Alcotest.(check (pair int int)) "chain span" (3, 4) (span mv);
  Alcotest.(check bool) "no second chain" true
    (try
       ignore (Polish.apply_m2 e 1);
       false
     with Invalid_argument _ -> true)

let test_m3_preserves_validity () =
  let e = Polish.of_modules 4 in
  List.iter
    (fun mv ->
      Alcotest.(check bool)
        (Printf.sprintf "m3 at %d valid" mv.Polish.lo)
        true (valid mv.Polish.expr))
    (m3_moves e)

let test_m3_rejects_bad_position () =
  let e = Polish.of_modules 2 in
  (* Swapping (1, V) would give "0 V 1": "0 1 V" has no M3 move. *)
  Alcotest.(check int) "no candidate" 0 (Polish.num_m3_candidates e);
  Alcotest.(check bool) "raises" true
    (try
       ignore (Polish.apply_m3 e 0);
       false
     with Invalid_argument _ -> true)

(* One random M1/M2/M3 move, drawn as the annealer draws it: [None]
   when the drawn kind has no move. *)
let random_move rng e =
  let draw count apply =
    if count = 0 then None else Some (apply e (Rng.int rng count))
  in
  match Rng.int rng 3 with
  | 0 -> draw (Polish.num_modules e - 1) Polish.apply_m1
  | 1 -> draw (Polish.num_operator_chains e) Polish.apply_m2
  | _ -> draw (Polish.num_m3_candidates e) Polish.apply_m3

(* The expression after one random move, or [e] when there is none. *)
let random_step rng e =
  match random_move rng e with Some mv -> mv.Polish.expr | None -> e

let test_random_walk_stays_valid =
  QCheck.Test.make ~name:"random move walks keep expressions valid" ~count:60
    QCheck.(pair (int_range 2 9) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let e = ref (Polish.of_modules n) in
      let ok = ref true in
      for _ = 1 to 40 do
        e := random_step rng !e;
        if not (valid !e) then ok := false
      done;
      !ok)

(* Swap every operand/operator pair and keep the results that validate,
   in ascending position. *)
let brute_force_m3 e =
  let elems = elements e in
  List.filter_map
    (fun p ->
      match (elems.(p), elems.(p + 1)) with
      | Polish.Operand _, Polish.Operator _ | Polish.Operator _, Polish.Operand _
        ->
        let swapped = Array.copy elems in
        swapped.(p) <- elems.(p + 1);
        swapped.(p + 1) <- elems.(p);
        if valid_elements (Polish.num_modules e) swapped then Some swapped
        else None
      | _ -> None)
    (List.init (Array.length elems - 1) Fun.id)

let test_m3_matches_brute_force =
  QCheck.Test.make ~name:"m3 candidates match swap-then-validate" ~count:200
    QCheck.(triple (int_range 1 14) (int_range 0 120) (int_range 0 100_000))
    (fun (n, steps, seed) ->
      let rng = Rng.create seed in
      let e = ref (Polish.of_modules n) and ok = ref true in
      for _ = 0 to steps do
        let swaps = List.map (fun mv -> elements mv.Polish.expr) in
        if swaps (m3_moves !e) <> brute_force_m3 !e then ok := false;
        e := random_step rng !e
      done;
      !ok)

(* The span [Shape.resize] once found by scanning both expressions from
   either end: the first and the last position where they differ. *)
let scanned_span a b =
  let last = (2 * Polish.num_modules a) - 2 in
  let same j = Polish.element a j = Polish.element b j in
  let rec first j = if j <= last && same j then first (j + 1) else j in
  let rec final j = if j >= 0 && same j then final (j - 1) else j in
  (first 0, final last)

let test_move_spans =
  QCheck.Test.make ~name:"every move's span is where it differs" ~count:100
    ~long_factor:100
    QCheck.(triple (int_range 1 60) (int_range 0 200) (int_range 0 1_000_000))
    (fun (n, steps, seed) ->
      let rng = Rng.create seed in
      let e = ref (Polish.of_modules n) in
      for _ = 1 to steps do
        e := random_step rng !e
      done;
      List.for_all
        (fun mv ->
          mv.Polish.source == !e
          && scanned_span !e mv.Polish.expr = span mv)
        (all_moves !e))

(* ------------------------------ Shape ------------------------------- *)

let rigid id w h = Module_def.rigid ~id ~name:(Printf.sprintf "m%d" id) ~w ~h

let leaves_of n options_of = Shape.leaves (Array.init n options_of)

let test_leaf_options_rigid () =
  Alcotest.(check int) "two orientations" 2
    (List.length (Shape.leaf_options (rigid 0 4. 2.)));
  Alcotest.(check int) "square has one" 1
    (List.length (Shape.leaf_options (rigid 0 3. 3.)))

let test_leaf_options_flexible () =
  let f =
    Module_def.flexible ~id:0 ~name:"f" ~area:16. ~min_aspect:0.25
      ~max_aspect:4.
  in
  let opts = Shape.leaf_options ~samples:5 f in
  Alcotest.(check int) "sample count" 5 (List.length opts);
  List.iter (fun (w, h) -> checkf "exact area" 16. (w *. h)) opts;
  List.iter
    (fun samples ->
      Alcotest.(check bool)
        (Printf.sprintf "samples = %d rejected" samples)
        true
        (try
           ignore (Shape.leaf_options ~samples f);
           false
         with Invalid_argument msg ->
           mentions msg "samples"))
    [ 1; 0; -3 ]

let test_shape_two_modules () =
  (* 0: 4x2, 1: 4x2; "0 1 V" side by side: best (w8, h2) or rotated
     variants; "0 1 H": stack: 4x4. *)
  let options_of m = Shape.leaf_options (rigid m 4. 2.) in
  let v = Polish.of_modules 2 in
  let sized = Shape.size v (leaves_of 2 options_of) in
  (* Best area over {8x2=16, 6x4=24(mixed), 4x4=16(both rotated)}: 16. *)
  let w0, h0 = Shape.root sized in
  checkf "best area 16" 16. (w0 *. h0)

let test_frontier_pareto () =
  let options_of m = Shape.leaf_options (rigid m (4. +. float_of_int m) 2.) in
  let sized = Shape.size (Polish.of_modules 3) (leaves_of 3 options_of) in
  let f = Shape.frontier sized in
  let rec strictly_improving = function
    | (w1, h1) :: ((w2, h2) :: _ as rest) ->
      w1 < w2 && h1 > h2 && strictly_improving rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "widths increase, heights decrease" true
    (strictly_improving f)

let test_realize_no_overlap () =
  let defs =
    [| rigid 0 4. 2.; rigid 1 3. 3.; rigid 2 2. 5.;
       Module_def.flexible ~id:3 ~name:"f" ~area:12. ~min_aspect:0.5
         ~max_aspect:2. |]
  in
  let options_of m = Shape.leaf_options defs.(m) in
  let e =
    Polish.of_modules 4 |> moved Polish.apply_m2 0 |> moved Polish.apply_m1 1
  in
  let sized = Shape.size e (leaves_of 4 options_of) in
  let rects, w, h = Shape.realize sized in
  Alcotest.(check int) "all modules" 4 (List.length rects);
  List.iteri
    (fun i (_, a, _) ->
      Alcotest.(check bool) "inside chip" true
        (a.Rect.x >= -1e-6 && a.Rect.y >= -1e-6
         && Rect.x_max a <= w +. 1e-6
         && Rect.y_max a <= h +. 1e-6);
      List.iteri
        (fun j (_, b, _) ->
          if j > i then
            Alcotest.(check bool) "no overlap" false (Rect.overlaps a b))
        rects)
    rects

let test_realize_width_limit () =
  (* Two 6x2 modules under a horizontal cut ("0 1 H"): realizations are
     the 6x4 stack or rotated variants.  Width limit 7 admits the 6x4
     stack. *)
  let options_of m = Shape.leaf_options (rigid m 6. 2.) in
  let expr = moved Polish.apply_m2 0 (Polish.of_modules 2) in
  let sized = Shape.size expr (leaves_of 2 options_of) in
  let _, w, h = Shape.realize ~width_limit:7. sized in
  Alcotest.(check bool) "fits the limit" true (w <= 7. +. 1e-6);
  checkf "stacked height" 4. h

let test_realize_area_matches_curve () =
  let options_of m = Shape.leaf_options (rigid m 5. 3.) in
  let sized = Shape.size (Polish.of_modules 3) (leaves_of 3 options_of) in
  let bw, bh = Shape.root sized in
  let _, w, h = Shape.realize sized in
  checkf "same w" bw w;
  checkf "same h" bh h;
  List.iter
    (fun (fw, _) ->
      let rw, rh = Shape.root ~width_limit:fw sized in
      let _, w, h = Shape.realize ~width_limit:fw sized in
      Alcotest.(check bool) "same root under a width limit" true
        (Float.equal rw w && Float.equal rh h))
    (Shape.frontier sized)

(* --------------------- staircase merge vs all pairs --------------------- *)

(* Module sets from six generators.  Decimal dimensions and identical
   flexible modules put widths one ulp apart on a curve, so a later V cut
   sees sums that round to the same width: the ties the merge must break
   as the all-pairs sort does. *)
let module_set kind n rng =
  let float_in lo hi = lo +. Rng.float rng (hi -. lo) in
  let tenths k = float_of_int (1 + Rng.int rng k) /. 10. in
  let flexible area aspect =
    Module_def.flexible ~id:0 ~name:"f" ~area ~min_aspect:(1. /. aspect)
      ~max_aspect:aspect
  in
  match kind with
  | 0 -> Array.init n (fun m -> rigid m (float_in 0.5 20.) (float_in 0.5 20.))
  | 1 ->
    let dim () = float_of_int (1 + Rng.int rng 4) in
    Array.init n (fun m -> rigid m (dim ()) (dim ()))
  | 2 -> Array.init n (fun m -> rigid m (tenths 6) (tenths 3))
  | 3 ->
    let f = flexible (float_of_int (2 + Rng.int rng 20)) (float_in 1.5 4.) in
    Array.make n f
  | 4 ->
    let pool =
      [| rigid 0 (tenths 30) (tenths 30);
         rigid 0 (float_in 1. 5.) (float_in 1. 5.);
         flexible (float_in 2. 12.) (float_in 1.5 3.) |]
    in
    Array.init n (fun _ -> pool.(Rng.int rng (Array.length pool)))
  | _ ->
    (* The generator needs three modules to wire its nets. *)
    let k = Int.max 3 n in
    Array.sub
      (Netlist.modules
         (Generator.generate
            { Generator.default_config with
              Generator.num_modules = k;
              total_area = 349. *. float_of_int k;
              seed = Rng.int rng 1_000_000 }))
      0 n

let same_plan (ra, wa, ha) (rb, wb, hb) =
  Float.equal wa wb && Float.equal ha hb
  && List.length ra = List.length rb
  && List.for_all2
       (fun (ma, (a : Rect.t), rot_a) (mb, (b : Rect.t), rot_b) ->
         ma = mb && rot_a = rot_b && Float.equal a.Rect.x b.Rect.x
         && Float.equal a.Rect.y b.Rect.y && Float.equal a.Rect.w b.Rect.w
         && Float.equal a.Rect.h b.Rect.h)
       ra rb

(* A sizing as the checks see it: the root frontier, and the plan
   realized under a width limit. *)
let shape_view s =
  (Shape.frontier s, fun width_limit -> Shape.realize ?width_limit s)

let all_pairs_view r =
  ( All_pairs_shape.frontier r,
    fun width_limit -> All_pairs_shape.realize ?width_limit r )

(* Equal frontiers, and equal realizations with no limit, with a limit
   nothing fits, and at every frontier width. *)
let same_sizing (f, realize) (f', realize') =
  List.length f = List.length f'
  && List.for_all2
       (fun (w, h) (w', h') -> Float.equal w w' && Float.equal h h')
       f f'
  && List.for_all
       (fun width_limit ->
         same_plan (realize width_limit) (realize' width_limit))
       (None
       :: Some (fst (List.hd f) /. 2.)
       :: List.map (fun (w, _) -> Some w) f)

let matches_all_pairs opts e =
  same_sizing
    (shape_view (Shape.size e (Shape.leaves opts)))
    (all_pairs_view (All_pairs_shape.size e (fun m -> opts.(m))))

(* Widths one ulp apart.  Modules a and b side by side are
   0.2 + 0.4 = 0.6000000000000001 wide and module c is 0.6 wide, so the
   curve of "a b V c H" holds both widths; a V cut with module d rounds
   both sums to 1.0, and the all-pairs sort keeps the pair with the
   larger indices.  The tie falls on the skipped side of the staircase
   with d on either side of the cut. *)
let test_merge_ulp_ties () =
  let a = (0.2, 0.2) and b = (0.4, 0.1) and c = (0.6, 0.1) and d = (0.4, 0.9) in
  let opts dims = Array.map (fun (w, h) -> Shape.leaf_options (rigid 0 w h)) dims in
  let d_right = moved Polish.apply_m2 1 (Polish.of_modules 4) in
  let d_left = swap_at (swap_at d_right 2) 4 in
  List.iter
    (fun (dims, e, shown) ->
      Alcotest.(check string) "expression" shown (expr_str e);
      Alcotest.(check bool) shown true (matches_all_pairs (opts dims) e))
    [ ([| a; b; c; d |], d_right, "0 1 V 2 H 3 V");
      ([| d; a; b; c |], d_left, "0 1 2 V 3 H V") ]

let test_merge_matches_all_pairs =
  QCheck.Test.make ~name:"staircase merge matches all pairs" ~count:1000
    QCheck.(triple (int_range 0 5) (int_range 2 10) (int_range 0 1_000_000))
    (fun (kind, n, seed) ->
      let rng = Rng.create seed in
      let defs = module_set kind n rng in
      let opts =
        Array.map (Shape.leaf_options ~samples:(2 + Rng.int rng 7)) defs
      in
      let e = ref (Polish.of_modules n) and ok = ref true in
      for _ = 0 to Rng.int rng 8 do
        if not (matches_all_pairs opts !e) then ok := false;
        for _ = 1 to 1 + Rng.int rng 12 do
          e := random_step rng !e
        done
      done;
      !ok)

(* A memo walked through random moves, each accepted or rejected at
   random, sizes every candidate as sizing it from scratch does, and as
   the all-pairs merge does. *)
let test_resize_matches_size =
  QCheck.Test.make ~name:"incremental sizing matches full sizing" ~count:300
    ~long_factor:30
    QCheck.(triple (int_range 0 5) (int_range 1 24) (int_range 0 1_000_000))
    (fun (kind, n, seed) ->
      let rng = Rng.create seed in
      let defs = module_set kind n rng in
      let opts =
        Array.map (Shape.leaf_options ~samples:(2 + Rng.int rng 7)) defs
      in
      let leaves = Shape.leaves opts in
      let e = ref (Polish.of_modules n) in
      let memo = Shape.memo leaves !e in
      let ok = ref true in
      for _ = 1 to 30 do
        match random_move rng !e with
        | None -> ()
        | Some mv ->
          let cand = mv.Polish.expr in
          let view = shape_view (Shape.resize memo mv) in
          let all_pairs = All_pairs_shape.size cand (fun m -> opts.(m)) in
          if
            not
              (same_sizing view (shape_view (Shape.size cand leaves))
              && same_sizing view (all_pairs_view all_pairs))
          then ok := false;
          if Rng.int rng 2 = 0 then begin
            Shape.accept memo;
            e := cand
          end
      done;
      !ok)

(* A re-sized cut that covers the span with the memo's (w, h) curve
   stops the merging: its ancestors keep the memo's curves.  Each case
   re-sizes one move and checks it against sizing from scratch:
   - modules 0 and 1 are identical, so swapping them under the cut at 2
     leaves its curve as it was, and the root takes the memo's curve
     over the candidate's children, which place 1 left of 0;
   - the cut at 4 keeps its width, 6, but not its height, 6 against 7,
     so the root is merged again;
   - the candidate's cut at 5 stacks modules 1 and 2 on the wide module
     3 with the memo's curve at 5, 2 on 3, but starts at 1 where the
     memo's starts at 3: the root's children differ, so it is merged
     again. *)
let test_resize_unchanged_curve () =
  let e4 = Polish.of_modules 4 in
  List.iter
    (fun (options, e, shown, mv) ->
      Alcotest.(check string) "expression" shown (expr_str e);
      let leaves = Shape.leaves options in
      let memo = Shape.memo leaves e in
      let mv = mv e in
      Alcotest.(check bool) shown true
        (same_sizing
           (shape_view (Shape.resize memo mv))
           (shape_view (Shape.size mv.Polish.expr leaves))))
    [ ( Array.map Shape.leaf_options
          [| rigid 0 2. 1.; rigid 1 2. 1.; rigid 2 3. 1. |],
        Polish.of_modules 3, "0 1 V 2 V", fun e -> Polish.apply_m1 e 0 );
      ( [| [ (5., 5.) ]; [ (1., 1.) ]; [ (1., 2.) ]; [ (3., 3.) ] |],
        moved Polish.apply_m2 2 (moved Polish.apply_m2 0 e4),
        "0 1 H 2 V 3 H", fun e -> Polish.apply_m1 e 1 );
      ( [| [ (1., 1.) ]; [ (1., 1.) ]; [ (1., 2.) ]; [ (5., 1.) ] |],
        swap_at (moved Polish.apply_m2 1 e4) 4, "0 1 V 2 3 H V",
        fun e -> List.find (fun mv -> mv.Polish.lo = 2) (m3_moves e) ) ]

let test_accept_needs_candidate () =
  let leaves = leaves_of 3 (fun m -> Shape.leaf_options (rigid m 2. 1.)) in
  let e = Polish.of_modules 3 in
  let memo = Shape.memo leaves e in
  let refused () =
    try
      Shape.accept memo;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "nothing sized yet" true (refused ());
  ignore (Shape.resize memo (Polish.apply_m1 e 0));
  Shape.accept memo;
  Alcotest.(check bool) "candidate already accepted" true (refused ())

(* A move carries its span against the expression it was drawn from, so
   the memo refuses one drawn from any other: here the expression its
   accepted candidate replaced, and an equal one it never held. *)
let test_resize_refuses_stale_move () =
  let leaves = leaves_of 3 (fun m -> Shape.leaf_options (rigid m 2. 1.)) in
  let e = Polish.of_modules 3 in
  let memo = Shape.memo leaves e in
  let refused mv =
    try
      ignore (Shape.resize memo mv);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "an equal expression" true
    (refused (Polish.apply_m1 (Polish.of_modules 3) 0));
  let mv = Polish.apply_m1 e 0 in
  ignore (Shape.resize memo mv);
  Shape.accept memo;
  Alcotest.(check bool) "a replaced expression" true
    (refused (Polish.apply_m1 e 1));
  Alcotest.(check bool) "the current expression" false
    (refused (Polish.apply_m1 mv.Polish.expr 1))

(* ------------------------------ Anneal ------------------------------ *)

let test_anneal_valid_and_improves () =
  let nl =
    Generator.generate
      { Generator.default_config with Generator.num_modules = 10; seed = 31 }
  in
  let pl, stats = Anneal.run nl in
  Alcotest.(check bool) "valid" true (Placement.valid pl = Ok ());
  Alcotest.(check int) "all placed" 10 (Placement.num_placed pl);
  Alcotest.(check bool) "no worse than initial" true
    (stats.Anneal.best_cost <= stats.Anneal.initial_cost +. 1e-6);
  Alcotest.(check bool) "did some work" true (stats.Anneal.iterations > 100)

let test_anneal_deterministic () =
  let nl =
    Generator.generate
      { Generator.default_config with Generator.num_modules = 8; seed = 32 }
  in
  let cfg = { Anneal.default_config with Anneal.stages = 15 } in
  let _, a = Anneal.run ~config:cfg nl in
  let _, b = Anneal.run ~config:cfg nl in
  checkf "same best cost" a.Anneal.best_cost b.Anneal.best_cost

let test_anneal_width_limit () =
  let nl =
    Generator.generate
      { Generator.default_config with Generator.num_modules = 8; seed = 33 }
  in
  let cfg =
    { Anneal.default_config with
      Anneal.outline = Fp_core.Outline.Max_width 70.; stages = 20 }
  in
  let pl, _ = Anneal.run ~config:cfg nl in
  (* Width excess is charged in the cost, so the search ends inside the
     cap. *)
  Alcotest.(check bool) "within the width cap" true
    (pl.Placement.chip_width <= 70. +. Fp_geometry.Tol.eps);
  Alcotest.(check bool) "valid" true (Placement.valid pl = Ok ())

let test_anneal_wire_weight_reduces_hpwl () =
  let nl =
    Generator.generate
      { Generator.default_config with Generator.num_modules = 10; seed = 34 }
  in
  let area_only, _ =
    Anneal.run ~config:{ Anneal.default_config with Anneal.stages = 30 } nl
  in
  let with_wire, _ =
    Anneal.run
      ~config:{ Anneal.default_config with Anneal.stages = 30; wire_weight = 2. }
      nl
  in
  (* Not a strict theorem, but with substantial weight the optimizer
     should not produce dramatically *worse* wirelength. *)
  Alcotest.(check bool) "wire-aware HPWL not much worse" true
    (Fp_core.Metrics.hpwl nl with_wire
     <= (1.15 *. Fp_core.Metrics.hpwl nl area_only) +. 1e-6)

(* flex_samples < 2 would divide 0 by 0 in the flexible leaves; the run
   rejects it before its first move. *)
let test_anneal_rejects_few_samples () =
  let nl =
    Generator.generate
      { Generator.default_config with Generator.num_modules = 6; seed = 35 }
  in
  List.iter
    (fun flex_samples ->
      Alcotest.(check bool)
        (Printf.sprintf "flex_samples = %d rejected" flex_samples)
        true
        (try
           ignore
             (Anneal.run
                ~config:{ Anneal.default_config with Anneal.flex_samples }
                nl);
           false
         with Invalid_argument msg -> mentions msg "samples"))
    [ 1; 0; -1 ]

(* Recorded trajectories: every RNG draw, accept decision and cost bit
   must replay.  ami33 runs 15 stages free (with and without the wire
   term), under a width cap (the outline penalty) and under a fixed
   outline; the 56-module instance is the largest the benchmark's
   [heuristic_large] workload plans at seed 1, generated and read back
   through the parser as the benchmark does, under the default
   schedule. *)
let test_anneal_pinned () =
  let ami33 = Fp_data.Ami33.netlist () in
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
  let ami33_at outline wire_weight =
    { Anneal.default_config with Anneal.stages = 15; outline; wire_weight }
  in
  let pin label nl cfg ~iterations ~accepted ~best_cost ~initial_cost ~digest
      =
    let pl, s = Anneal.run ~config:cfg nl in
    let name what = Printf.sprintf "%s: %s" label what in
    Alcotest.(check int) (name "iterations") iterations s.Anneal.iterations;
    Alcotest.(check int) (name "accepted") accepted s.Anneal.accepted;
    Alcotest.(check bool) (name "best cost") true
      (Float.equal best_cost s.Anneal.best_cost);
    Alcotest.(check bool) (name "initial cost") true
      (Float.equal initial_cost s.Anneal.initial_cost);
    Alcotest.(check string) (name "plan") digest (Plan_digest.hex pl)
  in
  let free = Fp_core.Outline.Free in
  pin "ami33" ami33 (ami33_at free 0.) ~iterations:2970 ~accepted:2154
    ~best_cost:0x1.c49aa76f3d8ccp+13 ~initial_cost:0x1.e6ca6c3e3bae8p+13
    ~digest:"c22058322cd071e1dac7907acdb80800";
  pin "ami33, wire_weight 2" ami33 (ami33_at free 2.) ~iterations:2970
    ~accepted:2169 ~best_cost:0x1.59a47bae9dd39p+15
    ~initial_cost:0x1.d926cab6bcad4p+15
    ~digest:"2cc56f011d13ec9b8a3d134746b3b6a9";
  pin "ami33, max width 110" ami33
    (ami33_at (Fp_core.Outline.Max_width 110.) 0.)
    ~iterations:2970 ~accepted:2440 ~best_cost:0x1.155fae6446e9ep+14
    ~initial_cost:0x1.f95d074dca9a2p+15
    ~digest:"068439a37e6a1bb412808a7c56378801";
  pin "ami33, fixed 140 x 130" ami33
    (ami33_at (Fp_core.Outline.Fixed { w = 140.; h = 130. }) 0.)
    ~iterations:2970 ~accepted:1459 ~best_cost:0x1.ffc6ef372fe95p+13
    ~initial_cost:0x1.9f97f15ca462ap+17
    ~digest:"dcfd1bf842781ba468037f8792c1bf18";
  pin "56 modules, parsed" k56 Anneal.default_config ~iterations:20160
    ~accepted:8685 ~best_cost:0x1.5f0740b58c25p+14
    ~initial_cost:0x1.b695d72bf1b24p+14
    ~digest:"df04bdd9020447e0bb8914b12f67fc0d"

let test_anneal_single_module () =
  let nl = Netlist.create ~name:"one" [ rigid 0 4. 2. ] [] in
  let pl, _ = Anneal.run nl in
  checkf "area" 8. (Placement.chip_area pl)

let () =
  Alcotest.run "fp_slicing"
    [
      ( "polish",
        [
          Alcotest.test_case "initial" `Quick test_initial_expression;
          Alcotest.test_case "single module" `Quick test_single_module;
          Alcotest.test_case "m1" `Quick test_m1_swaps_operands;
          Alcotest.test_case "m2" `Quick test_m2_complements_chain;
          Alcotest.test_case "m3 validity" `Quick test_m3_preserves_validity;
          Alcotest.test_case "m3 rejects" `Quick test_m3_rejects_bad_position;
          QCheck_alcotest.to_alcotest test_random_walk_stays_valid;
          QCheck_alcotest.to_alcotest test_m3_matches_brute_force;
          QCheck_alcotest.to_alcotest test_move_spans;
        ] );
      ( "shape",
        [
          Alcotest.test_case "rigid options" `Quick test_leaf_options_rigid;
          Alcotest.test_case "flexible options" `Quick test_leaf_options_flexible;
          Alcotest.test_case "two modules" `Quick test_shape_two_modules;
          Alcotest.test_case "pareto frontier" `Quick test_frontier_pareto;
          Alcotest.test_case "realize no overlap" `Quick test_realize_no_overlap;
          Alcotest.test_case "width limit" `Quick test_realize_width_limit;
          Alcotest.test_case "realize matches curve" `Quick
            test_realize_area_matches_curve;
          Alcotest.test_case "merge breaks ulp ties" `Quick test_merge_ulp_ties;
          QCheck_alcotest.to_alcotest test_merge_matches_all_pairs;
          QCheck_alcotest.to_alcotest test_resize_matches_size;
          Alcotest.test_case "resize stops at an unchanged curve" `Quick
            test_resize_unchanged_curve;
          Alcotest.test_case "accept needs a candidate" `Quick
            test_accept_needs_candidate;
          Alcotest.test_case "resize refuses a stale move" `Quick
            test_resize_refuses_stale_move;
        ] );
      ( "anneal",
        [
          Alcotest.test_case "valid and improves" `Quick
            test_anneal_valid_and_improves;
          Alcotest.test_case "deterministic" `Quick test_anneal_deterministic;
          Alcotest.test_case "width limit" `Quick test_anneal_width_limit;
          Alcotest.test_case "wire weight" `Quick
            test_anneal_wire_weight_reduces_hpwl;
          Alcotest.test_case "single module" `Quick test_anneal_single_module;
          Alcotest.test_case "rejects few flex samples" `Quick
            test_anneal_rejects_few_samples;
          Alcotest.test_case "pinned trajectories" `Quick test_anneal_pinned;
        ] );
    ]
