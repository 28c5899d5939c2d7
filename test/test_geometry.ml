(* Tests for Fp_geometry: intervals, rectangles, skylines, and the
   covering-rectangle decomposition (Theorems 1 and 2 of the paper). *)

module Tol = Fp_geometry.Tol
module Point = Fp_geometry.Point
module Interval = Fp_geometry.Interval
module Rect = Fp_geometry.Rect
module Skyline = Fp_geometry.Skyline
module Covering = Fp_geometry.Covering

let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg
let checkb msg = Alcotest.(check bool) msg
let rect x y w h = Rect.make ~x ~y ~w ~h

(* ----------------------------- Interval ---------------------------- *)

let test_interval_basic () =
  let i = Interval.make 1. 4. in
  checkf "length" 3. (Interval.length i);
  checkf "mid" 2.5 (Interval.mid i);
  checkb "contains endpoint" true (Interval.contains i 4.);
  checkb "not contains" false (Interval.contains i 4.5)

let test_interval_invalid () =
  Alcotest.check_raises "reversed"
    (Invalid_argument "Interval.make: hi (1) < lo (2)") (fun () ->
      ignore (Interval.make 2. 1.))

let test_interval_overlap_vs_touch () =
  let a = Interval.make 0. 2. and b = Interval.make 2. 4. in
  checkb "abutting intervals do not overlap" false (Interval.overlaps a b);
  checkb "abutting intervals touch" true (Interval.touches a b);
  let c = Interval.make 1. 3. in
  checkb "proper overlap" true (Interval.overlaps a c)

let test_interval_intersect_hull () =
  let a = Interval.make 0. 3. and b = Interval.make 2. 5. in
  (match Interval.intersect a b with
  | Some i ->
    checkf "intersect lo" 2. i.Interval.lo;
    checkf "intersect hi" 3. i.Interval.hi
  | None -> Alcotest.fail "expected intersection");
  let h = Interval.hull a b in
  checkf "hull lo" 0. h.Interval.lo;
  checkf "hull hi" 5. h.Interval.hi;
  checkb "disjoint intersect" true
    (Interval.intersect (Interval.make 0. 1.) (Interval.make 2. 3.) = None)

(* ------------------------------ Rect ------------------------------- *)

let test_rect_basic () =
  let r = rect 1. 2. 3. 4. in
  checkf "area" 12. (Rect.area r);
  checkf "x_max" 4. (Rect.x_max r);
  checkf "y_max" 6. (Rect.y_max r);
  let c = Rect.center r in
  checkf "cx" 2.5 c.Point.x;
  checkf "cy" 4. c.Point.y

let test_rect_negative () =
  Alcotest.check_raises "negative width"
    (Invalid_argument "Rect.make: negative extent w=-1 h=2") (fun () ->
      ignore (rect 0. 0. (-1.) 2.))

let test_rect_overlap () =
  let a = rect 0. 0. 2. 2. and b = rect 2. 0. 2. 2. in
  checkb "abutting rects do not overlap" false (Rect.overlaps a b);
  checkb "shifted overlap" true (Rect.overlaps a (rect 1. 1. 2. 2.));
  checkf "overlap area" 1. (Rect.overlap_area a (rect 1. 1. 2. 2.));
  checkf "no overlap area" 0. (Rect.overlap_area a b)

let test_rect_rotate () =
  let r = Rect.rotate90 (rect 1. 1. 4. 2.) in
  checkf "rotated w" 2. r.Rect.w;
  checkf "rotated h" 4. r.Rect.h;
  checkf "anchor x" 1. r.Rect.x

let test_rect_inflate () =
  let r = Rect.inflate ~left:1. ~right:2. ~bottom:3. ~top:4. (rect 5. 5. 2. 2.) in
  checkf "x" 4. r.Rect.x;
  checkf "y" 2. r.Rect.y;
  checkf "w" 5. r.Rect.w;
  checkf "h" 9. r.Rect.h

let test_rect_contains () =
  let outer = rect 0. 0. 10. 10. in
  checkb "inside" true (Rect.contains_rect ~outer ~inner:(rect 1. 1. 2. 2.));
  checkb "same" true (Rect.contains_rect ~outer ~inner:outer);
  checkb "outside" false (Rect.contains_rect ~outer ~inner:(rect 9. 9. 2. 2.))

let test_rect_union_area_disjoint () =
  checkf "disjoint union" 8.
    (Rect.union_area [ rect 0. 0. 2. 2.; rect 5. 5. 2. 2. ])

let test_rect_union_area_nested () =
  checkf "nested union" 100.
    (Rect.union_area [ rect 0. 0. 10. 10.; rect 2. 2. 3. 3. ])

let test_rect_union_area_overlap () =
  (* Two 2x2 squares overlapping in a 1x1 corner: 4 + 4 - 1. *)
  checkf "overlapping union" 7.
    (Rect.union_area [ rect 0. 0. 2. 2.; rect 1. 1. 2. 2. ])

let test_rect_side_midpoints () =
  let r = rect 0. 0. 4. 2. in
  checkb "left" true
    (Point.equal (Rect.side_midpoint r `Left) (Point.make 0. 1.));
  checkb "right" true
    (Point.equal (Rect.side_midpoint r `Right) (Point.make 4. 1.));
  checkb "bottom" true
    (Point.equal (Rect.side_midpoint r `Bottom) (Point.make 2. 0.));
  checkb "top" true
    (Point.equal (Rect.side_midpoint r `Top) (Point.make 2. 2.))

let test_bounding_box () =
  match Rect.bounding_box [ rect 1. 1. 2. 2.; rect 4. 0. 1. 5. ] with
  | Some bb ->
    checkf "bb x" 1. bb.Rect.x;
    checkf "bb y" 0. bb.Rect.y;
    checkf "bb w" 4. bb.Rect.w;
    checkf "bb h" 5. bb.Rect.h
  | None -> Alcotest.fail "expected bounding box"

(* A generator of small positive rectangles on an integer-ish grid. *)
let rect_gen =
  QCheck.Gen.(
    map
      (fun (x, y, w, h) ->
        rect (float_of_int x) (float_of_int y)
          (float_of_int (w + 1))
          (float_of_int (h + 1)))
      (quad (int_bound 20) (int_bound 20) (int_bound 8) (int_bound 8)))

let rects_arb = QCheck.make QCheck.Gen.(list_size (int_range 1 10) rect_gen)

let test_union_area_le_sum =
  QCheck.Test.make ~name:"union area <= sum of areas" ~count:300 rects_arb
    (fun rs ->
      Rect.union_area rs
      <= List.fold_left (fun a r -> a +. Rect.area r) 0. rs +. 1e-6)

let test_union_area_ge_max =
  QCheck.Test.make ~name:"union area >= max area" ~count:300 rects_arb
    (fun rs ->
      Rect.union_area rs
      >= List.fold_left (fun a r -> Float.max a (Rect.area r)) 0. rs -. 1e-6)

(* ----------------------------- Skyline ----------------------------- *)

let test_skyline_flat () =
  let s = Skyline.create ~width:10. in
  checkf "max" 0. (Skyline.max_height s);
  checkf "area" 0. (Skyline.area_under s);
  Alcotest.(check int) "one segment" 1 (List.length (Skyline.segments s))

let test_skyline_add () =
  let s = Skyline.create ~width:10. in
  let s = Skyline.add_rect s (rect 2. 0. 3. 4.) in
  checkf "max" 4. (Skyline.max_height s);
  checkf "height over rect" 4. (Skyline.height_over s ~x0:2. ~x1:5.);
  checkf "height outside" 0. (Skyline.height_over s ~x0:6. ~x1:8.);
  checkf "area" 12. (Skyline.area_under s);
  Alcotest.(check int) "three segments" 3 (List.length (Skyline.segments s))

let test_skyline_merge_equal_heights () =
  let s =
    Skyline.create ~width:10.
    |> Fun.flip Skyline.add_rect (rect 0. 0. 5. 3.)
    |> Fun.flip Skyline.add_rect (rect 5. 0. 5. 3.)
  in
  Alcotest.(check int) "merged into one segment" 1
    (List.length (Skyline.segments s))

let test_skyline_ignores_holes () =
  (* A floating rect raises the profile all the way down (holes at the
     bottom are ignored, paper section 3.1). *)
  let s = Skyline.add_rect (Skyline.create ~width:10.) (rect 0. 5. 4. 2.) in
  checkf "profile under floater" 7. (Skyline.height_over s ~x0:0. ~x1:4.);
  checkf "area counts the hole" 28. (Skyline.area_under s)

let test_skyline_lower_rect_no_effect () =
  let s =
    Skyline.create ~width:10.
    |> Fun.flip Skyline.add_rect (rect 0. 0. 4. 6.)
    |> Fun.flip Skyline.add_rect (rect 1. 0. 2. 3.)
  in
  checkf "still 6" 6. (Skyline.max_height s);
  Alcotest.(check int) "two segments" 2 (List.length (Skyline.segments s))

let test_skyline_best_position_pocket () =
  (* Towers at both ends; a width-4 pocket in the middle at height 0. *)
  let s =
    Skyline.create ~width:10.
    |> Fun.flip Skyline.add_rect (rect 0. 0. 3. 5.)
    |> Fun.flip Skyline.add_rect (rect 7. 0. 3. 5.)
  in
  match Skyline.best_position s ~w:4. with
  | Some (x, y) ->
    checkf "pocket x" 3. x;
    checkf "pocket y" 0. y
  | None -> Alcotest.fail "expected a position"

let test_skyline_best_position_too_wide () =
  let s = Skyline.create ~width:5. in
  checkb "too wide" true (Skyline.best_position s ~w:6. = None)

let test_skyline_best_position_leftmost_tie () =
  let s = Skyline.create ~width:10. in
  match Skyline.best_position s ~w:2. with
  | Some (x, y) ->
    checkf "leftmost" 0. x;
    checkf "floor" 0. y
  | None -> Alcotest.fail "expected a position"

let skyline_of_list rs = Skyline.of_rects ~width:30. rs

let grounded_rects_arb =
  (* Rectangles stacked from the floor like successive augmentation
     produces: each placed at the skyline height over its x-span. *)
  QCheck.make
    QCheck.Gen.(
      map
        (fun specs ->
          List.fold_left
            (fun (sky, acc) (x, w, h) ->
              let xf = float_of_int (x mod 22)
              and wf = float_of_int ((w mod 8) + 1)
              and hf = float_of_int ((h mod 6) + 1) in
              let y = Skyline.height_over sky ~x0:xf ~x1:(xf +. wf) in
              let r = rect xf y wf hf in
              (Skyline.add_rect sky r, r :: acc))
            (Skyline.create ~width:30., [])
            specs
          |> snd)
        (list_size (int_range 1 12) (triple nat nat nat)))

let test_skyline_area_bounds_for_grounded =
  (* The profile area dominates the union (overhang holes count toward
     the profile) and is itself dominated by the bounding slab. *)
  QCheck.Test.make ~name:"grounded stacks: union <= skyline area <= W*H"
    ~count:300 grounded_rects_arb (fun rs ->
      let sky = skyline_of_list rs in
      let a = Skyline.area_under sky in
      a >= Rect.union_area rs -. 1e-6
      && a <= (30. *. Skyline.max_height sky) +. 1e-6)

(* [Skyline.height_over] as a fold over every segment. *)
let folded_height sky ~x0 ~x1 =
  let lo = Float.max 0. x0 and hi = Float.min (Skyline.width sky) x1 in
  List.fold_left
    (fun acc (s : Skyline.segment) ->
      if Tol.lt (Float.max s.x0 lo) (Float.min s.x1 hi) then Float.max acc s.h
      else acc)
    0. (Skyline.segments sky)

(* The two-pass scan [Skyline.best_position] replaced: every left end,
   and every right end minus [w], that fits, sorted without duplicates,
   each measured over all the segments. *)
let scanned_position sky ~w =
  let width = Skyline.width sky in
  if Tol.lt width w then None
  else
    let candidates =
      List.concat_map
        (fun (s : Skyline.segment) -> [ s.x0; s.x1 -. w ])
        (Skyline.segments sky)
      |> List.filter (fun x -> Tol.geq x 0. && Tol.leq (x +. w) width)
      |> List.sort_uniq compare
    in
    let candidates = if candidates = [] then [ 0. ] else candidates in
    let better (bx, by) x =
      let y = folded_height sky ~x0:x ~x1:(x +. w) in
      if Tol.lt y by || (Tol.equal y by && Tol.lt x bx) then (x, y)
      else (bx, by)
    in
    Some (List.fold_left better (infinity, infinity) candidates)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Whether the one-pass position is the scan's, bit for bit, and
   [height_over] is the full fold at every candidate, fitting or not. *)
let matches_scan sky w =
  List.for_all
    (fun (s : Skyline.segment) ->
      List.for_all
        (fun x ->
          same_bits
            (Skyline.height_over sky ~x0:x ~x1:(x +. w))
            (folded_height sky ~x0:x ~x1:(x +. w)))
        [ s.x0; s.x1 -. w ])
    (Skyline.segments sky)
  &&
  match (Skyline.best_position sky ~w, scanned_position sky ~w) with
  | None, None -> true
  | Some (x, y), Some (x', y') -> same_bits x x' && same_bits y y'
  | _ -> false

(* A grounded stack scaled by [f], on a chip [30 f] wide: scales that
   are not powers of two put the segment ends off the integers, where
   sums and differences round. *)
let scaled_skyline f rs =
  Skyline.of_rects ~width:(30. *. f)
    (List.map
       (fun (r : Rect.t) ->
         rect (f *. r.Rect.x) (f *. r.Rect.y) (f *. r.Rect.w) (f *. r.Rect.h))
       rs)

let scale_arb = QCheck.oneofl [ 1.; 0.1; 0.7; 1.3 ]

let test_best_position_grounded =
  QCheck.Test.make ~name:"best position matches the scan on grounded stacks"
    ~count:300 ~long_factor:30
    QCheck.(
      triple grounded_rects_arb scale_arb
        (small_list (float_range 0. 32.)))
    (fun (rs, f, ws) ->
      let sky = scaled_skyline f rs in
      List.for_all
        (fun w -> matches_scan sky (f *. w))
        (ws @ List.init 32 float_of_int))

(* Widths that fit a segment, two adjacent segments or the whole chip
   exactly, and one ulp either side: the candidates at [x1 -. w] then
   land on or next to the segments' left ends. *)
let test_best_position_ulp_widths =
  QCheck.Test.make
    ~name:"best position matches the scan at segment widths, one ulp apart"
    ~count:300 ~long_factor:30
    QCheck.(pair grounded_rects_arb scale_arb)
    (fun (rs, f) ->
      let sky = scaled_skyline f rs in
      let segs = Skyline.segments sky in
      let rec pairs = function
        | (a : Skyline.segment) :: (b :: _ as rest) ->
          (b.x1 -. a.x0) :: pairs rest
        | _ -> []
      in
      let spans =
        (Skyline.width sky
        :: List.map (fun (s : Skyline.segment) -> s.x1 -. s.x0) segs)
        @ pairs segs
      in
      List.for_all
        (fun w ->
          matches_scan sky (Float.pred w)
          && matches_scan sky w
          && matches_scan sky (Float.succ w))
        spans)

(* The projection engine's shape probe: modules packed one at a time
   into a strip 1e9 wide, so they form one long row.  Every placement
   is checked, in both orientations. *)
let test_best_position_wide_strip =
  QCheck.Test.make ~name:"best position matches the scan on a 1e9-wide strip"
    ~count:100 ~long_factor:20
    QCheck.(pair (int_range 1 60) int)
    (fun (k, seed) ->
      let rng = Fp_util.Rng.create seed in
      let dim () = 0.1 +. Fp_util.Rng.float rng 20. in
      let sky = ref (Skyline.create ~width:1e9) and ok = ref true in
      for _ = 1 to k do
        let w = dim () and h = dim () in
        if not (matches_scan !sky w && matches_scan !sky h) then ok := false;
        match Skyline.best_position !sky ~w with
        | Some (x, y) -> sky := Skyline.add_rect !sky (rect x y w h)
        | None -> ok := false
      done;
      !ok)

(* ----------------------------- Covering ---------------------------- *)

let test_covering_single () =
  let cover = Covering.of_rects ~width:10. [ rect 0. 0. 4. 3. ] in
  Alcotest.(check int) "one rect" 1 (List.length cover);
  checkf "same area" 12.
    (List.fold_left (fun a r -> a +. Rect.area r) 0. cover)

let test_covering_staircase () =
  (* Figure-4-like staircase: three steps. *)
  let placed =
    [ rect 0. 0. 3. 6.; rect 3. 0. 3. 4.; rect 6. 0. 4. 2. ]
  in
  let cover = Covering.of_rects ~width:10. placed in
  Alcotest.(check bool) "at most 3 covering rects" true
    (List.length cover <= 3);
  checkf "areas match" 38.
    (List.fold_left (fun a r -> a +. Rect.area r) 0. cover)

let test_covering_empty_profile () =
  Alcotest.(check int) "flat floor -> no rects" 0
    (List.length (Covering.of_rects ~width:10. []))

(* Theorem 2 + corollary: the number of covering rectangles never exceeds
   the number of modules forming the partial floorplan. *)
let test_covering_theorem2 =
  QCheck.Test.make ~name:"covering count <= module count (Thm 2)" ~count:500
    grounded_rects_arb (fun rs ->
      let sky = skyline_of_list rs in
      List.length (Covering.of_skyline sky) <= List.length rs)

let test_covering_exact_tiling =
  QCheck.Test.make ~name:"covering tiles the region under the skyline"
    ~count:300 grounded_rects_arb (fun rs ->
      let sky = skyline_of_list rs in
      let cover = Covering.of_skyline sky in
      let sum = List.fold_left (fun a r -> a +. Rect.area r) 0. cover in
      let union = Rect.union_area cover in
      (* Non-overlapping (sum = union) and covering exactly the profile
         area. *)
      Float.abs (sum -. union) < 1e-6
      && Float.abs (sum -. Skyline.area_under sky) < 1e-6)

let test_covering_no_overlap =
  QCheck.Test.make ~name:"covering rectangles are pairwise disjoint"
    ~count:300 grounded_rects_arb (fun rs ->
      let cover = Covering.of_skyline (skyline_of_list rs) in
      let arr = Array.of_list cover in
      let ok = ref true in
      for i = 0 to Array.length arr - 1 do
        for j = i + 1 to Array.length arr - 1 do
          if Rect.overlaps arr.(i) arr.(j) then ok := false
        done
      done;
      !ok)

let test_coarsen_bound () =
  let cover =
    Covering.of_rects ~width:20.
      [ rect 0. 0. 2. 9.; rect 2. 0. 2. 7.; rect 4. 0. 2. 5.;
        rect 6. 0. 2. 3.; rect 8. 0. 2. 1. ]
  in
  let coarse = Covering.coarsen ~max_count:2 cover in
  Alcotest.(check bool) "at most 2" true (List.length coarse <= 2)

let test_coarsen_still_covers =
  QCheck.Test.make ~name:"coarsened covering still covers the profile"
    ~count:200 grounded_rects_arb (fun rs ->
      let sky = skyline_of_list rs in
      let cover = Covering.of_skyline sky in
      let coarse = Covering.coarsen ~max_count:3 cover in
      (* Every original covering rect lies inside the union of the
         coarsened rects; test via area of union. *)
      Rect.union_area (coarse @ cover) -. Rect.union_area coarse < 1e-6)

let test_coarsen_invalid () =
  Alcotest.check_raises "max_count 0"
    (Invalid_argument "Covering.coarsen: max_count < 1") (fun () ->
      ignore (Covering.coarsen ~max_count:0 []))

let () =
  Alcotest.run "fp_geometry"
    [
      ( "interval",
        [
          Alcotest.test_case "basic" `Quick test_interval_basic;
          Alcotest.test_case "invalid" `Quick test_interval_invalid;
          Alcotest.test_case "overlap vs touch" `Quick
            test_interval_overlap_vs_touch;
          Alcotest.test_case "intersect/hull" `Quick test_interval_intersect_hull;
        ] );
      ( "rect",
        [
          Alcotest.test_case "basic" `Quick test_rect_basic;
          Alcotest.test_case "negative" `Quick test_rect_negative;
          Alcotest.test_case "overlap" `Quick test_rect_overlap;
          Alcotest.test_case "rotate" `Quick test_rect_rotate;
          Alcotest.test_case "inflate" `Quick test_rect_inflate;
          Alcotest.test_case "contains" `Quick test_rect_contains;
          Alcotest.test_case "union area disjoint" `Quick
            test_rect_union_area_disjoint;
          Alcotest.test_case "union area nested" `Quick
            test_rect_union_area_nested;
          Alcotest.test_case "union area overlap" `Quick
            test_rect_union_area_overlap;
          Alcotest.test_case "side midpoints" `Quick test_rect_side_midpoints;
          Alcotest.test_case "bounding box" `Quick test_bounding_box;
          QCheck_alcotest.to_alcotest test_union_area_le_sum;
          QCheck_alcotest.to_alcotest test_union_area_ge_max;
        ] );
      ( "skyline",
        [
          Alcotest.test_case "flat" `Quick test_skyline_flat;
          Alcotest.test_case "add rect" `Quick test_skyline_add;
          Alcotest.test_case "merge equal heights" `Quick
            test_skyline_merge_equal_heights;
          Alcotest.test_case "ignores holes" `Quick test_skyline_ignores_holes;
          Alcotest.test_case "lower rect no effect" `Quick
            test_skyline_lower_rect_no_effect;
          Alcotest.test_case "pocket position" `Quick
            test_skyline_best_position_pocket;
          Alcotest.test_case "too wide" `Quick test_skyline_best_position_too_wide;
          Alcotest.test_case "leftmost tie" `Quick
            test_skyline_best_position_leftmost_tie;
          QCheck_alcotest.to_alcotest test_skyline_area_bounds_for_grounded;
          QCheck_alcotest.to_alcotest test_best_position_grounded;
          QCheck_alcotest.to_alcotest test_best_position_ulp_widths;
          QCheck_alcotest.to_alcotest test_best_position_wide_strip;
        ] );
      ( "covering",
        [
          Alcotest.test_case "single" `Quick test_covering_single;
          Alcotest.test_case "staircase" `Quick test_covering_staircase;
          Alcotest.test_case "empty profile" `Quick test_covering_empty_profile;
          Alcotest.test_case "coarsen bound" `Quick test_coarsen_bound;
          Alcotest.test_case "coarsen invalid" `Quick test_coarsen_invalid;
          QCheck_alcotest.to_alcotest test_covering_theorem2;
          QCheck_alcotest.to_alcotest test_covering_exact_tiling;
          QCheck_alcotest.to_alcotest test_covering_no_overlap;
          QCheck_alcotest.to_alcotest test_coarsen_still_covers;
        ] );
    ]
