(* Tests for Fp_viz: ASCII and SVG renderers. *)

module Rect = Fp_geometry.Rect
module Module_def = Fp_netlist.Module_def
module Net = Fp_netlist.Net
module Netlist = Fp_netlist.Netlist
module Placement = Fp_core.Placement
module Ascii = Fp_viz.Ascii
module Svg = Fp_viz.Svg

let rect x y w h = Rect.make ~x ~y ~w ~h

let placed id r =
  { Placement.module_id = id; rect = r; envelope = r; rotated = false }

let sample_placement () =
  Placement.empty ~chip_width:10.
  |> Fun.flip Placement.add (placed 0 (rect 0. 0. 5. 4.))
  |> Fun.flip Placement.add (placed 7 (rect 5. 0. 5. 4.))

let contains needle hay =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_ascii_renders () =
  let s = Ascii.render ~cols:40 (sample_placement ()) in
  Alcotest.(check bool) "has border" true (contains "+---" s);
  Alcotest.(check bool) "labels module 00" true (contains "00" s);
  Alcotest.(check bool) "labels module 07" true (contains "07" s);
  Alcotest.(check bool) "multi-line" true
    (List.length (String.split_on_char '\n' s) > 3)

let test_ascii_empty () =
  let s = Ascii.render (Placement.empty ~chip_width:10.) in
  Alcotest.(check bool) "graceful on empty" true (String.length s > 0)

let test_ascii_envelope_dots () =
  let p =
    { Placement.module_id = 0; rect = rect 2. 2. 4. 4.;
      envelope = rect 0. 0. 8. 8.; rotated = false }
  in
  let pl = Placement.add (Placement.empty ~chip_width:8.) p in
  let s = Ascii.render ~cols:32 pl in
  Alcotest.(check bool) "envelope shown as dots" true (contains "." s)

let test_ascii_title () =
  let s = Ascii.render_with_title ~title:"Figure 5" (sample_placement ()) in
  Alcotest.(check bool) "title present" true (contains "Figure 5" s)

let test_svg_well_formed () =
  let s = Svg.of_placement (sample_placement ()) in
  Alcotest.(check bool) "opens svg" true (contains "<svg" s);
  Alcotest.(check bool) "closes svg" true (contains "</svg>" s);
  Alcotest.(check bool) "has rects" true (contains "<rect" s);
  Alcotest.(check bool) "has labels" true (contains "<text" s)

let test_svg_with_netlist_names () =
  let mods =
    [ Module_def.rigid ~id:0 ~name:"alu" ~w:5. ~h:4.;
      Module_def.rigid ~id:1 ~name:"fpu" ~w:5. ~h:4. ]
  in
  let nl = Netlist.create ~name:"named" mods [] in
  let pl =
    Placement.empty ~chip_width:10.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 5. 4.))
    |> Fun.flip Placement.add (placed 1 (rect 5. 0. 5. 4.))
  in
  let s = Svg.of_placement ~netlist:nl pl in
  Alcotest.(check bool) "names rendered" true
    (contains ">alu<" s && contains ">fpu<" s)

let test_svg_routed_overlay () =
  let mods =
    [ Module_def.rigid ~id:0 ~name:"a" ~w:4. ~h:4.;
      Module_def.rigid ~id:1 ~name:"b" ~w:4. ~h:4. ]
  in
  let nets =
    [ Net.make ~name:"n"
        [ { Net.module_id = 0; side = Net.Right };
          { Net.module_id = 1; side = Net.Left } ] ]
  in
  let nl = Netlist.create ~name:"two" mods nets in
  let pl =
    Placement.empty ~chip_width:12.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 4. 4.))
    |> Fun.flip Placement.add (placed 1 (rect 8. 0. 4. 4.))
  in
  let rt = Fp_route.Global_router.route nl pl in
  let s = Svg.of_routed ~netlist:nl pl rt in
  Alcotest.(check bool) "has route lines" true (contains "<line" s)

let test_svg_save () =
  let path = Filename.temp_file "fp_viz" ".svg" in
  Svg.save path (Svg.of_placement (sample_placement ()));
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "saved" true (contains "<svg" content);
  (* A write that fails only when the buffer is flushed (a full disk)
     must raise, not vanish in the close. *)
  if Sys.file_exists "/dev/full" then
    match Svg.save "/dev/full" (Svg.of_placement (sample_placement ())) with
    | () -> Alcotest.fail "write error on /dev/full was dropped"
    | exception Sys_error _ -> ()

let () =
  Alcotest.run "fp_viz"
    [
      ( "ascii",
        [
          Alcotest.test_case "renders" `Quick test_ascii_renders;
          Alcotest.test_case "empty" `Quick test_ascii_empty;
          Alcotest.test_case "envelope dots" `Quick test_ascii_envelope_dots;
          Alcotest.test_case "title" `Quick test_ascii_title;
        ] );
      ( "svg",
        [
          Alcotest.test_case "well formed" `Quick test_svg_well_formed;
          Alcotest.test_case "netlist names" `Quick test_svg_with_netlist_names;
          Alcotest.test_case "routed overlay" `Quick test_svg_routed_overlay;
          Alcotest.test_case "save" `Quick test_svg_save;
        ] );
    ]
