module Rect = Fp_geometry.Rect
module Point = Fp_geometry.Point
module Tol = Fp_geometry.Tol
module Placement = Fp_core.Placement
module Netlist = Fp_netlist.Netlist
module Module_def = Fp_netlist.Module_def

(* A muted qualitative palette; module color cycles by id. *)
let palette =
  [| "#8dd3c7"; "#ffffb3"; "#bebada"; "#fb8072"; "#80b1d3"; "#fdb462";
     "#b3de69"; "#fccde5"; "#d9d9d9"; "#bc80bd"; "#ccebc5"; "#ffed6f" |]

let header ~width ~height =
  Printf.sprintf
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%g\" height=\"%g\" \
     viewBox=\"0 0 %g %g\">\n\
     <rect x=\"0\" y=\"0\" width=\"%g\" height=\"%g\" fill=\"#fcfcf8\" \
     stroke=\"#222\" stroke-width=\"1\"/>\n"
    width height width height width height

(* SVG y grows downward; flip so floorplan y grows upward. *)
let rect_svg ~scale ~chip_h (r : Rect.t) ~fill ~stroke ~dash ~opacity =
  Printf.sprintf
    "<rect x=\"%g\" y=\"%g\" width=\"%g\" height=\"%g\" fill=\"%s\" \
     stroke=\"%s\" stroke-width=\"0.8\"%s opacity=\"%g\"/>\n"
    (r.Rect.x *. scale)
    ((chip_h -. Rect.y_max r) *. scale)
    (r.Rect.w *. scale) (r.Rect.h *. scale) fill stroke
    (if dash then " stroke-dasharray=\"3,2\"" else "")
    opacity

let label_svg ~scale ~chip_h (r : Rect.t) text =
  let c = Rect.center r in
  Printf.sprintf
    "<text x=\"%g\" y=\"%g\" font-size=\"%g\" font-family=\"monospace\" \
     text-anchor=\"middle\" dominant-baseline=\"central\" fill=\"#222\">%s</text>\n"
    (c.Point.x *. scale)
    ((chip_h -. c.Point.y) *. scale)
    (Float.min (0.5 *. r.Rect.h *. scale) 11.)
    text

let body_of_placement ?netlist ~scale pl =
  let chip_h = pl.Placement.height in
  let buf = Buffer.create 4096 in
  List.iter
    (fun p ->
      let color = palette.(p.Placement.module_id mod Array.length palette) in
      if not (Rect.equal p.Placement.envelope p.Placement.rect) then
        Buffer.add_string buf
          (rect_svg ~scale ~chip_h p.Placement.envelope ~fill:"none"
             ~stroke:"#999" ~dash:true ~opacity:1.);
      Buffer.add_string buf
        (rect_svg ~scale ~chip_h p.Placement.rect ~fill:color ~stroke:"#333"
           ~dash:false ~opacity:0.9);
      let name =
        match netlist with
        | Some nl ->
          (Netlist.module_at nl p.Placement.module_id).Module_def.name
        | None -> string_of_int p.Placement.module_id
      in
      Buffer.add_string buf (label_svg ~scale ~chip_h p.Placement.rect name))
    pl.Placement.placed;
  Buffer.contents buf

let of_placement ?(scale = 6.) ?netlist pl =
  let width = pl.Placement.chip_width *. scale
  and height = pl.Placement.height *. scale in
  header ~width ~height
  ^ body_of_placement ?netlist ~scale pl
  ^ "</svg>\n"

let of_routed ?(scale = 6.) ?netlist pl rt =
  let chip_h = pl.Placement.height in
  let width = pl.Placement.chip_width *. scale
  and height = chip_h *. scale in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (header ~width ~height);
  Buffer.add_string buf (body_of_placement ?netlist ~scale pl);
  (* Routing overlay: used channel edges, width ~ wire count. *)
  let graph = rt.Fp_route.Global_router.graph in
  Array.iteri
    (fun i (e : Fp_route.Channel_graph.edge) ->
      let usage = rt.Fp_route.Global_router.usage.(i) in
      if Tol.gt usage 0. then begin
        let a = Fp_route.Channel_graph.node_pos graph e.Fp_route.Channel_graph.a
        and b = Fp_route.Channel_graph.node_pos graph e.Fp_route.Channel_graph.b
        in
        let over = Tol.gt usage e.Fp_route.Channel_graph.capacity in
        Buffer.add_string buf
          (Printf.sprintf
             "<line x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\" stroke=\"%s\" \
              stroke-width=\"%g\" opacity=\"0.65\"/>\n"
             (a.Point.x *. scale)
             ((chip_h -. a.Point.y) *. scale)
             (b.Point.x *. scale)
             ((chip_h -. b.Point.y) *. scale)
             (if over then "#d62728" else "#1f77b4")
             (Float.min 4. (0.4 +. (0.35 *. usage))))
      end)
    (Fp_route.Channel_graph.edges graph);
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

(* Flush inside the bracket: with_open's close discards the error of a
   write that only fails at close (a full disk). *)
let save path svg =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc svg;
      Out_channel.flush oc)
