module Placement = Fp_core.Placement
module Rect = Fp_geometry.Rect

let hex (pl : Placement.t) =
  let b = Buffer.create 2048 in
  Printf.bprintf b "%h|%h;" pl.Placement.chip_width pl.Placement.height;
  List.iter
    (fun (q : Placement.placed) ->
      let r = q.Placement.rect in
      Printf.bprintf b "%d:%h,%h,%h,%h:%b;" q.Placement.module_id r.Rect.x
        r.Rect.y r.Rect.w r.Rect.h q.Placement.rotated)
    pl.Placement.placed;
  Digest.to_hex (Digest.string (Buffer.contents b))
