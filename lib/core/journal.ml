module Rect = Fp_geometry.Rect

type t = {
  config_digest : string;
  instance_digest : string;
  chip_width : float;
  steps_done : int;
  placement : Placement.t;
  remaining : int list list;
}

let digest_instance nl =
  Digest.to_hex (Digest.string (Fp_netlist.Parser.to_string nl))

(* Floats as hexadecimal literals: [%h] round-trips exactly through
   [float_of_string], which is what makes resumed runs bit-identical. *)
let fl = Printf.sprintf "%h"

let write ~path t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "fpjournal 1";
  line "config %s" t.config_digest;
  line "instance %s" t.instance_digest;
  line "chip_width %s" (fl t.chip_width);
  line "steps %d" t.steps_done;
  List.iter
    (fun (p : Placement.placed) ->
      line "placed %d %s %s %s %s %s %s %s %s %d" p.module_id
        (fl p.rect.x) (fl p.rect.y) (fl p.rect.w) (fl p.rect.h)
        (fl p.envelope.x) (fl p.envelope.y) (fl p.envelope.w)
        (fl p.envelope.h)
        (if p.rotated then 1 else 0))
    t.placement.placed;
  List.iter
    (fun group ->
      line "group %s" (String.concat " " (List.map string_of_int group)))
    t.remaining;
  line "end";
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      output_string oc (Buffer.contents buf);
      flush oc);
  Sys.rename tmp path

let read ~path =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let float_field name s =
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> fail "journal: bad float in %s: %S" name s
  in
  let int_field name s =
    match int_of_string_opt s with
    | Some i -> Ok i
    | None -> fail "journal: bad integer in %s: %S" name s
  in
  match
    In_channel.with_open_text path (fun ic ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        List.rev !lines)
  with
  | exception Sys_error msg -> Error msg
  | lines -> (
    let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
    let expect tag = function
      | [] -> fail "journal: truncated before %S" tag
      | l :: rest -> (
        match words l with
        | t :: args when t = tag -> Ok (args, rest)
        | _ -> fail "journal: expected %S, got %S" tag l)
    in
    let* hdr, lines = expect "fpjournal" lines in
    let* () =
      if hdr = [ "1" ] then Ok ()
      else fail "journal: unsupported version %s" (String.concat " " hdr)
    in
    let* cfg, lines = expect "config" lines in
    let* inst, lines = expect "instance" lines in
    let* cw, lines = expect "chip_width" lines in
    let* st, lines = expect "steps" lines in
    let* config_digest =
      match cfg with [ d ] -> Ok d | _ -> fail "journal: bad config line"
    in
    let* instance_digest =
      match inst with [ d ] -> Ok d | _ -> fail "journal: bad instance line"
    in
    let* chip_width =
      match cw with
      | [ f ] -> float_field "chip_width" f
      | _ -> fail "journal: bad chip_width line"
    in
    let* steps_done =
      match st with
      | [ n ] -> int_field "steps" n
      | _ -> fail "journal: bad steps line"
    in
    let rec body placement groups_rev = function
      | [] -> fail "journal: truncated before \"end\""
      | l :: rest -> (
        match words l with
        | [ "end" ] ->
          Ok
            { config_digest; instance_digest; chip_width; steps_done;
              placement; remaining = List.rev groups_rev }
        | "placed" :: fields -> (
          match fields with
          | [ id; rx; ry; rw; rh; ex; ey; ew; eh; rot ] ->
            let* module_id = int_field "placed" id in
            let* rx = float_field "placed" rx in
            let* ry = float_field "placed" ry in
            let* rw = float_field "placed" rw in
            let* rh = float_field "placed" rh in
            let* ex = float_field "placed" ex in
            let* ey = float_field "placed" ey in
            let* ew = float_field "placed" ew in
            let* eh = float_field "placed" eh in
            let* rotated =
              match rot with
              | "0" -> Ok false
              | "1" -> Ok true
              | _ -> fail "journal: bad rotated flag %S" rot
            in
            let p =
              { Placement.module_id;
                rect = Rect.make ~x:rx ~y:ry ~w:rw ~h:rh;
                envelope = Rect.make ~x:ex ~y:ey ~w:ew ~h:eh;
                rotated }
            in
            let* placement =
              match Placement.add placement p with
              | pl -> Ok pl
              | exception Invalid_argument msg -> fail "journal: %s" msg
            in
            body placement groups_rev rest
          | _ -> fail "journal: malformed placed line %S" l)
        | "group" :: ids ->
          let* group =
            List.fold_left
              (fun acc id ->
                let* acc = acc in
                let* id = int_field "group" id in
                Ok (id :: acc))
              (Ok []) ids
          in
          body placement (List.rev group :: groups_rev) rest
        | _ -> fail "journal: unrecognized line %S" l)
    in
    body (Placement.empty ~chip_width) [] lines)
