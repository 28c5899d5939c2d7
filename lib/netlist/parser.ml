(* Tabs and the carriage return of a CRLF line ending are blanks. *)
let tokenize line =
  String.map (function '\t' | '\r' -> ' ' | c -> c) line
  |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")

type accum = {
  mutable iname : string;
  mutable rmods : Module_def.t list; (* reversed *)
  mutable rnets : (string * float * (string * Net.side) list) list;
  by_name : (string, int) Hashtbl.t;
}

(* [float_of_string] also reads "nan" and "inf"; no field of the format
   has a use for them. *)
let parse_float ~line what s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> Ok f
  | Some _ | None -> Error (Printf.sprintf "line %d: bad %s %S" line what s)

let ( let* ) = Result.bind

let parse_module acc ~line = function
  | [ name; "rigid"; w; h ] ->
    let* w = parse_float ~line "width" w in
    let* h = parse_float ~line "height" h in
    if Hashtbl.mem acc.by_name name then
      Error (Printf.sprintf "line %d: duplicate module %s" line name)
    else begin
      let id = List.length acc.rmods in
      (try
         acc.rmods <- Module_def.rigid ~id ~name ~w ~h :: acc.rmods;
         Hashtbl.add acc.by_name name id;
         Ok ()
       with Invalid_argument m -> Error (Printf.sprintf "line %d: %s" line m))
    end
  | [ name; "flexible"; area; lo; hi ] ->
    let* area = parse_float ~line "area" area in
    let* lo = parse_float ~line "min aspect" lo in
    let* hi = parse_float ~line "max aspect" hi in
    if Hashtbl.mem acc.by_name name then
      Error (Printf.sprintf "line %d: duplicate module %s" line name)
    else begin
      let id = List.length acc.rmods in
      (try
         acc.rmods <-
           Module_def.flexible ~id ~name ~area ~min_aspect:lo ~max_aspect:hi
           :: acc.rmods;
         Hashtbl.add acc.by_name name id;
         Ok ()
       with Invalid_argument m -> Error (Printf.sprintf "line %d: %s" line m))
    end
  | _ ->
    Error
      (Printf.sprintf
         "line %d: expected 'module NAME rigid W H' or 'module NAME flexible \
          AREA MIN MAX'"
         line)

let parse_net acc ~line = function
  | name :: rest when rest <> [] ->
    let crit, pins_toks =
      match rest with
      | first :: others when String.length first > 5
                             && String.sub first 0 5 = "crit=" ->
        (String.sub first 5 (String.length first - 5), others)
      | _ -> ("0", rest)
    in
    let* crit = parse_float ~line "criticality" crit in
    let parse_pin tok =
      match String.split_on_char ':' tok with
      | [ m; s ] -> (
        match Net.side_of_string s with
        | Some side -> Ok (m, side)
        | None -> Error (Printf.sprintf "line %d: bad side %S" line s))
      | _ -> Error (Printf.sprintf "line %d: bad pin %S (want MOD:SIDE)" line tok)
    in
    let* pins =
      List.fold_left
        (fun acc tok ->
          let* acc = acc in
          let* p = parse_pin tok in
          Ok (p :: acc))
        (Ok []) pins_toks
    in
    acc.rnets <- (name, crit, List.rev pins) :: acc.rnets;
    Ok ()
  | _ -> Error (Printf.sprintf "line %d: expected 'net NAME PIN...'" line)

let of_string text =
  let acc =
    { iname = "instance"; rmods = []; rnets = []; by_name = Hashtbl.create 64 }
  in
  let lines = String.split_on_char '\n' text in
  let* () =
    List.fold_left
      (fun st (line_no, line) ->
        let* () = st in
        match tokenize line with
        | [] -> Ok ()
        | tok :: _ when String.length tok > 0 && tok.[0] = '#' -> Ok ()
        | "instance" :: [ name ] ->
          acc.iname <- name;
          Ok ()
        | "module" :: rest -> parse_module acc ~line:line_no rest
        | "net" :: rest -> parse_net acc ~line:line_no rest
        | tok :: _ ->
          Error (Printf.sprintf "line %d: unknown directive %S" line_no tok))
      (Ok ())
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  let* nets =
    List.fold_left
      (fun st (name, crit, pins) ->
        let* acc_nets = st in
        let* pins =
          List.fold_left
            (fun st (m, side) ->
              let* ps = st in
              match Hashtbl.find_opt acc.by_name m with
              | Some id -> Ok ({ Net.module_id = id; side } :: ps)
              | None -> Error (Printf.sprintf "net %s: unknown module %S" name m))
            (Ok []) pins
        in
        try Ok (Net.make ~criticality:crit ~name (List.rev pins) :: acc_nets)
        with Invalid_argument m -> Error m)
      (Ok [])
      (List.rev acc.rnets)
  in
  try Ok (Netlist.create ~name:acc.iname (List.rev acc.rmods) (List.rev nets))
  with Invalid_argument m -> Error m

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error m -> Error m

let to_string nl =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "instance %s\n" (Netlist.name nl));
  Array.iter
    (fun m ->
      match m.Module_def.shape with
      | Module_def.Rigid { w; h } ->
        Buffer.add_string buf
          (Printf.sprintf "module %s rigid %.12g %.12g\n" m.Module_def.name w h)
      | Module_def.Flexible { area; min_aspect; max_aspect } ->
        Buffer.add_string buf
          (Printf.sprintf "module %s flexible %.12g %.12g %.12g\n"
             m.Module_def.name area min_aspect max_aspect))
    (Netlist.modules nl);
  List.iter
    (fun net ->
      Buffer.add_string buf (Printf.sprintf "net %s" net.Net.name);
      if Fp_geometry.Tol.gt net.Net.criticality 0. then
        Buffer.add_string buf (Printf.sprintf " crit=%.12g" net.Net.criticality);
      List.iter
        (fun p ->
          let m = Netlist.module_at nl p.Net.module_id in
          Buffer.add_string buf
            (Printf.sprintf " %s:%s" m.Module_def.name
               (Net.side_to_string p.Net.side)))
        net.Net.pins;
      Buffer.add_char buf '\n')
    (Netlist.nets nl);
  Buffer.contents buf

(* Flush inside the bracket: with_open's close discards the error of a
   write that only fails at close (a full disk). *)
let to_file path nl =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string nl);
      Out_channel.flush oc)
