type entry = {
  e_file : string;
  e_line : int option;
  e_rule : Finding.rule;
  e_just : string;
  e_src_line : int;
}

let is_space c = c = ' ' || c = '\t'

let trim = String.trim

(* "path[:line] RULE -- justification" *)
let parse_line ~path ~lineno line =
  let line = trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    let err fmt =
      Printf.ksprintf (fun m -> Error (Printf.sprintf "%s:%d: %s" path lineno m)) fmt
    in
    match String.index_opt line ' ' with
    | None -> err "expected 'path[:line] RULE -- justification'"
    | Some sp -> (
      let target = String.sub line 0 sp in
      let rest = trim (String.sub line sp (String.length line - sp)) in
      let rule_s, just =
        match String.index_opt rest ' ' with
        | None -> (rest, "")
        | Some sp2 ->
          ( String.sub rest 0 sp2,
            trim (String.sub rest sp2 (String.length rest - sp2)) )
      in
      let just =
        if String.length just >= 2 && String.sub just 0 2 = "--" then
          trim (String.sub just 2 (String.length just - 2))
        else ""
      in
      match Finding.rule_of_string rule_s with
      | None -> err "unknown rule %S" rule_s
      | Some SA000 -> err "SA000 (parse failure) cannot be baselined"
      | Some rule ->
        if just = "" then
          err "entry for %s carries no justification ('-- why')" target
        else
          let file, line_no =
            match String.rindex_opt target ':' with
            | Some i -> (
              let tail =
                String.sub target (i + 1) (String.length target - i - 1)
              in
              match int_of_string_opt tail with
              | Some n when n >= 1 -> (String.sub target 0 i, Some n)
              | _ -> (target, None))
            | None -> (target, None)
          in
          if String.exists is_space file || file = "" then
            err "bad path %S" file
          else
            Ok
              (Some
                 { e_file = file; e_line = line_no; e_rule = rule;
                   e_just = just; e_src_line = lineno }))

let parse ~path text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
      match parse_line ~path ~lineno l with
      | Error _ as e -> e
      | Ok None -> go acc (lineno + 1) rest
      | Ok (Some e) -> go (e :: acc) (lineno + 1) rest)
  in
  go [] 1 lines

(* A missing baseline is an error, not an empty baseline: silently
   treating it as empty turns a typo'd --baseline path (or a deleted
   file) into "every baselined finding now fails", or worse, into a
   clean run under --update.  The explicit empty baseline is an empty
   (or all-comment) file. *)
let load path =
  if not (Sys.file_exists path) then
    Error
      (Printf.sprintf
         "%s: baseline file not found (an intentionally empty baseline \
          must exist as an empty file; check --baseline/--root)"
         path)
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error m -> Error (path ^ ": unreadable baseline: " ^ m)
    | text -> parse ~path text

let render findings =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "# fp_lint baseline — every entry must carry a justification.\n\
     # Format: path[:line] RULE -- why this violation is intentional.\n\
     # A 'path RULE' entry (no line) covers the whole file.\n\
     # Stale entries (matching nothing) fail the lint: fixing a violation\n\
     # must shrink this file in the same commit.\n";
  List.iter
    (fun (f : Finding.t) ->
      if f.rule <> Finding.SA000 then
        Buffer.add_string b
          (Printf.sprintf "%s:%d %s -- TODO: justify (%s)\n" f.file f.line
             (Finding.rule_name f.rule) f.msg))
    (List.sort_uniq Finding.compare findings);
  Buffer.contents b

type verdict = { unbaselined : Finding.t list; stale : entry list }

let covers e (f : Finding.t) =
  e.e_rule = f.rule && e.e_file = f.file
  && match e.e_line with None -> true | Some l -> l = f.line

let apply entries findings =
  let used = Array.make (List.length entries) false in
  let unbaselined =
    List.filter
      (fun (f : Finding.t) ->
        if f.rule = Finding.SA000 then true
        else begin
          let matched = ref false in
          List.iteri
            (fun i e ->
              if covers e f then begin
                used.(i) <- true;
                matched := true
              end)
            entries;
          not !matched
        end)
      findings
  in
  let stale =
    List.filteri (fun i _ -> not used.(i)) entries
  in
  { unbaselined; stale }
