(* Continuous-perf comparator: gate CI on search-effort regressions.

   Reads the committed baseline [bench/history.jsonl] (append-only, one
   JSON object per line) and one or more fresh BENCH_*.json files from a
   bench run, matches rows by (bench, key), and fails — exit 1 — when a
   tracked metric regressed by more than the gate:

     fresh > base * (1 + threshold) + slack

   Tracked metrics: [nodes], [pivots] (slack 50 — tiny solves jitter),
   [wall_clock_s] (slack 5.0 s — scheduler noise, and the baseline may
   have been recorded on a different machine; the deterministic node and
   pivot counters are the strict signal).  Threshold 15%.
   Improvements are reported but never gate; refreshing the baseline is
   an explicit act: re-run with [--record] and commit the appended
   lines.

   Zero dependencies: the JSON here is machine-written by bench/main.ml
   (flat objects, no exotic escapes), so a ~100-line recursive-descent
   reader suffices; anything it cannot parse is a hard error rather than
   a silently skipped row. *)

(* ------------------------------ JSON ------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected '%s'" lit)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape"
         else
           match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'u' ->
             (* The writer only emits \u00XX for control bytes. *)
             if !pos + 4 >= n then fail "truncated \\u escape";
             let hex = String.sub s (!pos + 1) 4 in
             (match int_of_string_opt ("0x" ^ hex) with
             | Some code when code < 256 -> Buffer.add_char buf (Char.chr code)
             | Some _ -> Buffer.add_char buf '?'
             | None -> fail "bad \\u escape");
             pos := !pos + 4
           | c -> fail (Printf.sprintf "unknown escape '\\%c'" c));
        advance ();
        go ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elems acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elems []
      end
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let num_member k j = match member k j with Some (Num f) -> Some f | _ -> None
let str_member k j = match member k j with Some (Str s) -> Some s | _ -> None

(* ----------------------------- metrics ----------------------------- *)

(* (metric name, absolute slack): the relative gate alone would flag
   1-node jitter on trivial solves. *)
let tracked = [ ("nodes", 50.); ("pivots", 50.); ("wall_clock_s", 5.0) ]

let threshold = 0.15

(* A BENCH row -> stable key within its experiment.  Rows without a [k]
   are keyed by their distinguishing field; unkeyable rows are skipped
   (the gate tracks the per-K search effort, not every record). *)
let row_key row =
  let k = num_member "k" row in
  let fm = str_member "formulation" row in
  match (k, fm) with
  | Some k, Some fm when fm <> "basic" ->
    (* Strengthened modes are tracked separately per K. *)
    Some (Printf.sprintf "k%d:%s" (int_of_float k) fm)
  | Some k, _ -> Some (Printf.sprintf "k%d" (int_of_float k))
  | None, _ -> None

let row_metrics row =
  List.filter_map
    (fun (m, slack) ->
      let field = if m = "wall_clock_s" then "time_s" else m in
      match num_member field row with
      | Some v -> Some (m, v, slack)
      | None -> None)
    tracked

(* ------------------------------ main ------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  let history_path = ref "bench/history.jsonl" in
  let record = ref false in
  let fresh_files = ref [] in
  let spec =
    [
      ("--history", Arg.Set_string history_path,
       "PATH baseline history (default bench/history.jsonl)");
      ("--record", Arg.Set record,
       " append the fresh rows to the history instead of gating");
    ]
  in
  Arg.parse spec
    (fun f -> fresh_files := f :: !fresh_files)
    "bench_compare [--history H] [--record] BENCH_x.json ...";
  let fresh_files = List.rev !fresh_files in
  if fresh_files = [] then begin
    prerr_endline "bench_compare: no BENCH json files given";
    exit 2
  end;
  (* Baseline: last line per (bench, key) wins — the file is append-only
     and newer entries supersede older ones. *)
  let baseline : (string * string, (string * float) list) Hashtbl.t =
    Hashtbl.create 64
  in
  (if Sys.file_exists !history_path then
     In_channel.with_open_text !history_path @@ fun ic ->
     try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then begin
            let j = parse_json line in
            match (str_member "bench" j, str_member "key" j) with
            | Some b, Some k ->
              let metrics =
                List.filter_map
                  (fun (m, _) ->
                    Option.map (fun v -> (m, v)) (num_member m j))
                  tracked
              in
              Hashtbl.replace baseline (b, k) metrics
            | _ -> ()
          end
        done
      with End_of_file -> ());
  let regressions = ref [] in
  let fresh_lines = ref [] in
  let date =
    let t = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02d" (1900 + t.Unix.tm_year) (t.Unix.tm_mon + 1)
      t.Unix.tm_mday
  in
  List.iter
    (fun path ->
      let j = parse_json (String.trim (read_file path)) in
      let bench =
        match str_member "experiment" j with
        | Some e -> e
        | None -> Filename.remove_extension (Filename.basename path)
      in
      let commit =
        match str_member "commit" j with
        | Some c -> c
        | None ->
          Option.value ~default:"unknown" (Sys.getenv_opt "GITHUB_SHA")
      in
      let rows = match member "rows" j with Some (Arr rs) -> rs | _ -> [] in
      List.iter
        (fun row ->
          match row_key row with
          | None -> ()
          | Some key -> (
            let metrics = row_metrics row in
            let line =
              Printf.sprintf
                "{\"bench\":\"%s\",\"key\":\"%s\",%s,\"commit\":\"%s\",\"date\":\"%s\"}"
                bench key
                (String.concat ","
                   (List.map
                      (fun (m, v, _) -> Printf.sprintf "\"%s\":%.6g" m v)
                      metrics))
                commit date
            in
            fresh_lines := line :: !fresh_lines;
            match Hashtbl.find_opt baseline (bench, key) with
            | None ->
              Printf.printf "NEW      %s/%s (no baseline)\n" bench key
            | Some base ->
              List.iter
                (fun (m, v, slack) ->
                  match List.assoc_opt m base with
                  | None -> ()
                  | Some b ->
                    let gate = (b *. (1. +. threshold)) +. slack in
                    if v > gate then begin
                      Printf.printf
                        "REGRESS  %s/%s %s: %.6g -> %.6g (gate %.6g)\n" bench
                        key m b v gate;
                      regressions := (bench, key, m) :: !regressions
                    end
                    else
                      Printf.printf "ok       %s/%s %s: %.6g -> %.6g\n" bench
                        key m b v)
                metrics))
        rows)
    fresh_files;
  if !record then begin
    Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 !history_path
      (fun oc ->
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          (List.rev !fresh_lines);
        flush oc);
    Printf.printf "recorded %d rows -> %s\n" (List.length !fresh_lines)
      !history_path
  end
  else if !regressions <> [] then begin
    Printf.printf "%d regression(s) beyond %.0f%%\n"
      (List.length !regressions) (100. *. threshold);
    exit 1
  end
  else print_endline "no regressions"
