let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> c
      | _ -> '_')
    name

let pp_terms buf prob terms =
  let first = ref true in
  List.iter
    (fun (c, v) ->
      if c <> 0. then begin
        let sign = if c < 0. then "- " else if !first then "" else "+ " in
        let mag = Float.abs c in
        if mag = 1. then
          Buffer.add_string buf
            (Printf.sprintf "%s%s " sign (sanitize (Lp_problem.var_name prob v)))
        else
          Buffer.add_string buf
            (Printf.sprintf "%s%.12g %s " sign mag
               (sanitize (Lp_problem.var_name prob v)));
        first := false
      end)
    terms;
  if !first then Buffer.add_string buf "0 "

let to_lp_format prob =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (match Lp_problem.sense prob with
    | Lp_problem.Minimize -> "Minimize\n obj: "
    | Lp_problem.Maximize -> "Maximize\n obj: ");
  let obj_terms =
    List.init (Lp_problem.num_vars prob) (fun v ->
        (Lp_problem.obj_coeff prob v, v))
    |> List.filter (fun (c, _) -> c <> 0.)
  in
  pp_terms buf prob obj_terms;
  Buffer.add_string buf "\nSubject To\n";
  Array.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf " %s: " (sanitize c.Lp_problem.cname));
      pp_terms buf prob c.Lp_problem.terms;
      let op =
        match c.Lp_problem.cmp with
        | Lp_problem.Le -> "<="
        | Lp_problem.Ge -> ">="
        | Lp_problem.Eq -> "="
      in
      Buffer.add_string buf (Printf.sprintf "%s %.12g\n" op c.Lp_problem.rhs))
    (Lp_problem.constraints prob);
  Buffer.add_string buf "Bounds\n";
  for v = 0 to Lp_problem.num_vars prob - 1 do
    let lb = Lp_problem.var_lb prob v and ub = Lp_problem.var_ub prob v in
    let name = sanitize (Lp_problem.var_name prob v) in
    if lb = neg_infinity && ub = infinity then
      Buffer.add_string buf (Printf.sprintf " %s free\n" name)
    else if lb = ub then
      Buffer.add_string buf (Printf.sprintf " %s = %.12g\n" name lb)
    else begin
      let lo =
        if lb = neg_infinity then "-inf" else Printf.sprintf "%.12g" lb
      and hi = if ub = infinity then "+inf" else Printf.sprintf "%.12g" ub in
      Buffer.add_string buf (Printf.sprintf " %s <= %s <= %s\n" lo name hi)
    end
  done;
  Buffer.add_string buf "End\n";
  Buffer.contents buf

let output oc prob = output_string oc (to_lp_format prob)

let save path prob =
  Out_channel.with_open_text path (fun oc ->
      output oc prob;
      flush oc)
