(* SA003 positive: console IO from library code. *)
let report x = print_endline x
let shout fmt_arg = Printf.printf "%s\n" fmt_arg
let complain x = Format.eprintf "%s@." x

(* Reading the console is IO too. *)
let ask () = read_line ()
