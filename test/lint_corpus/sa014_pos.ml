(* SA014 positive: raw channel opens.  Each leaves the close to its
   caller; the Stdlib with_open_* brackets close on every exit. *)

let read_raw path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A close in ~finally is still a raw open: the bracket is the API. *)
let write_raw path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc s)

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc s;
  close_out oc

(* The channel modules' raw opens count too. *)
let slurp path = In_channel.input_all (In_channel.open_text path)

let create path = Stdlib.Out_channel.open_bin path
