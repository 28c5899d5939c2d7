(* SA014 negative: every channel opens through a Stdlib with_open_*
   bracket, which closes it on every exit; writers flush inside the
   bracket so a write error surfaces instead of dying in the close. *)

let read_all path = In_channel.with_open_bin path In_channel.input_all

let write_all path s =
  Out_channel.with_open_text path (fun oc ->
      output_string oc s;
      flush oc)

let append path s =
  Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path (fun oc ->
      output_string oc s;
      flush oc)

(* Closing and channel I/O on an already-open channel are not opens. *)
let finish oc = close_out oc
