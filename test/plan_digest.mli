(** A bit-exact fingerprint of a placement, for pinning recorded
    trajectories: chip width and height, then every placed module's id,
    rectangle (in hexadecimal float notation) and rotation, in
    placement order. *)

val hex : Fp_core.Placement.t -> string
(** MD5 of the rendering, in hex. *)
