(** A fixed-size 0-1 MILP in the shape of one augmentation step, for the
    branch-and-bound tests: rectangles packed into a strip of width
    [chip_w] at least height, with the paper's four big-M rows per pair
    and each pair's two binaries declared as a branching pair. *)

val model : chip_w:float -> big_h:float -> (float * float) array -> Fp_milp.Model.t
(** [model ~chip_w ~big_h dims] packs rectangles of the given
    [(width, height)]s.  Variables, in declaration order: the [x]s, the
    [y]s, the height, then each pair's two binaries. *)
