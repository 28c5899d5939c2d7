(** Plain-text instance format.

    {v
    # comment
    instance NAME
    module NAME rigid W H
    module NAME flexible AREA MIN_ASPECT MAX_ASPECT
    net NAME [crit=0.8] MOD:SIDE MOD:SIDE ...
    v}

    Tokens are separated by spaces or tabs, and lines may end in LF or
    CRLF.  Sides are [L R B T].  Module references in nets are by name.
    The format exists so users can feed their own instances to
    [bin/floorplanner] without writing OCaml. *)

val of_string : string -> (Netlist.t, string) Result.t
(** Parse an instance; the error carries a line number. *)

val of_file : string -> (Netlist.t, string) Result.t

val to_string : Netlist.t -> string
(** Render an instance in the same format.  Dimensions, aspect bounds
    and criticalities are printed to 12 significant digits ([%.12g]), so
    the text round-trips (rendering [of_string (to_string t)] gives
    [to_string t] again) but the values need not: the parsed instance
    can differ from [t] in the last digits of a float, and the MILP's
    search can follow those digits. *)

val to_file : string -> Netlist.t -> unit
