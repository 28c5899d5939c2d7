(** Module (block) definitions.

    The paper's problem statement (section 2.2): the input is a set of
    [K_r] rigid modules with given width and height (90° rotation allowed)
    and [K_f] flexible modules with given area [S_i] and aspect-ratio
    bounds [b_i <= w_i / h_i <= a_i]. *)

type shape =
  | Rigid of { w : float; h : float }
      (** Fixed dimensions; the floorplanner may swap [w] and [h]. *)
  | Flexible of { area : float; min_aspect : float; max_aspect : float }
      (** Fixed area [w*h = area] with [min_aspect <= w/h <= max_aspect]. *)

type t = { id : int; name : string; shape : shape }
(** [id] is the dense index of the module inside its {!Netlist.t}. *)

val rigid : id:int -> name:string -> w:float -> h:float -> t
(** @raise Invalid_argument on non-positive or non-finite dimensions. *)

val flexible :
  id:int -> name:string -> area:float -> min_aspect:float ->
  max_aspect:float -> t
(** @raise Invalid_argument on a non-positive or non-finite area or
    aspect bound, or an empty aspect interval. *)

val area : t -> float
(** Exact for rigid modules, the prescribed [S_i] for flexible ones. *)

val is_flexible : t -> bool

val width_range : t -> float * float
(** Feasible width interval: [(w, w)] (or [(h, h)] after rotation — the
    caller handles rotation) for rigid modules;
    [(sqrt (area * min_aspect), sqrt (area * max_aspect))] for flexible
    ones, since [w = sqrt (S * aspect)] when [h = S / w]. *)

val height_for_width : t -> float -> float
(** [height_for_width m w] is the exact module height when its width is
    [w]: [h] or [w]-independent for rigid, [area / w] for flexible. *)

val pp : Format.formatter -> t -> unit
