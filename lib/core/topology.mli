(** Floorplan optimization with a given topology — paper section 2.5.

    "When the mixed integer programming formulation is applied to this
    problem, it results in elimination of all integer variables": once the
    relative position of every module pair is known, exactly one
    non-overlap inequality per pair remains and the model is a pure LP.

    The topology is read off an existing placement: for each pair of
    envelopes, the satisfied relation (left / right / below / above)
    becomes a hard constraint; module positions — and the widths of
    flexible modules — are then re-optimized to minimize chip height at
    fixed width.  Because the input placement is itself feasible for the
    LP, the result can only improve (or keep) the height.

    The LP is {!Formulation.build}'s model, not a second one: each pair
    may use only its placed relation ([~relations]), each rigid module
    enters in its placed orientation with [~allow_rotation:false], and
    each module keeps the margins it was placed with.  The result is
    decoded with {!Formulation.extract}.  Of the LP's optimal vertices,
    the one the simplex reaches is returned. *)

type stats = {
  num_vars : int;
  num_constraints : int;
  num_integer_vars : int;  (** always 0 — the section's point *)
  height_before : float;
  height_after : float;
}

val optimize :
  ?linearization:Formulation.linearization ->
  Fp_netlist.Netlist.t ->
  Placement.t ->
  Placement.t * stats
(** Re-optimize the placement.  Rigid modules keep their placed
    orientation; flexible modules may re-shape within their aspect
    window.  Envelope margins are preserved exactly as placed.  When the
    LP fails (e.g. stops at its iteration limit), or its plan comes out
    taller than the input (by rounding), the input placement is
    returned unchanged, with [height_after = height_before]; so it is
    when a placed relation fits the strip only within the tolerance and
    no model is built (then every count in the stats is 0).
    @raise Invalid_argument if the placement is invalid (overlapping
    envelopes) or if some module of the netlist is unplaced. *)
