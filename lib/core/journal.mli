(** Checkpoint journal for successive augmentation.

    After each committed step the engine records everything needed to
    continue the run: the partial placement, the remaining group
    ordering, and digests binding the checkpoint to one configuration
    and one instance.  A resumed run replays exactly the steps the
    interrupted run had not committed, on exactly the state it left —
    the final floorplan is bit-identical to the uninterrupted run's
    (floats are serialized as hexadecimal literals, which round-trip
    exactly).

    The file is a line-oriented text format (see [docs/robustness.md])
    written atomically: the journal is built in a [.tmp] sibling and
    renamed over the target, so a crash mid-write leaves the previous
    checkpoint intact, never a truncated one. *)

type t = {
  config_digest : string;
      (** hex MD5 of the run configuration's canonical rendering —
          everything that affects the placement trajectory (see
          {!Augment.config_digest}) *)
  instance_digest : string;  (** hex MD5 of the instance's text form *)
  chip_width : float;
  steps_done : int;          (** committed augmentation steps *)
  placement : Placement.t;
  remaining : int list list;
      (** module-id groups not yet placed, in commit order — captures
          the ordering (and hence any RNG draws behind it) explicitly *)
}

val digest_instance : Fp_netlist.Netlist.t -> string
(** Hex MD5 of {!Fp_netlist.Parser.to_string}. *)

val write : path:string -> t -> unit
(** Atomic write (tmp + rename).  @raise Sys_error on I/O failure. *)

val read : path:string -> (t, string) result
(** Parse a journal.  [Error] describes the first malformed line; digest
    mismatches are the {e caller's} job to check (it knows the live
    config and instance). *)
