exception Injected of string

(* Canonical site catalogue.  The single source of truth for every fault
   site shipped with the solve stack: instrumented modules register these
   names at load time, the CLI [--faults] help text renders this table,
   docs/robustness.md documents exactly these rows, and the SA007 source
   lint cross-checks all of them against each other.  Adding a site means
   adding it here first. *)
let builtin =
  [
    ( "augment.candidate_milp",
      "candidate-group MILP evaluation dies; surviving candidates or the \
       raw warm packing decide the step" );
    ( "augment.hook",
      "inspection hook raises; contained, the run continues" );
    ( "basis.singular_lu",
      "singular LU while factorizing a warm basis; cold re-solve" );
    ( "branch_bound.budget",
      "node/time budget exhausted; warm fallback" );
    ( "pool.worker_exn",
      "worker domain crashes mid-task; candidate evaluation falls back to \
       sequential" );
    ( "revised.iteration_limit",
      "stalled simplex on any LP; a B&B node retreats to its parent \
       bound, Topology keeps its input plan, the big-M lint falls back \
       to its interval verdict" );
  ]

type spec = {
  site : string;
  after : int;
  count : int;
  prob : float option;
  seed : int;
}

let spec ?(after = 0) ?(count = 1) ?prob ?(seed = 0) site =
  if after < 0 then invalid_arg "Fault.spec: after < 0";
  if count < 1 then invalid_arg "Fault.spec: count < 1";
  (match prob with
  | Some p when not (p >= 0. && p <= 1.) ->
    invalid_arg "Fault.spec: prob outside [0, 1]"
  | _ -> ());
  { site; after; count; prob; seed }

let parse s =
  let site, rest =
    match String.index_opt s '@' with
    | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
    | None -> (
      (* Allow SITExCOUNT with no @AFTER; the site itself may contain an
         'x', so only split on a final 'x' followed by digits or star. *)
      match String.rindex_opt s 'x' with
      | Some i
        when i < String.length s - 1
             && (let tail = String.sub s (i + 1) (String.length s - i - 1) in
                 tail = "*" || String.for_all (fun c -> c >= '0' && c <= '9') tail)
        -> (String.sub s 0 i, Some ("0x" ^ String.sub s (i + 1) (String.length s - i - 1)))
      | _ -> (s, None))
  in
  if site = "" then Error "empty fault site"
  else
    match rest with
    | None -> Ok (spec site)
    | Some r -> (
      let after_s, count_s =
        match String.index_opt r 'x' with
        | Some i ->
          (String.sub r 0 i, Some (String.sub r (i + 1) (String.length r - i - 1)))
        | None -> (r, None)
      in
      match int_of_string_opt after_s with
      | None -> Error (Printf.sprintf "bad fault AFTER %S" after_s)
      | Some after when after < 0 -> Error "fault AFTER < 0"
      | Some after -> (
        match count_s with
        | None -> Ok (spec ~after site)
        | Some "*" -> Ok (spec ~after ~count:max_int site)
        | Some c -> (
          match int_of_string_opt c with
          | Some count when count >= 1 -> Ok (spec ~after ~count site)
          | _ -> Error (Printf.sprintf "bad fault COUNT %S" c))))

let to_string sp =
  let base =
    let count = if sp.count = max_int then "*" else string_of_int sp.count in
    if sp.after = 0 && sp.count = 1 then sp.site
    else if sp.count = 1 then Printf.sprintf "%s@%d" sp.site sp.after
    else if sp.after = 0 then Printf.sprintf "%sx%s" sp.site count
    else Printf.sprintf "%s@%dx%s" sp.site sp.after count
  in
  match sp.prob with
  | None -> base
  | Some p -> Printf.sprintf "%s~%g:%d" base p sp.seed

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type armed_site = {
  sp : spec;
  mutable a_hits : int;
  mutable a_injections : int;
  rng : Rng.t option;  (* for probabilistic specs *)
}

let registry : (string, unit) Hashtbl.t = Hashtbl.create 16
let table : (string, armed_site) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()

(* Fast path: number of currently armed sites.  [fire] on a fully
   disarmed harness is one atomic load. *)
let n_armed = Atomic.make 0

let register site =
  Mutex.lock lock;
  if not (Hashtbl.mem registry site) then Hashtbl.add registry site ();
  Mutex.unlock lock;
  site

let sites () =
  Mutex.lock lock;
  let all = Hashtbl.fold (fun s () acc -> s :: acc) registry [] in
  Mutex.unlock lock;
  List.sort compare all

let arm sp =
  Mutex.lock lock;
  if not (Hashtbl.mem table sp.site) then Atomic.incr n_armed;
  Hashtbl.replace table sp.site
    { sp; a_hits = 0; a_injections = 0;
      rng = Option.map (fun _ -> Rng.create sp.seed) sp.prob };
  Mutex.unlock lock

let disarm site =
  Mutex.lock lock;
  if Hashtbl.mem table site then begin
    Hashtbl.remove table site;
    Atomic.decr n_armed
  end;
  Mutex.unlock lock

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Atomic.set n_armed 0;
  Mutex.unlock lock

let armed () =
  Mutex.lock lock;
  let l = Hashtbl.fold (fun _ a acc -> a.sp :: acc) table [] in
  Mutex.unlock lock;
  List.sort compare l

let fire site =
  if Atomic.get n_armed = 0 then false
  else begin
    Mutex.lock lock;
    let result =
      match Hashtbl.find_opt table site with
      | None -> false
      | Some a ->
        a.a_hits <- a.a_hits + 1;
        if a.a_hits <= a.sp.after || a.a_injections >= a.sp.count then false
        else begin
          let go =
            match (a.sp.prob, a.rng) with
            | Some p, Some rng -> Rng.float rng 1. < p
            | _ -> true
          in
          if go then a.a_injections <- a.a_injections + 1;
          go
        end
    in
    Mutex.unlock lock;
    result
  end

let trip site = if fire site then raise (Injected site)

let stat_of f site =
  Mutex.lock lock;
  let v = match Hashtbl.find_opt table site with None -> 0 | Some a -> f a in
  Mutex.unlock lock;
  v

let hits = stat_of (fun a -> a.a_hits)
let injections = stat_of (fun a -> a.a_injections)
