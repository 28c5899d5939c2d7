module Tol = Fp_geometry.Tol
module Degradation = Fp_core.Degradation
module Pool = Fp_util.Pool
module Abort = Fp_util.Abort
module Rng = Fp_util.Rng

let src = Logs.Src.create "fp.portfolio" ~doc:"solver portfolio racer"

module Log = (val Logs.src_log src : Logs.LOG)

type policy = Best_certified | First_certified

type entry = { solver_name : string; outcome : Solver.outcome; ran : bool }

type report = {
  winner : entry option;
  entries : entry list;
  wall_time : float;
  policy : policy;
}

(* Outcome for an engine the racer never started (abort was already set
   when its task came up) or that died: no plan, zero effort. *)
let null_outcome ~engine ~degradations =
  {
    Solver.plan = None;
    stats =
      {
        Solver.engine; wall_time = 0.; work = 0; objective = infinity;
        certified = false; complete = false; degradations; detail = [];
      };
  }

let race ?(policy = Best_certified) ?jobs ~engines ~scenario nl =
  if engines = [] then invalid_arg "Portfolio.race: no engines";
  let t0 = Unix.gettimeofday () in
  let engines = Array.of_list engines in
  let n = Array.length engines in
  let jobs = Option.value jobs ~default:n in
  let abort = Abort.create () in
  let deadline =
    Option.map (fun b -> t0 +. b) scenario.Solver.time_budget
  in
  (* One context per engine, built before any task runs: a private RNG
     seeded identically for every engine (engines differ, streams must
     not depend on batch scheduling), the shared abort flag, the shared
     absolute deadline. *)
  let contexts =
    Array.map
      (fun _ -> { Solver.rng = Rng.create scenario.Solver.seed; abort; deadline })
      engines
  in
  let results = Array.make n None in
  let run_one i =
    let s = engines.(i) in
    let started = Unix.gettimeofday () in
    let outcome =
      try s.Solver.solve contexts.(i) scenario nl with
      | Abort.Abort -> raise Abort.Abort
      | exn ->
        let msg = Printexc.to_string exn in
        Log.warn (fun f -> f "engine %s failed: %s" s.Solver.name msg);
        let o =
          null_outcome ~engine:s.Solver.name
            ~degradations:[ (0, Degradation.Engine_failed msg) ]
        in
        { o with
          Solver.stats =
            { o.Solver.stats with
              Solver.wall_time = Unix.gettimeofday () -. started } }
    in
    results.(i) <- Some outcome;
    match policy with
    | Best_certified -> ()
    | First_certified ->
      if outcome.Solver.stats.Solver.certified then begin
        Log.info (fun f ->
            f "engine %s certified first; signalling the race" s.Solver.name);
        Abort.signal abort
      end
  in
  (match policy with
  | Best_certified -> Pool.run ~jobs ~n run_one
  | First_certified -> Pool.run ~abort ~jobs ~n run_one);
  let entries =
    List.init n (fun i ->
        match results.(i) with
        | Some outcome ->
          { solver_name = engines.(i).Solver.name; outcome; ran = true }
        | None ->
          (* Skipped by the abort fast-path before it started. *)
          {
            solver_name = engines.(i).Solver.name;
            outcome =
              null_outcome ~engine:engines.(i).Solver.name ~degradations:[];
            ran = false;
          })
  in
  (* Winner: lowest scenario objective among certified outcomes, ties to
     the earliest engine in the given order.  The fold keeps the first
     strictly-better entry, so the selection is a pure function of the
     per-engine results — deterministic whenever they are. *)
  let winner =
    List.fold_left
      (fun acc e ->
        if not e.outcome.Solver.stats.Solver.certified then acc
        else
          match acc with
          | None -> Some e
          | Some b ->
            if
              Tol.lt e.outcome.Solver.stats.Solver.objective
                b.outcome.Solver.stats.Solver.objective
            then Some e
            else acc)
      None entries
  in
  { winner; entries; wall_time = Unix.gettimeofday () -. t0; policy }

let degradations_of report =
  match report.winner with
  | None -> []
  | Some e -> List.map snd e.outcome.Solver.stats.Solver.degradations
