(* Fault site: a worker raising out of its task (the exception surfaces
   from [run] at the caller, like any task exception).  Sits in the
   batch wrapper, not in user tasks, so callers that catch their own task
   exceptions still see a pool-level worker failure as distinct. *)
let site_worker_exn = Fault.register "pool.worker_exn"

(* One worker: take task indices from the shared counter until it runs
   past [n].  A raising task does not stop the worker — the batch
   still drains — and the first exception it raised is returned, for
   [run] to re-raise once every domain is joined. *)
let work ?abort ~next ~n f () =
  let failed = ref None in
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let skip = match abort with Some a -> Abort.is_set a | None -> false in
      if not skip then begin
        try
          Fault.trip site_worker_exn;
          f i
        with exn -> if Option.is_none !failed then failed := Some exn
      end;
      loop ()
    end
  in
  loop ();
  !failed

let run ?abort ~jobs ~n f =
  let jobs = Int.max 1 (Int.min jobs n) in
  let next = Atomic.make 0 in
  let spawned =
    Array.init (jobs - 1) (fun _ -> Domain.spawn (work ?abort ~next ~n f))
  in
  let own = work ?abort ~next ~n f () in
  let failed = Array.map Domain.join spawned in
  match List.find_map Fun.id (own :: Array.to_list failed) with
  | Some exn -> raise exn
  | None -> ()

let map ~jobs ~n f =
  let out = Array.make n None in
  run ~jobs ~n (fun i -> out.(i) <- Some (f i));
  Array.map Option.get out
