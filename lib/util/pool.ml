(* Work-stealing deque (Chase–Lev shape, fixed capacity).

   The pool's batches are fully seeded before any worker is released and
   tasks never push follow-up work, so the hard parts of the published
   algorithm (growth, bottom/buffer races on concurrent push) do not
   arise: [push] runs only during the single-threaded seeding phase,
   [pop] only in the owner, [steal] in any domain.  [top] only ever
   increases and [bottom] only decreases (owner pops), which keeps the
   empty test [top >= bottom] conservative for thieves. *)
module Deque = struct
  type 'a t = {
    buf : 'a option array;
    top : int Atomic.t;     (* next index to steal *)
    bottom : int Atomic.t;  (* one past the last pushed index *)
  }

  let create cap =
    { buf = Array.make (Int.max 1 cap) None;
      top = Atomic.make 0;
      bottom = Atomic.make 0 }

  (* Seeding phase only — not safe concurrently with [pop]/[steal]. *)
  let push d x =
    let b = Atomic.get d.bottom in
    d.buf.(b) <- Some x;
    Atomic.set d.bottom (b + 1)

  (* Owner end (LIFO). *)
  let pop d =
    let b = Atomic.get d.bottom - 1 in
    Atomic.set d.bottom b;
    let t = Atomic.get d.top in
    if b < t then begin
      (* Deque was empty; undo. *)
      Atomic.set d.bottom t;
      None
    end
    else if b > t then d.buf.(b)
    else begin
      (* Single element left: race the thieves for it. *)
      let won = Atomic.compare_and_set d.top t (t + 1) in
      Atomic.set d.bottom (t + 1);
      if won then d.buf.(b) else None
    end

  (* Thief end (FIFO).  Retries internally on a lost CAS so [None]
     really means empty-at-some-point, which suffices because no task is
     pushed after the batch is released. *)
  let rec steal d =
    let t = Atomic.get d.top in
    let b = Atomic.get d.bottom in
    if t >= b then None
    else begin
      let x = d.buf.(t) in
      if Atomic.compare_and_set d.top t (t + 1) then x else steal d
    end
end

(* Fault site: a worker raising out of its task (the exception surfaces
   from [run] at the caller, like any task exception).  Sits in the pool
   wrapper, not in user tasks, so callers that catch their own task
   exceptions still see a pool-level worker failure as distinct. *)
let site_worker_exn = Fault.register "pool.worker_exn"

type batch = {
  deques : (worker:int -> unit) Deque.t array;
  abort : Abort.t option;  (* skip not-yet-started tasks once signalled *)
}

type t = {
  n_jobs : int;
  mutex : Mutex.t;
  work_cv : Condition.t;   (* workers wait here for a new epoch *)
  done_cv : Condition.t;   (* the caller waits here for the batch to end *)
  mutable epoch : int;
  mutable batch : batch option;
  mutable active : int;            (* spawned workers still in the batch *)
  mutable pending_exn : exn option;
  mutable closed : bool;
  mutable domains : unit Domain.t array;
}

let jobs t = t.n_jobs

(* Drain the batch from worker [w]'s point of view: own deque first, then
   steal round-robin.  Returns when a full scan finds every deque empty —
   final because tasks never add work.  When the batch carries an abort
   flag, tasks that have not started by the time it is signalled are
   popped and dropped unexecuted (the deques still must empty so the
   batch terminates); tasks already running observe the flag
   themselves. *)
let drain t b w =
  let j = Array.length b.deques in
  let rec next_task scanned i =
    if scanned >= j then None
    else
      match Deque.steal b.deques.((w + i) mod j) with
      | Some _ as task -> task
      | None -> next_task (scanned + 1) (i + 1)
  in
  let rec go () =
    let task =
      match Deque.pop b.deques.(w) with
      | Some _ as task -> task
      | None -> next_task 1 1
    in
    match task with
    | None -> ()
    | Some f ->
      let skip =
        match b.abort with Some a -> Abort.is_set a | None -> false
      in
      if not skip then
        (try f ~worker:w with
        | exn ->
          Mutex.lock t.mutex;
          if t.pending_exn = None then t.pending_exn <- Some exn;
          Mutex.unlock t.mutex);
      go ()
  in
  go ()

let worker_loop t w () =
  let my_epoch = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while (not t.closed) && t.epoch = !my_epoch do
      Condition.wait t.work_cv t.mutex
    done;
    if t.closed then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      my_epoch := t.epoch;
      let b = Option.get t.batch in
      Mutex.unlock t.mutex;
      drain t b w;
      Mutex.lock t.mutex;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.done_cv;
      Mutex.unlock t.mutex
    end
  done

let create ~jobs =
  let n_jobs = Int.max 1 (Int.min 64 jobs) in
  let t =
    { n_jobs;
      mutex = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      epoch = 0; batch = None; active = 0; pending_exn = None;
      closed = false; domains = [||] }
  in
  t.domains <- Array.init (n_jobs - 1) (fun i -> Domain.spawn (worker_loop t (i + 1)));
  t

let run ?abort t ~n f =
  if t.closed then invalid_arg "Pool.run: pool is shut down";
  if n > 0 then begin
    if t.n_jobs = 1 then
      for i = 0 to n - 1 do
        let skip =
          match abort with Some a -> Abort.is_set a | None -> false
        in
        if not skip then begin
          Fault.trip site_worker_exn;
          f ~worker:0 i
        end
      done
    else begin
      (* Deal tasks round-robin; deque j holds indices j, j + jobs, ... *)
      let cap = ((n - 1) / t.n_jobs) + 1 in
      let deques = Array.init t.n_jobs (fun _ -> Deque.create cap) in
      for i = 0 to n - 1 do
        Deque.push deques.(i mod t.n_jobs) (fun ~worker ->
            Fault.trip site_worker_exn;
            f ~worker i)
      done;
      let b = { deques; abort } in
      Mutex.lock t.mutex;
      t.batch <- Some b;
      t.pending_exn <- None;
      t.epoch <- t.epoch + 1;
      t.active <- t.n_jobs - 1;
      Condition.broadcast t.work_cv;
      Mutex.unlock t.mutex;
      drain t b 0;
      Mutex.lock t.mutex;
      while t.active > 0 do
        Condition.wait t.done_cv t.mutex
      done;
      t.batch <- None;
      let exn = t.pending_exn in
      t.pending_exn <- None;
      Mutex.unlock t.mutex;
      match exn with Some e -> raise e | None -> ()
    end
  end

let map t ~n f =
  let out = Array.make n None in
  run t ~n (fun ~worker i -> out.(i) <- Some (f ~worker i));
  Array.map Option.get out

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
