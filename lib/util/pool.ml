(* Fixed-size Domain-based worker pool (OCaml 5, stdlib only).

   Workers block on a condition variable over a shared queue of
   thunks; [map] fans a list out to the queue and waits for every
   element, writing results into a slot array so the output order is
   the input order regardless of completion order. With [jobs = 1] no
   domain is ever spawned and [map] degenerates to [List.map], so a
   pool value can be threaded unconditionally through serial code. *)

type task = unit -> unit

type t = {
  jobs : int;
  queue : task Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs

let rec worker pool =
  let next =
    Mutex.protect pool.lock (fun () ->
        while Queue.is_empty pool.queue && not pool.stopping do
          Condition.wait pool.work_available pool.lock
        done;
        Queue.take_opt pool.queue)
  in
  match next with
  | Some task ->
    task ();
    worker pool
  | None -> () (* stopping and drained *)

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      stopping = false;
      workers = [];
    }
  in
  if jobs > 1 then
    pool.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopping <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let map pool f xs =
  if pool.stopping then invalid_arg "Pool.map: pool already shut down";
  match xs with
  | [] -> []
  | _ when pool.workers = [] -> List.map f xs
  | xs ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    let remaining = ref n in
    Mutex.protect pool.lock (fun () ->
        if pool.stopping then invalid_arg "Pool.map: pool already shut down";
        Array.iteri
          (fun i x ->
            Queue.add
              (fun () ->
                let r = try Ok (f x) with e -> Error e in
                Mutex.protect done_lock (fun () ->
                    results.(i) <- Some r;
                    decr remaining;
                    if !remaining = 0 then Condition.signal all_done))
              pool.queue)
          items;
        Condition.broadcast pool.work_available);
    Mutex.protect done_lock (fun () ->
        while !remaining > 0 do
          Condition.wait all_done done_lock
        done);
    (* every slot is filled; re-raise the first failure in input order
       so error reporting is deterministic *)
    Array.to_list results
    |> List.map (function
         | Some (Ok y) -> y
         | Some (Error e) -> raise e
         | None -> assert false)
