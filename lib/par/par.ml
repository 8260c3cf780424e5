(* A fixed set of worker domains around one FIFO queue.  Submission
   ([map]) enqueues one closure per element and then the submitting
   domain joins the drain loop, so a pool of [jobs = n] runs at most
   [n] tasks concurrently ([n - 1] workers + the submitter) and nested
   [map]s on one pool always make progress: a parked submitter only
   parks when the queue is empty, and a nested submitter executes
   whatever is at the head of the queue — possibly its parent batch's
   tasks — until its own are done. *)

let c_workers = Obs.Counter.make "par.workers"
let c_tasks = Obs.Counter.make "par.tasks"
let h_pool_ms = Obs.Histogram.make "par.pool_ms"

type pool = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (** a task was enqueued, or [stop] was raised *)
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

(* Tasks never raise: [map] wraps each element in its own
   capture-into-slot closure. *)
let worker pool =
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue && not pool.stop do
      Condition.wait pool.work pool.mutex
    done;
    match Queue.take_opt pool.queue with
    | Some task ->
        Mutex.unlock pool.mutex;
        task ()
    | None ->
        (* empty and stopping *)
        Mutex.unlock pool.mutex;
        running := false
  done

let create ~jobs =
  let jobs = if jobs < 1 then 1 else jobs in
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
    }
  in
  let workers = jobs - 1 in
  if workers > 0 then begin
    pool.domains <- List.init workers (fun _ -> Domain.spawn (fun () -> worker pool));
    Obs.Counter.add c_workers workers
  end;
  pool

let jobs pool = pool.jobs
let worker_count pool = List.length pool.domains

let shutdown pool =
  let domains =
    Mutex.protect pool.mutex (fun () ->
        pool.stop <- true;
        Condition.broadcast pool.work;
        let d = pool.domains in
        pool.domains <- [];
        d)
  in
  List.iter Domain.join domains

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let map_array pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if pool.jobs <= 1 || n <= 1 then Array.map f arr
  else begin
    Obs.Counter.add c_tasks n;
    let t0 = Unix.gettimeofday () in
    let results = Array.make n None in
    let remaining = Atomic.make n in
    let finished = Condition.create () in
    let run_task i =
      let r =
        try Ok (f arr.(i))
        with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      results.(i) <- Some r;
      (* the atomic decrement publishes the slot write; the submitter
         reads the slots only after it has observed zero *)
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock pool.mutex;
        Condition.broadcast finished;
        Mutex.unlock pool.mutex
      end
    in
    Mutex.lock pool.mutex;
    for i = 0 to n - 1 do
      Queue.add (fun () -> run_task i) pool.queue
    done;
    Condition.broadcast pool.work;
    (* help drain; park only while the queue is empty but tasks (of
       this or any concurrent batch) are still in flight on workers *)
    while Atomic.get remaining > 0 do
      match Queue.take_opt pool.queue with
      | Some task ->
          Mutex.unlock pool.mutex;
          task ();
          Mutex.lock pool.mutex
      | None -> if Atomic.get remaining > 0 then Condition.wait finished pool.mutex
    done;
    Mutex.unlock pool.mutex;
    Obs.Histogram.observe h_pool_ms ((Unix.gettimeofday () -. t0) *. 1000.0);
    (* every slot has settled; Array.map visits slots in index order,
       so the lowest-index failure re-raises deterministically *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let map pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when pool.jobs <= 1 -> List.map f xs
  | _ -> Array.to_list (map_array pool f (Array.of_list xs))

let iter pool f xs = ignore (map pool (fun x -> f x) xs)

let default_jobs () =
  match Sys.getenv_opt "SIT_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)
