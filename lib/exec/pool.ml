(* Work-stealing domain pool. Tasks of a batch are dealt round-robin
   into one deque per worker; owners pop from the front, thieves take
   from the back. Deques are tiny (one slot per task index) and tasks
   are coarse (whole simulation runs), so a mutex per deque costs
   nothing measurable; the stealing is what keeps domains busy when
   point runtimes are skewed. *)

type deque = {
  ids : int array; (* task indices initially owned by this worker *)
  mutable lo : int; (* next index for the owner *)
  mutable hi : int; (* one past the last unstolen index *)
  lock : Mutex.t;
}

type batch = {
  run_task : int -> unit; (* never raises *)
  deques : deque array;
  remaining : int Atomic.t; (* tasks not yet finished *)
}

type t = {
  n_workers : int; (* worker domains + calling domain *)
  mutable domains : unit Domain.t array;
  lock : Mutex.t;
  work_cv : Condition.t; (* new batch available / shutting down *)
  done_cv : Condition.t; (* batch finished *)
  mutable batch : batch option;
  mutable generation : int;
  mutable stop : bool;
}

let default_jobs () =
  match Sys.getenv_opt "PAXI_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ ->
          invalid_arg
            (Printf.sprintf "PAXI_JOBS=%S: expected a positive integer" s))
  | None -> Stdlib.max 1 (Domain.recommended_domain_count ())


let take_own (d : deque) =
  Mutex.lock d.lock;
  let r =
    if d.lo < d.hi then begin
      let i = d.ids.(d.lo) in
      d.lo <- d.lo + 1;
      Some i
    end
    else None
  in
  Mutex.unlock d.lock;
  r

let steal (d : deque) =
  Mutex.lock d.lock;
  let r =
    if d.lo < d.hi then begin
      d.hi <- d.hi - 1;
      Some d.ids.(d.hi)
    end
    else None
  in
  Mutex.unlock d.lock;
  r

(* Run batch tasks as worker [wid] until no task can be obtained. *)
let work pool batch wid =
  let w = Array.length batch.deques in
  let finish_one () =
    if Atomic.fetch_and_add batch.remaining (-1) = 1 then begin
      Mutex.lock pool.lock;
      Condition.broadcast pool.done_cv;
      Mutex.unlock pool.lock
    end
  in
  let rec next_task () =
    match take_own batch.deques.(wid) with
    | Some i -> Some i
    | None ->
        let rec try_steal k =
          if k >= w then None
          else
            match steal batch.deques.((wid + k) mod w) with
            | Some i -> Some i
            | None -> try_steal (k + 1)
        in
        try_steal 1
  and loop () =
    match next_task () with
    | Some i ->
        batch.run_task i;
        finish_one ();
        loop ()
    | None -> ()
  in
  loop ()

let worker_main pool wid () =
  let seen = ref 0 in
  Mutex.lock pool.lock;
  while not pool.stop do
    match pool.batch with
    | Some b when pool.generation > !seen ->
        seen := pool.generation;
        Mutex.unlock pool.lock;
        work pool b wid;
        Mutex.lock pool.lock
    | _ -> Condition.wait pool.work_cv pool.lock
  done;
  Mutex.unlock pool.lock

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      n_workers = jobs;
      domains = [||];
      lock = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      batch = None;
      generation = 0;
      stop = false;
    }
  in
  pool.domains <-
    Array.init (jobs - 1) (fun wid -> Domain.spawn (worker_main pool wid));
  pool

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stop <- true;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.lock;
  Array.iter Domain.join pool.domains;
  pool.domains <- [||]

let run_batch pool ~n run_task =
  if n > 0 then
    if Array.length pool.domains = 0 then
      (* sequential escape hatch: no domains, submission order *)
      for i = 0 to n - 1 do
        run_task i
      done
    else begin
      let w = pool.n_workers in
      let deques =
        Array.init w (fun wid ->
            (* indices wid, wid+w, wid+2w, ... *)
            let ids =
              Array.init ((n - wid + w - 1) / w) (fun k -> wid + (k * w))
            in
            { ids; lo = 0; hi = Array.length ids; lock = Mutex.create () })
      in
      let batch = { run_task; deques; remaining = Atomic.make n } in
      Mutex.lock pool.lock;
      pool.batch <- Some batch;
      pool.generation <- pool.generation + 1;
      Condition.broadcast pool.work_cv;
      Mutex.unlock pool.lock;
      (* the calling domain is the last worker *)
      work pool batch (w - 1);
      Mutex.lock pool.lock;
      while Atomic.get batch.remaining > 0 do
        Condition.wait pool.done_cv pool.lock
      done;
      pool.batch <- None;
      Mutex.unlock pool.lock
    end

let run_array pool fs =
  let n = Array.length fs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let first_error = Atomic.make None in
    let run_task i =
      match fs.(i) () with
      | v -> results.(i) <- Some v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set first_error None (Some (e, bt)))
    in
    run_batch pool ~n run_task;
    (match Atomic.get first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

let run_list pool fs = Array.to_list (run_array pool (Array.of_list fs))

let default_pool = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
      let p = create () in
      default_pool := Some p;
      at_exit (fun () -> shutdown p);
      p
