(* Domain-parallel fork-join pool. See par.mli for the design notes and
   the OCaml >= 5.1 requirement (Domain/Atomic + domain-safe Mutex). *)

let recommended_jobs () = Domain.recommended_domain_count ()

module Pool = struct
  (* One "job": run [work 0 .. work (n - 1)]. Workers grab [chunk]-sized
     index ranges from [next]; an index is executed by exactly one
     worker. *)
  type job = { work : int -> unit; n : int; next : int Atomic.t; chunk : int }

  type t = {
    lock : Mutex.t;
    wake : Condition.t; (* workers: a new generation was posted *)
    idle : Condition.t; (* submitter: all workers finished the job *)
    mutable job : job option;
    mutable generation : int;
    mutable busy : int; (* spawned workers still on the current job *)
    mutable quit : bool;
    mutable failure : exn option;
    mutable domains : unit Domain.t list;
  }

  let size t = List.length t.domains + 1

  (* Drain the job's index space. Any exception from user work is
     parked in [t.failure] (first writer wins) and the remaining
     indices are abandoned by saturating the counter; the submitter
     re-raises after the join barrier. *)
  let execute t job =
    let rec grab () =
      let lo = Atomic.fetch_and_add job.next job.chunk in
      if lo < job.n then begin
        let hi = min job.n (lo + job.chunk) in
        (try
           for i = lo to hi - 1 do
             job.work i
           done
         with e ->
           Mutex.lock t.lock;
           if t.failure = None then t.failure <- Some e;
           Mutex.unlock t.lock;
           Atomic.set job.next job.n);
        grab ()
      end
    in
    grab ()

  let rec worker t seen =
    Mutex.lock t.lock;
    while (not t.quit) && t.generation = seen do
      Condition.wait t.wake t.lock
    done;
    if t.quit then Mutex.unlock t.lock
    else begin
      let gen = t.generation in
      let job = Option.get t.job in
      Mutex.unlock t.lock;
      execute t job;
      Mutex.lock t.lock;
      t.busy <- t.busy - 1;
      if t.busy = 0 then Condition.broadcast t.idle;
      Mutex.unlock t.lock;
      worker t gen
    end

  let create jobs =
    let t =
      {
        lock = Mutex.create ();
        wake = Condition.create ();
        idle = Condition.create ();
        job = None;
        generation = 0;
        busy = 0;
        quit = false;
        failure = None;
        domains = [];
      }
    in
    t.domains <-
      List.init (max 0 (jobs - 1)) (fun _ -> Domain.spawn (fun () -> worker t 0));
    t

  let run t ~n work =
    if n > 0 then begin
      let spawned = List.length t.domains in
      let chunk = max 1 (n / (8 * (spawned + 1))) in
      let job = { work; n; next = Atomic.make 0; chunk } in
      Mutex.lock t.lock;
      t.job <- Some job;
      t.failure <- None;
      t.busy <- spawned;
      t.generation <- t.generation + 1;
      Condition.broadcast t.wake;
      Mutex.unlock t.lock;
      (* The submitting domain is a worker too. *)
      execute t job;
      Mutex.lock t.lock;
      while t.busy > 0 do
        Condition.wait t.idle t.lock
      done;
      let failure = t.failure in
      t.job <- None;
      t.failure <- None;
      Mutex.unlock t.lock;
      match failure with Some e -> raise e | None -> ()
    end

  let map t f arr =
    let n = Array.length arr in
    if n = 0 then [||]
    else begin
      (* Option slots: each index is written by exactly one worker and
         read only after the join barrier, so there is no data race. *)
      let out = Array.make n None in
      run t ~n (fun i -> out.(i) <- Some (f arr.(i)));
      Array.map (function Some v -> v | None -> assert false) out
    end

  let shutdown t =
    Mutex.lock t.lock;
    t.quit <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    List.iter Domain.join t.domains;
    t.domains <- []
end

let with_pool ?jobs f =
  let jobs = match jobs with Some j -> j | None -> recommended_jobs () in
  let pool = Pool.create jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let map ?(jobs = 1) f arr =
  if jobs <= 1 then Array.map f arr
  else with_pool ~jobs (fun pool -> Pool.map pool f arr)
