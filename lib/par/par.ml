(* A hand-rolled fixed-size domain pool. One mutex guards the job queue
   and the per-round completion count; [work] wakes idle workers when
   jobs arrive (or at shutdown), [finished] wakes the submitter when the
   last straggler of its round completes. Determinism comes from
   indexing, not scheduling: task i traps its own exception into slot i,
   and the submitter re-raises the lowest-indexed one once the
   round-wide count reaches zero (the mutex hand-off is also the
   happens-before edge publishing the workers' writes). *)

type pool = {
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable stop : bool;
}

let rec worker_loop t =
  Mutex.lock t.m;
  let job = ref None in
  let rec wait () =
    if not t.stop then begin
      match Queue.take_opt t.jobs with
      | Some j -> job := Some j
      | None ->
        Condition.wait t.work t.m;
        wait ()
    end
  in
  wait ();
  Mutex.unlock t.m;
  match !job with
  | Some j ->
    (* Jobs trap their own exceptions (see [round]); nothing escapes
       into the worker loop. *)
    j ();
    worker_loop t
  | None -> ()

let create ~size () =
  if size < 1 then invalid_arg "Par.create: size must be >= 1";
  let t =
    { workers = [||];
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      jobs = Queue.create ();
      stop = false
    }
  in
  t.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ~size f =
  let t = create ~size () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One synchronization round: n indexed tasks, full barrier on return.
   The PDES engine drives its conservative windows through this — each
   shard is one task, and the barrier is the round boundary where
   cross-shard outboxes become safe to merge. *)
let round t ~n ~f =
  if n < 0 then invalid_arg "Par.round: n must be >= 0";
  if n > 0 then begin
    let exns = Array.make n None in
    let remaining = ref n in
    let job i () =
      (try f i with e -> exns.(i) <- Some e);
      Mutex.lock t.m;
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.m
    in
    Mutex.lock t.m;
    for i = 0 to n - 1 do
      Queue.add (job i) t.jobs
    done;
    Condition.broadcast t.work;
    (* The submitter works the queue too — pool size 1 is exactly the
       sequential path — then sleeps until the last worker's task is
       in. *)
    let rec help () =
      match Queue.take_opt t.jobs with
      | Some j ->
        Mutex.unlock t.m;
        j ();
        Mutex.lock t.m;
        help ()
      | None -> ()
    in
    help ();
    while !remaining > 0 do
      Condition.wait t.finished t.m
    done;
    Mutex.unlock t.m;
    Array.iter (function Some e -> raise e | None -> ()) exns
  end

let recommended () = Domain.recommended_domain_count ()
