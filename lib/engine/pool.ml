(* One FIFO job queue under [pool.lock].

   [submit] pushes one job; [run_batch] pushes its jobs behind one
   per-batch countdown latch.  Workers pop jobs until [stopping] is set
   and the queue is empty, sleeping on [nonempty] while the queue is
   empty — the emptiness check and the push happen under the same lock,
   so a wakeup cannot be lost.

   Crash containment: Engine.handle is total, but the pool does not
   trust that — a per-job catch turns any escaping exception into a
   per-request error response, and a worker whose domain nonetheless
   dies (e.g. the crash-injection hook, or an exception from outside
   the per-job region) fails only its in-flight request and respawns a
   replacement into the same slot, which serves the same queue.  A
   batch therefore always yields exactly one response per request. *)

exception Injected_crash

(* A job answers in the form its caller reads: [run_batch] the typed
   response ([Engine.handle]), [submit] and [serve_batch] the encoded
   one the wire writes ([Engine.serve]). *)
type job =
  | Job : {
      request : Request.t;
      eval : ?queued_s:float -> Engine.t -> Request.t -> 'body Request.reply;
      reply : 'body Request.reply -> unit;
          (* called exactly once: by the serving worker, by the dying
             worker for its in-flight job, or by the last dead worker's
             drain *)
      enqueued_at : float;
          (* wall clock at enqueue when tracing is on (the trace's
             queue-wait span), 0. otherwise — no gettimeofday on the
             untraced path *)
    }
      -> job

type slot = { mutable inflight : job option; mutable engine : Engine.t option }

type t = {
  lock : Mutex.t;  (* guards queue, stopping, domains, respawns_left *)
  nonempty : Condition.t;
  queue : job Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
      (* every domain ever spawned, replacements included; joined at
         shutdown (dead domains join instantly) *)
  mutable respawns_left : int;
  alive : int Atomic.t;
      (* workers not yet gone for good; written only under [lock], read
         without it by [shutdown_result]'s poll *)
  slots : slot array;
  deaths : int Atomic.t;
  retired_raw : int Atomic.t;
      (* Def. 3.9 breakdown of questions asked by engines of dead
         workers: raw Rᵢ / T_B / ≅_B questions and cache hits, folded
         in at death so the pool ledger never loses a crashed worker's
         spending *)
  retired_tb : int Atomic.t;
  retired_equiv : int Atomic.t;
  retired_hits : int Atomic.t;
  shared : Shared_memo.t;
  engine_config : Engine.config option;
  crash_on : (Request.t -> bool) option;
  tracing : Obs.Trace.sampling;
  trace_ctxs : Obs.Trace.t option array;
      (* one ctx per slot, owned by whichever worker currently holds the
         slot (a replacement inherits its predecessor's ring) *)
  m_deaths : Metrics.counter;
  m_respawns : Metrics.counter;
}

(* Answer a job with [Worker_crash] instead of evaluating it. *)
let crash_response (request : Request.t) msg =
  {
    Request.id = request.Request.id;
    result = Error (Request.Worker_crash msg);
    cert = Request.Cert_exact;
    stats = Request.zero_stats;
  }

let fail (Job { request; reply; _ }) msg = reply (crash_response request msg)

(* The next job, sleeping while the queue is empty; [None] once the
   pool is stopping and nothing is left.  Called under [pool.lock]. *)
let rec next_job pool =
  match Queue.take_opt pool.queue with
  | Some _ as job -> job
  | None when pool.stopping -> None
  | None ->
      Condition.wait pool.nonempty pool.lock;
      next_job pool

let rec worker_main pool slot_idx () =
  let slot = pool.slots.(slot_idx) in
  match
    let engine =
      Engine.create ?config:pool.engine_config ~shared:pool.shared
        ?trace:pool.trace_ctxs.(slot_idx) ()
    in
    slot.engine <- Some engine;
    let serve (Job { request; eval; reply; enqueued_at } as job) =
      slot.inflight <- Some job;
      (match pool.crash_on with
      | Some p when p request -> raise Injected_crash
      | _ -> ());
      let queued_s =
        if enqueued_at > 0.0 then
          Some (Float.max 0.0 (Unix.gettimeofday () -. enqueued_at))
        else None
      in
      let response =
        (* Engine.handle and Engine.serve are total; this catch is the
           containment backstop for bugs and asynchronous exceptions. *)
        match eval ?queued_s engine request with
        | r -> r
        | exception e ->
            crash_response request ("request raised " ^ Printexc.to_string e)
      in
      slot.inflight <- None;
      reply response
    in
    let rec loop () =
      Mutex.lock pool.lock;
      let job = next_job pool in
      Mutex.unlock pool.lock;
      match job with
      | Some job ->
          serve job;
          loop ()
      | None -> ()
    in
    loop ()
  with
  | () ->
      Mutex.lock pool.lock;
      Atomic.decr pool.alive;
      Mutex.unlock pool.lock
  | exception e ->
      (* The worker is dying.  Contain the damage: fail only the
         in-flight request, then hand the slot to a replacement. *)
      let msg = Printexc.to_string e in
      Atomic.incr pool.deaths;
      Metrics.incr pool.m_deaths;
      (match slot.engine with
      | Some engine ->
          let raw, tb, eq, hits = Engine.ledger_counts engine in
          ignore (Atomic.fetch_and_add pool.retired_raw raw);
          ignore (Atomic.fetch_and_add pool.retired_tb tb);
          ignore (Atomic.fetch_and_add pool.retired_equiv eq);
          ignore (Atomic.fetch_and_add pool.retired_hits hits);
          slot.engine <- None
      | None -> ());
      let inflight = slot.inflight in
      slot.inflight <- None;
      Option.iter (fun job -> fail job msg) inflight;
      (* Respawn, or leave for good — and if we were the last worker,
         take the queue with us — in one critical section, so two
         workers dying at once cannot both see the other alive. *)
      Mutex.lock pool.lock;
      let stranded =
        if (not pool.stopping) && pool.respawns_left > 0 then begin
          pool.respawns_left <- pool.respawns_left - 1;
          Metrics.incr pool.m_respawns;
          pool.domains <-
            Domain.spawn (worker_main pool slot_idx) :: pool.domains;
          []
        end
        else begin
          Atomic.decr pool.alive;
          if Atomic.get pool.alive > 0 then []
          else begin
            let jobs = List.of_seq (Queue.to_seq pool.queue) in
            Queue.clear pool.queue;
            jobs
          end
        end
      in
      Mutex.unlock pool.lock;
      let msg = "worker died without replacement: " ^ msg in
      List.iter (fun job -> fail job msg) stranded

let create ?domains ?engine_config ?crash_on ?(max_respawns = 1000) ?shared
    ?(tracing = Obs.Trace.Off) () =
  let n =
    match domains with
    | Some n ->
        if n < 1 then invalid_arg "Pool.create: domains < 1";
        n
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let pool =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      domains = [];
      respawns_left = max_respawns;
      alive = Atomic.make n;
      slots = Array.init n (fun _ -> { inflight = None; engine = None });
      deaths = Atomic.make 0;
      retired_raw = Atomic.make 0;
      retired_tb = Atomic.make 0;
      retired_equiv = Atomic.make 0;
      retired_hits = Atomic.make 0;
      shared =
        (match shared with
        | Some memo -> memo (* caller-owned, e.g. pre-seeded from a store *)
        | None -> Shared_memo.create ());
      engine_config;
      crash_on;
      tracing;
      trace_ctxs =
        Array.init n (fun _ ->
            if tracing = Obs.Trace.Off then None
            else Some (Obs.Trace.make ~sampling:tracing ()));
      m_deaths = Metrics.counter "pool.worker_deaths";
      m_respawns = Metrics.counter "pool.respawns";
    }
  in
  Mutex.lock pool.lock;
  for slot_idx = 0 to n - 1 do
    pool.domains <- Domain.spawn (worker_main pool slot_idx) :: pool.domains
  done;
  Mutex.unlock pool.lock;
  pool

let size pool = Array.length pool.slots
let worker_deaths pool = Atomic.get pool.deaths
let tracing pool = pool.tracing

(* Enqueue timestamp for the trace's queue-wait span; 0. (no clock
   read) when tracing is off. *)
let stamp pool =
  if pool.tracing = Obs.Trace.Off then 0.0 else Unix.gettimeofday ()

let traces pool =
  Array.to_list pool.trace_ctxs
  |> List.concat_map (function None -> [] | Some c -> Obs.Trace.traces c)
  |> List.sort (fun a b ->
         compare a.Obs.Trace.at_s b.Obs.Trace.at_s)

(* Push [jobs] and wake up to one idle worker per job.  Raises
   [Invalid_argument caller] on a stopped pool.  With every worker gone
   for good (respawns exhausted), nobody would ever serve the jobs, so
   they are failed at once instead. *)
let enqueue pool ~caller jobs =
  Mutex.lock pool.lock;
  if pool.stopping then begin
    Mutex.unlock pool.lock;
    invalid_arg (caller ^ ": pool is shut down")
  end;
  let orphaned = Atomic.get pool.alive = 0 in
  if not orphaned then begin
    List.iter (fun job -> Queue.push job pool.queue) jobs;
    for _ = 1 to min (List.length jobs) (size pool) do
      Condition.signal pool.nonempty
    done
  end;
  Mutex.unlock pool.lock;
  if orphaned then List.iter (fun job -> fail job "no worker left") jobs

let batch ~caller eval pool requests =
  let m = List.length requests in
  if m = 0 then []
  else begin
    let results = Array.make m None in
    let remaining = ref m in
    let latch = Mutex.create () and finished = Condition.create () in
    let enqueued_at = stamp pool in
    let job index request =
      let reply response =
        Mutex.lock latch;
        results.(index) <- Some response;
        decr remaining;
        if !remaining = 0 then Condition.signal finished;
        Mutex.unlock latch
      in
      Job { request; eval; reply; enqueued_at }
    in
    enqueue pool ~caller (List.mapi job requests);
    Mutex.lock latch;
    while !remaining > 0 do
      Condition.wait finished latch
    done;
    Mutex.unlock latch;
    Array.to_list (Array.map Option.get results)
  end

let run_batch pool = batch ~caller:"Pool.run_batch" Engine.handle pool
let serve_batch pool = batch ~caller:"Pool.serve_batch" Engine.serve pool

let submit pool request reply =
  enqueue pool ~caller:"Pool.submit"
    [ Job { request; eval = Engine.serve; reply; enqueued_at = stamp pool } ]

let ledger_counts pool =
  Array.fold_left
    (fun (raw, tb, eq, hits) slot ->
      match slot.engine with
      | Some e ->
          let r, t, q, h = Engine.ledger_counts e in
          (raw + r, tb + t, eq + q, hits + h)
      | None -> (raw, tb, eq, hits))
    ( Atomic.get pool.retired_raw,
      Atomic.get pool.retired_tb,
      Atomic.get pool.retired_equiv,
      Atomic.get pool.retired_hits )
    pool.slots

let oracle_questions pool =
  let raw, tb, eq, _ = ledger_counts pool in
  raw + tb + eq

let shared_stats pool = Shared_memo.stats pool.shared

(* Aggregate LRU stats over the live workers' engines.  [slot.engine]
   is written once by each worker at startup; this read races only
   with a death/respawn and at worst misses one engine's numbers for a
   moment — fine for a scrape. *)
let cache_stats pool =
  Array.fold_left
    (fun acc slot ->
      match slot.engine with
      | Some e ->
          let s = Engine.cache_stats e in
          Oracle_cache.
            {
              hits = acc.hits + s.hits;
              misses = acc.misses + s.misses;
              evictions = acc.evictions + s.evictions;
            }
      | None -> acc)
    Oracle_cache.{ hits = 0; misses = 0; evictions = 0 }
    pool.slots

let shutdown_result ?(timeout_s = infinity) pool =
  Mutex.lock pool.lock;
  pool.stopping <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock;
  let deadline =
    if timeout_s = infinity then infinity
    else Unix.gettimeofday () +. timeout_s
  in
  let rec wait () =
    if Atomic.get pool.alive = 0 then begin
      (* All workers have left their loops; joining reaps the domains
         (dead replacements' predecessors join instantly). *)
      Mutex.lock pool.lock;
      let ds = pool.domains in
      pool.domains <- [];
      Mutex.unlock pool.lock;
      List.iter Domain.join ds;
      `Clean
    end
    else if Unix.gettimeofday () > deadline then
      (* Some worker is stuck in a request; leave its domain behind
         rather than hang the caller (the pool is stopping, so it can
         serve nothing further). *)
      `Timed_out (Atomic.get pool.alive)
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ()

let shutdown ?timeout_s pool = ignore (shutdown_result ?timeout_s pool)
