(** A crash-contained, Domain-based worker pool serving requests in
    parallel from one job queue, over a shared read-mostly memo layer.

    [create ~domains ()] spawns [domains] worker domains, each owning a
    private {!Engine.t} (engines are not thread-safe; private engines
    make locking unnecessary on the hot path).  Every worker engine is
    plugged into one {!Shared_memo.t}, so expensive cross-request
    answers computed by one worker are memo hits for the others — see
    {!Shared_memo} for why this preserves both byte-identity and the
    paper's Def. 3.9 question accounting.

    {b Dispatch.}  One FIFO queue of jobs under one lock.  {!submit}
    pushes one job; {!run_batch} pushes its jobs behind one per-batch
    countdown latch, blocks until every request of the batch has been
    answered and returns the responses {e in request order}.  Each push
    signals at most one idle worker per job (no broadcast), and a worker
    sleeps only after finding the queue empty under the same lock the
    pusher signals under, so wakeups cannot be lost.  Workers pop jobs
    until the pool is stopping and the queue is empty.

    {b Containment.}  A batch always yields exactly one response per
    request.  {!Engine.handle} is total, and the pool adds two further
    layers: an exception escaping a request becomes that request's
    [Worker_crash] error response, and a worker whose domain dies
    outright (see [crash_on]) fails only its in-flight request — the
    pool detects the death, spawns a replacement into the same slot
    (counted by [pool.worker_deaths] / [pool.respawns] metrics and
    {!worker_deaths}), and the replacement serves the same queue, so
    the rest of the batch completes normally.  A dying worker decides
    under the pool lock whether it is the last one with no respawn
    left; if it is, it fails every queued job with [Worker_crash]
    rather than stranding the caller, and jobs pushed after that fail
    at once the same way.

    Correctness guarantee: with no fault injection and no evaluation
    limits configured, every response's [result] is byte-identical (as
    JSON, stats excluded) to what {!Engine.handle_all} produces
    sequentially, whatever the interleaving — request evaluation is a
    deterministic function of the request, and the only cross-worker
    mutable state, the shared memo, stores only completed deterministic
    answers.  Only the [stats] fields differ run to run (wall times;
    cache hit counts depend on which worker served earlier requests for
    the same instance).  Under injected faults the guarantee weakens
    to: every non-faulted result (anything but [Oracle_unavailable] /
    [Worker_crash]) is still byte-identical to sequential, because
    injection never changes an oracle's answer — the chaos test asserts
    exactly this.  Budget/deadline errors depend on each worker's cache
    warmth and so may differ from a sequential run; they are typed
    partial answers, not nondeterministic values.

    Batches and single jobs may be submitted from several client
    threads concurrently; their jobs interleave in the queue.
    {!shutdown} lets the workers finish every queued job, then joins
    their domains, giving up after [timeout_s] if a worker is stuck.
    Submitting to a pool after {!shutdown} raises. *)

type t

exception Injected_crash
(** What the [crash_on] hook raises inside a worker — deliberately
    outside the per-job containment, so it kills the whole domain and
    exercises the death-detection/respawn path. *)

val create :
  ?domains:int ->
  ?engine_config:Engine.config ->
  ?crash_on:(Request.t -> bool) ->
  ?max_respawns:int ->
  ?shared:Shared_memo.t ->
  ?tracing:Obs.Trace.sampling ->
  unit ->
  t
(** [domains] defaults to [Domain.recommended_domain_count () - 1],
    clamped to at least 1.  Raises [Invalid_argument] on [domains < 1].
    [engine_config] is passed to each worker's engine (fault-injection
    seeds are shared; schedules still differ per worker because call
    sequences do).  [crash_on] is the chaos-testing hook: a worker about
    to serve a matching request dies instead (see {!Injected_crash}).
    [max_respawns] (default 1000) bounds replacement spawns so a
    deterministic crash-on-everything configuration cannot fork-bomb.
    [shared] is the memo layer all workers share; by default the pool
    creates a fresh one, and a caller may plug in its own (e.g. one
    pre-seeded from a [lib/store] snapshot).

    [tracing] (default [Off]) gives every worker engine a private
    {!Obs.Trace} ctx with the given sampling; sampled requests produce
    span trees (queue wait, parse, retry attempts) with exact Def. 3.9
    ledger slices, collected by {!traces}.  Each worker keeps its 256
    most recent traces.  With tracing on, jobs carry their enqueue
    timestamp so traces show the queue wait; nothing else changes —
    responses stay byte-identical (E28). *)

val size : t -> int
(** Number of worker slots. *)

val worker_deaths : t -> int
(** Workers this pool has lost (and, up to [max_respawns],
    replaced). *)

val tracing : t -> Obs.Trace.sampling
(** The sampling mode this pool was created with. *)

val traces : t -> Obs.Trace.trace list
(** Completed traces across all worker rings, ordered by start time.
    Empty when created with [tracing:Off]. *)

val run_batch : t -> Request.t list -> Request.response list
(** Evaluate all requests, in parallel, preserving order; exactly one
    response per request, whatever faults or crashes occur.  Raises
    [Invalid_argument] if the pool has been shut down. *)

val serve_batch : t -> Request.t list -> Request.encoded list
(** {!run_batch} for the wire ([recdb serve-batch -j N]): each
    response comes as {!Engine.serve} gives it, its outcome as encoded
    bytes — a result-memo hit's stored bytes, never decoded. *)

val submit : t -> Request.t -> (Request.encoded -> unit) -> unit
(** [submit pool request k] enqueues one request and returns
    immediately; [k] is called exactly once with the encoded response
    ({!Engine.serve}: what {!Request.write_reply} writes), on the
    worker domain that served it (or with [Worker_crash] by a dying
    worker, or at once on the caller's thread when no worker is left —
    either way, exactly once).  This is the socket front-end's entry
    point ([lib/net]): one connection can keep many requests in flight
    without one blocked {!run_batch} thread per request.  [k] must be quick and must not raise — it runs inside the
    worker's serving loop (the server's [k] pushes onto a per-connection
    writer queue whose capacity the admission window already bounds, so
    it never blocks).  Raises [Invalid_argument] if the pool has been
    shut down. *)

val oracle_questions : t -> int
(** Total genuine oracle questions (Def. 3.9: raw Rᵢ + T_B + ≅_B)
    asked so far across all worker engines, dead ones included.  Exact
    when the pool is quiescent (no batch in flight); a snapshot
    otherwise.  This is the number the E26 bench compares against the
    sequential engine's {!Engine.question_count}. *)

val ledger_counts : t -> int * int * int * int
(** The {!oracle_questions} breakdown [(raw, tb, equiv, cache_hits)]
    summed over live and retired worker engines — what a [stats]
    request served by this pool reports. *)

val shared_stats : t -> Shared_memo.stats
(** Hit/miss statistics of the pool's shared memo layer. *)

val cache_stats : t -> Oracle_cache.stats
(** Aggregate per-worker LRU statistics across the live worker engines
    (a racy snapshot, exact when the pool is quiescent). *)

val shutdown : ?timeout_s:float -> t -> unit
(** Graceful: waits for queued jobs, then joins all workers (including
    dead workers' replacements).  Idempotent.  With [timeout_s], gives
    up waiting after that many seconds (see {!shutdown_result}). *)

val shutdown_result :
  ?timeout_s:float -> t -> [ `Clean | `Timed_out of int ]
(** Like {!shutdown} but reports the outcome: [`Timed_out n] means [n]
    workers were still busy when the timeout expired — their domains
    are abandoned (the pool is stopping, so they can serve nothing
    further) rather than hanging the caller. *)
