(** The query-serving engine: named instances, memoized oracles,
    per-request accounting.

    An engine owns a private copy of every built-in hs instance, rebuilt
    so that all raw relation oracles sit behind an {!Oracle_cache} LRU.
    Instances are constructed lazily, on first touch.  {!handle} turns a
    {!Request.t} into a {!Request.response}, measuring the request's
    oracle traffic (raw Rᵢ questions, T_B questions, ≅_B questions,
    cache hits) by snapshotting the instrumented counters around the
    evaluation, and records process-wide {!Metrics}
    ([engine.requests], [engine.errors], [engine.oracle_calls],
    [engine.cache_hits], [engine.latency]).

    A single engine is {b not} thread-safe — the hs-level memo tables
    ([Hsdb]'s tree caches) are plain hashtables.  Concurrency comes from
    {!Pool}, which gives each worker domain its own engine.  Everything
    an engine computes is a deterministic function of the request, so
    distinct engines always produce byte-identical results.

    Engines in a pool may additionally share a {!Shared_memo.t} (passed
    to {!create}): a read-mostly second memo level consulted between a
    worker's private tables and its raw oracles, so expensive
    cross-request answers (T_B children, ≅_B verdicts, relation
    membership, compiled plans, whole results) computed by one worker
    are hits for every other.  Results stay byte-identical — the shared
    values are deterministic functions of their keys — and Def. 3.9
    accounting stays exact, because each worker's genuine questions are
    still counted on its own base instance (see {!Shared_memo}).

    An engine with a shared memo also keeps, per instance, a member
    memo: the encoded member list of every relation answer it
    enumerated ({!Hs.Hsdb.members}), keyed by probe order (discipline
    and reps in scan order), rank and cutoff, and spliced into every
    later answer with the same key.  A hit skips only ≅_B probes this
    instance already memoized, so it asks no question; without a
    shared memo those probes would be questions, and there is no
    member memo.  Counted by [engine.member_memo_hits] and
    [engine.member_memo_misses]; never persisted. *)

type t

(** Resilience configuration: per-request evaluation limits, retry
    policy for transient oracle outages, and (optionally) deterministic
    fault injection.  With {!default_config} — no limits, no faults —
    the oracle hot path carries no guard at all; configuring either
    installs a cheap per-question check (E25 measures its overhead).

    Evaluation always runs through the closure-compiled tier:
    sentences, queries, QL programs and RQL plans are specialized once
    per (entry, source text) into closures over pre-resolved frame
    slots and hoisted oracle handles, cached in the entry, and reused
    by every later request.  The compilers consult the oracles at the
    same entry points in the same order as the tree-walk interpreters,
    so responses and the Def. 3.9 question ledger equal the
    interpreters' byte for byte.  The interpreters remain the reference
    at library level: the parity properties in [test_compile] compare
    the two evaluators directly, and E31 checks the engine against a
    golden file frozen from the last interpreted engine
    ([test/golden/compile_interp.jsonl]).

    [decls] attaches a completeness declaration ({!Incomplete.Decl}) to
    named instances: relations marked [open] make the instance stand
    for the set of its completions, and requests may then ask for
    [certain] / [possible] / [approximate] answers instead of exact
    ones (see {!Request.mode}).  Declarations are validated against the
    instance type when the instance is first constructed; an invalid
    declaration makes construction fail, like a broken builder.
    Instances without a declaration — and all of them by default — are
    fully total: every answer is exact, whatever mode is requested.

    [default_mode] (default [M_exact]) applies to requests that carry
    no mode of their own (`recdb serve --default-mode`). *)
type config = {
  limits : Resilience.limits;
  retry : Resilience.retry;
  faults : Faulty_oracle.config option;
  decls : (string * Incomplete.Decl.t) list;
  default_mode : Request.mode;
}

val default_config : config

val create :
  ?config:config ->
  ?shared:Shared_memo.t ->
  ?trace:Obs.Trace.t ->
  unit ->
  t
(** Each relation's oracle sits behind a 4096-entry LRU.
    [shared] plugs this engine into a cross-worker memo layer; omit it
    (the default) for the fully private sequential engine.

    [trace] attaches an observability context ({!Obs.Trace}): each
    sampled request gets a span tree — root, queue wait, parse, one
    span per retry attempt, backoffs — whose ledger slices snapshot
    exactly the counters the response's [stats] read, so the question
    slots of a trace sum to [stats.oracle_calls + tb_calls +
    equiv_calls] on every traced request.  The ledger only {e reads}
    counters, so tracing never asks an oracle question and never
    changes a served byte (E28 measures the overhead and asserts the
    byte-identity).  The ctx must be private to this engine (spans are
    not thread-safe); only the completed-trace ring inside it is
    concurrent. *)

val handle : ?queued_s:float -> t -> Request.t -> Request.response
(** Total: never raises and never hangs under a configured deadline or
    budget — unbounded evaluations surface as [Budget_exceeded] /
    [Deadline_exceeded], persistent injected outages as
    [Oracle_unavailable] (after [config.retry.max_retries] bounded
    retries with deterministic exponential backoff), and any other
    escaping exception as [Ill_formed].

    Budget/deadline outcomes depend on this engine's cache and memo
    state (a warm engine asks fewer questions before tripping), so they
    are deterministic for a fixed engine history but not across
    differently-warmed engines — see the {!Pool} byte-identity
    caveat.

    [queued_s] is the time this request waited before the engine saw it
    (the pool's queue wait); it is recorded on the trace (when a ctx is
    attached and samples this request) and affects nothing else. *)

val serve : ?queued_s:float -> t -> Request.t -> Request.encoded
(** {!handle} for the wire: the same evaluation, metrics and trace,
    with the outcome as its encoded bytes.  A result-memo hit returns
    the stored bytes as they are — no tree is built or re-encoded —
    and a miss encodes once.  [handle] and [serve] share one core;
    [handle] decodes stored bytes ({!Request.outcome_of_json}) only on
    a result-memo or member-memo hit, and [serve] never decodes.  For
    every request the two agree:
    [Request.encode (handle t r)] equals [serve t r] on an engine in
    the same state. *)

val handle_all : t -> Request.t list -> Request.response list
(** Sequential evaluation, in order — the reference for {!Pool}'s
    byte-identity guarantee. *)

val cache_capacity : int
(** Per-relation capacity of every engine's {!Oracle_cache} (4096). *)

val cache_stats : t -> Oracle_cache.stats
(** Aggregate LRU statistics over every instance this engine has
    touched. *)

val traces : t -> Obs.Trace.trace list
(** Completed traces in this engine's ring (oldest first; empty when no
    ctx was attached to {!create}). *)

val question_count : t -> int
(** Total genuine oracle questions this engine has asked, in the
    Def. 3.9 sense: raw Rᵢ questions + T_B questions + ≅_B questions,
    summed over every instance touched.  Memo hits — private or shared
    — are not questions and are not counted. *)

val ledger_counts : t -> int * int * int * int
(** The {!question_count} breakdown [(raw, tb, equiv, cache_hits)] —
    what a [stats] request reports and the cluster router sums. *)

val shared_stats : t -> Shared_memo.stats option
(** Hit/miss statistics of the shared memo layer, when one was passed
    to {!create}.  The layer may be shared with other engines; the
    numbers are layer-wide, not per-engine. *)

val faults_injected : t -> int
(** Faults this engine's injector has raised so far (0 when fault
    injection is off). *)

(** {2 The instance registry} *)

val instance_names : unit -> string list
(** Names servable by every engine (the CLI's instance table). *)

val build_instance : string -> Hs.Hsdb.t option
(** A fresh, {e uncached} copy of a built-in instance — what
    [bin/recdb] uses for the one-shot subcommands. *)
