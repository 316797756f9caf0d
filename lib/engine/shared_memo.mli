(** The cross-worker, read-mostly memo layer.

    A {!Pool} gives every worker domain its own {!Engine.t} (engines
    are not thread-safe), which in PR 1 meant every worker re-asked the
    expensive cross-request questions from cold: each domain paid its
    own Rado level-3 expansion, its own E17 representative-set
    evaluation, its own sentence parses.  This module is the shared
    second level those private engines consult between their own memo
    tables and the raw oracles, so worker N's first request warms
    worker M's second.

    It holds exactly the results that are expensive and deterministic:

    - characteristic-tree [children] answers (the T_B oracle), keyed by
      [(instance, tuple)];
    - [≅_B] answers (the equiv oracle), keyed by [(instance, u, v)];
    - raw relation membership answers, keyed by
      [(instance, relation, tuple)];
    - compiled plans — parsed sentences, queries and QL programs —
      keyed by the source text;
    - whole request results (E17 representative sets and members,
      sentence truth, tree levels, program outputs), kept as their
      encoded bytes and keyed by the request's canonical payload JSON
      [(instance, sentence, rank, cutoff, ...)].

    {b Locking.}  Every table is lock-striped, each stripe under one
    plain mutex held only for a single hashtable probe or insert, so
    two lookups contend only when they land on the same stripe, and
    then wait at most one probe.  No lock is ever held across a
    [compute] closure, so one slow oracle question cannot stall
    unrelated lookups.  Two workers racing on the same cold key may
    both compute; the first insertion wins and both return it.

    {b Cost-model correctness (Def. 3.9).}  A memo hit is not an
    oracle question — exactly the E23/E24 argument, lifted across
    workers.  The compute closures are supplied per call by the
    {e asking} worker and close over that worker's own instrumented
    instance (and, in guarded engines, that worker's budget tick), so
    every genuine question is still counted exactly once, on the
    worker that asked it, and a budget check still fires before the
    question it would abort.  Summed over workers, genuine questions
    never exceed — and after warm-up fall far below — what sequential
    evaluation asks.  A compute that raises (budget trip, deadline,
    injected fault) stores nothing, so only completed, deterministic
    answers are ever shared. *)

type t

val create : unit -> t

(** Per-instance handle: obtained once when a worker builds its entry
    for a named instance, then consulted on the oracle hot paths. *)
type instance_memo

val instance : t -> name:string -> nrels:int -> instance_memo
(** The shared tables for instance [name], created on first demand
    ([nrels] sizes the per-relation table array). *)

val children :
  instance_memo -> Prelude.Tuple.t -> compute:(unit -> int list) -> int list

val equiv :
  instance_memo ->
  Prelude.Tuple.t ->
  Prelude.Tuple.t ->
  compute:(unit -> bool) ->
  bool

val rel : instance_memo -> int -> Prelude.Tuple.t -> compute:(unit -> bool) -> bool
(** [rel m i u ~compute] — membership of [u] in relation [i]. *)

(** A compiled plan: the parse result for a sentence, query, QL program
    or RQL query ([Error msg] memoizes a deterministic parse/compile
    failure — never cached as a success).  {!Engine} keys an RQL plan
    by planner mode and normalized text, so a hit shares the compiled
    plan across whitespace/alpha-renaming variants. *)
type plan =
  | Sentence_plan of (Rlogic.Ast.formula, string) result
  | Query_plan of (Rlogic.Ast.query, string) result
  | Program_plan of (Ql.Ql_ast.program, string) result
  | Rql_plan of (Rql.Rql_plan.t, string) result

val plan : t -> key:string -> compute:(unit -> plan) -> plan

val rql_def :
  t ->
  key:string ->
  compute:(unit -> Prelude.Tupleset.t) ->
  Prelude.Tupleset.t
(** Materialized RQL definitions (sets of T^rank representatives),
    keyed by [(instance, self-contained definition key)] — see
    {!Rql.Rql_plan.def}.  Because the key spells out the whole
    definition with references substituted, equal keys denote equal
    sets, so a hit is sound across requests, queries, and workers. *)

(** A memoized whole-request result: the outcome's encoded bytes (or
    a typed error) plus its completeness certificate.

    [Ok body] is [Request.outcome_bytes o], built once on the miss that
    computed [o]; a hit splices it into the response line as it is
    ({!Request.write_reply}) and decodes it only for a caller that asks
    for the typed response.  Bytes are about a sixth of the size of
    the [Tuple.t] lists they encode, which is most of what a long-lived
    server's memo holds.  Errors are small and their JSON loses
    structure, so they stay typed.

    The certificate is deterministic for the key — non-exact modes
    prefix their keys (see [Engine.handle]) so a certain-mode answer
    can never be served for a possible-mode request or vice versa,
    while exact answers keep the unprefixed key and are shared by
    every mode. *)
type result_value = {
  value : (string, Request.error) Stdlib.result;
  cert : Request.certificate;
}

val result : t -> key:string -> compute:(unit -> result_value) -> result_value
(** Whole-request result memo.  Callers must only route payloads whose
    evaluation is a deterministic function of the key through here —
    {!Engine} does, and lets budget/deadline/fault aborts raise through
    [compute] so nondeterministic outcomes are never stored. *)

type table_stats = { hits : int; misses : int }

val stripe_of_hash : int -> int
(** The stripe (0–7) of a key with this hash: bits 24–26, which no
    stripe table below 2^24 buckets reads for its bucket index, so each
    stripe's keys spread over all of its buckets. *)

type stats = {
  children : table_stats;
  equiv : table_stats;
  rels : table_stats;
  plans : table_stats;
  results : table_stats;
  rql_defs : table_stats;
}

val stats : t -> stats
val total_hits : t -> int

(** {1 Snapshot export / import}

    The bridge to [lib/store]'s durable snapshots.  Every table but the
    plan cache round-trips by value.  Plans are not exported: recomputing
    one parses text and asks zero Def. 3.9 oracle questions, so a
    persisted plan would save no question. *)

type dump_entry =
  | D_instance of { name : string; nrels : int }
      (** Declares an instance and its relation count; always exported
          before any entry that references it. *)
  | D_children of { inst : string; key : Prelude.Tuple.t; value : int list }
  | D_equiv of {
      inst : string;
      u : Prelude.Tuple.t;
      v : Prelude.Tuple.t;
      value : bool;
    }
  | D_rel of {
      inst : string;
      index : int;
      key : Prelude.Tuple.t;
      value : bool;
    }
  | D_result of { key : string; value : result_value }
  | D_rql_def of { key : string; value : Prelude.Tupleset.t }

val export : t -> dump_entry list
(** A consistent-enough snapshot: each stripe is read under its own
    lock (concurrent inserts may or may not appear — every entry
    that does appear was genuinely computed and committed).  Instance
    declarations precede the entries that reference them. *)

val seed : t -> dump_entry -> bool
(** Insert one exported entry if absent.  Never updates hit/miss
    counters: a loaded answer is a cache entry, not a question.
    Returns [false] when skipped — key already present, or a malformed
    relation index. *)
