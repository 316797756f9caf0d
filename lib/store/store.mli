(** The persistence + recovery tier: write-behind snapshots of
    {!Shared_memo} plus an append-only request journal.

    {b What is persisted.}  Whole-request results, T_B / ≅_B /
    relation-membership answers, and materialized RQL definitions —
    everything that is expensive and deterministic.  Plans are not
    persisted: planning asks no oracle question, so a persisted plan
    would save none.  Snapshots are written by a background thread
    via temp-file + fsync + atomic rename, so the serving hot path
    never blocks on the disk and a crash mid-write can never damage
    the last good snapshot.  The journal below never blocks it either.

    {b Why persistence cannot change the ledger (Def. 3.9).}  Nothing
    here asks an oracle question: export reads committed memo entries,
    and import seeds them back without touching hit/miss counters.  A
    loaded answer is a cache {e hit}, not a question — a warm start
    changes where hits come from, never what is asked, and never a
    response byte.

    {b Paranoid recovery.}  Torn tails are truncated, CRC-failed
    records skipped (and counted), as are relation counts and indices
    that do not fit the live instance they name; files with an unknown
    magic or a future format version refused in toto (a refused
    journal is moved aside, never overwritten).  Recovery can lose warmth; it can never
    load a wrong answer, and never persists a nondeterministic error
    (budget/deadline/outage/crash/shed) as if it were an answer.

    {b The journal} records request admissions and completions.  On
    boot, admitted-but-uncompleted requests are reported as [pending]
    for the server to re-execute; the journal is then rotated to
    exactly that pending set.  An append only buffers its record: the
    flusher thread flushes and fsyncs the journal every 50 ms tick, and
    {!close} does a final sync, so a request never waits on an fsync.
    A crash loses at most the records appended since the last tick. *)

type t

type load_report = {
  snapshot_present : bool;
  entries_loaded : int;  (** entries seeded into the memo *)
  entries_skipped : int;
      (** CRC failures + undecodable records (a plan record written by
          an older build among them) + already-present keys + instance
          declarations and relation entries whose count or index does
          not fit the live instance of that name *)
  torn_tail : bool;  (** snapshot ended mid-frame (truncated) *)
  refused : string option;  (** whole-snapshot refusal reason *)
  journal_present : bool;
  journal_records : int;
  journal_skipped : int;
  journal_torn : bool;
  journal_refused : string option;
  pending : (int * string) list;
      (** admitted-but-uncompleted request lines, by journal seq,
          ascending — replay these, then {!journal_complete} each *)
}

type snapshot_report = {
  entries_written : int;
  errors_dropped : int;  (** nondeterministic errors filtered out *)
  bytes_written : int;
  snapshot_wall_s : float;
}

val open_store :
  ?snapshot_interval_s:float ->
  ?write_behind:bool ->
  dir:string ->
  Shared_memo.t ->
  t * load_report
(** Open (creating [dir] if needed), load any snapshot into the given
    memo, recover the journal, rotate it to the pending set, register
    the [store_*] gauges with {!Obs.Expo}, and — unless
    [write_behind:false] — start the flusher thread
    ([snapshot_interval_s], default 30s; [0.] disables periodic
    snapshots but keeps journal fsync ticks).  One [open_store] per
    directory at a time; the caller owns the handle and must
    {!close} it. *)

val snapshot_now : t -> snapshot_report
(** Synchronous snapshot (also what the flusher calls): export, filter
    nondeterministic errors, write atomically, rotate the journal to
    the inflight set. *)

val journal_admit : t -> line:string -> int
(** Record an admitted request (its canonical JSON line); returns the
    journal sequence number to pass to {!journal_complete}. *)

val journal_complete : t -> int -> unit

val journal_sync : t -> unit
(** Flush and fsync the journal's buffered appends now: what each
    flusher tick does.  A store opened with [write_behind:false] has no
    flusher, so its appends reach the file only here or at {!close}. *)

val replayed : t -> int -> unit
(** Count [n] journal-recovered requests as replayed (metrics only). *)

val last_flush_age_s : t -> float
(** Seconds since the last completed snapshot (since open if none). *)

val inflight_count : t -> int
val last_report : t -> snapshot_report option

val traces : t -> Obs.Trace.trace list
(** The store's private load/flush span ring (every operation traced,
    all with {!Obs.Trace.null_ledger} — persistence asks nothing). *)

val close : ?flush_timeout_s:float -> t -> unit
(** Stop the flusher, write a final snapshot bounded by
    [flush_timeout_s] (default 10s — drain must terminate even on a
    hung disk; an abandoned write cannot corrupt the last good
    snapshot), fsync + close the journal, unregister the gauges.
    Idempotent. *)

val inspect : dir:string -> string
(** Human-readable summary of a store directory's snapshot and journal
    (entry counts by kind, corrupt/torn records, pending requests).
    Strictly read-only — safe against a live server's directory. *)
