(** The forking smokes behind [bench/main.exe NAME-smoke]: each forks
    real [recdb] children ({!Bench_util.recdb}) on ephemeral loopback
    ports and returns its report and the violated gates, like every
    E-bench.  A child that never comes up, or does not drain to exit 0
    on SIGTERM, is a violation.  Each works in a scratch directory
    [_NAME_smoke], removed when every gate passes and kept with the
    children's logs when one fails. *)

val server : unit -> Json.t * string list
(** 300 closed-loop requests at a [recdb serve] child, then the same
    load through a [recdb router] child over it.  Gates, at both doors:
    everything sent answered, no error, shed or lost request. *)

val obs : unit -> Json.t * string list
(** 200 requests at a traced ([--trace-sample 4]) child with a metrics
    listener.  Gates: the load gates of {!server}, a scrape of
    [/metrics] that passes {!check_exposition} for the serving stack's
    families, a non-empty [/traces] whose every line is a span tree,
    and a 404 for an unknown path. *)

val rql : unit -> Json.t * string list
(** Serve [test/golden/rql_requests.jsonl] over a socket ([--no-stats])
    and diff the responses, sorted by id, against
    [test/golden/rql_expected.jsonl]; every differing line is a
    violation.  Run from the source root. *)

val store : unit -> Json.t * string list
(** The mixed workload with RQL (120 requests) through a durable child,
    kill -9'd mid-load after a write-behind snapshot, then a warm child
    restarted on the same store.  Gates: both phases byte-identical to
    sequential, warm questions < 5% of cold, the store gauges present,
    a final snapshot after the clean drain. *)

val incomplete : unit -> Json.t * string list
(** Mode-carrying requests at two [--open-world] children.  Gates:
    certain ⊆ exact ⊆ possible on [rado] with their typed certificates,
    no cert on an exact response, closed-world identity on [triangles],
    a typo'd ["mod"] field counted on [/metrics], and [--default-mode
    certain] applied to a modeless request. *)

val check_exposition : families:string list -> string -> string list
(** The violations of a Prometheus text exposition: a family in
    [families] with no sample (its own name or a suffixed one such as
    [_total] or [_bucket]); a histogram whose cumulative
    [_bucket{le=...}] counts decrease down its ladder; a [+Inf] bucket
    that differs from its [_count].  Other labelled samples (gauge rows)
    are not read as buckets. *)
