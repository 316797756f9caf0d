(** A bounded LRU memoization layer in front of a relation's
    membership oracle.

    The paper's cost model (Definitions 2.4 and 3.9) counts every
    question put to a relation's oracle.  A cache does not change that
    model — it changes {e which} lookups become genuine questions.  The
    wrapped relation returned by {!relation} answers exactly like the
    underlying one; a lookup that hits the cache is recorded in
    {!stats}.[hits] and never reaches the underlying oracle, while a
    miss forwards through {!Rdb.Relation.mem} and is therefore counted
    by the underlying relation's own instrumented counter.  So after any
    workload:

    - [Relation.calls (underlying)] = genuine oracle questions (misses);
    - [Relation.calls (relation cache)] = total lookups = hits + misses.

    Both positive and negative answers are cached (a "no" is as
    authoritative as a "yes" for a decision procedure).

    {b Ownership.}  A cache has one owner: each {!Engine} wraps its
    own instances, and each engine runs on one domain (a {!Pool} gives
    every worker its own engine).  Lookups, {!clear} and {!length}
    take no lock and must run on the owner's domain.  Eviction order is
    true least-recently-used order over the whole cache.  The
    hit/miss/eviction counters are [Atomic.t], so {!stats} may be read
    from any domain — {!Pool} and the [/metrics] gauges do. *)

type t

type stats = { hits : int; misses : int; evictions : int }

val wrap : ?capacity:int -> Rdb.Relation.t -> t
(** [wrap r] builds a cache in front of [r].  [capacity] (default 4096)
    bounds the number of memoized tuples; the least-recently-used entry
    is evicted first.  Raises [Invalid_argument] on [capacity < 1]. *)

val relation : t -> Rdb.Relation.t
(** The cached view: same name (suffixed [+lru]), same arity, answers
    identical to the underlying relation. *)

val underlying : t -> Rdb.Relation.t

val stats : t -> stats
val reset_stats : t -> unit
(** Resets hit/miss/eviction counters; cached entries are kept. *)

val clear : t -> unit
(** Drop all cached entries (counters are kept). *)

val length : t -> int
(** Number of currently memoized tuples (≤ capacity). *)

val capacity : t -> int

val wrap_db : ?capacity:int -> Rdb.Database.t -> Rdb.Database.t * t array
(** Wrap every relation of a database; the returned database shares the
    original's name and domain, and [caches.(i)] fronts relation [i].
    The per-relation capacity is [capacity]. *)

val total_stats : t array -> stats
(** Component-wise sum, for per-database accounting. *)
