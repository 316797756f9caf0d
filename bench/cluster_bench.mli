(** E32: the cluster serving benchmark — byte-identity and ledger
    containment through the router, hedged tail latency under an
    injected slow shard, and kill -9 recovery via the supervisor.
    Forks real [recdb serve] shard processes ([exe]), so every row
    exercises genuine process boundaries. *)

val run : ?requests:int -> exe:string -> unit -> Json.t * string list
(** Run E32: [requests] (default 240, the store-smoke mix of the E17
    batch plus RQL) through three child servers behind an in-process
    router.  Returns the report ([BENCH_cluster.json]) and the violated
    acceptance checks; progress goes to stderr. *)
