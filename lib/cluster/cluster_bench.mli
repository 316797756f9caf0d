(** E32: the cluster serving benchmark — byte-identity and ledger
    containment through the router, hedged tail latency under an
    injected slow shard, and kill -9 recovery via the supervisor.
    Forks real [recdb serve] shard processes ([exe]), so every row
    exercises genuine process boundaries. *)

val run : ?out:string -> ?requests:int -> exe:string -> unit -> string list
(** Run E32: [requests] (default 240, the store-smoke mix of the E17
    batch plus RQL) through three child servers behind an in-process
    router.  Prints a summary; when [out] is given also writes the JSON
    there ([BENCH_cluster.json]).  Returns the violated acceptance
    checks. *)
