(** E30: the durability benchmark ([bench/main.exe store],
    [BENCH_store.json]).

    Serves {!Workload.mixed_with_rql} (the mixed batch plus RQL
    requests, so plan-cache entries are exercised) cold, snapshots,
    reloads into a fresh memo and serves the same batch warm; then
    three fault rows — truncated snapshot, bit-flipped record, future
    format version — each of which must recover to a correct (possibly
    colder) state.
    Gates: warm responses byte-identical to cold, warm genuine-question
    count < 5% of cold, every fault row byte-identical, the
    future-version file refused, truncation detected as a torn tail,
    the bit flip skipped as a CRC failure. *)

val run : ?requests:int -> unit -> Json.t * string list
(** Run E30 ([requests] default 160, in the scratch directory
    [_store_bench], removed afterwards): the report and the violated
    gates. *)
