(** E27: the network serving benchmark ([bench/main.exe server],
    [BENCH_server.json]).

    Three measurements over loopback:

    - {b identity}: the mixed workload ({!Workload.mixed}) served over a socket
      produces responses byte-identical (modulo id-correlation order)
      to a sequential {!Engine.handle_all} of the same requests — the
      wire changes nothing about the serving semantics.
    - {b throughput vs. connections}: closed-loop load at each
      connection count, with p50/p95/p99 latency from the
      {!Loadgen} histograms.  A fresh server per row, so rows are
      comparably cold.
    - {b shed probe}: open offered load at 2x the admission window
      must shed with typed [overloaded] errors, never exceed the
      window ([high_water <= window]), answer everything it admitted,
      and ask no more Def. 3.9 questions than a sequential run of the
      full batch (shed requests ask zero). *)

val run : ?requests:int -> unit -> Json.t * string list
(** Run E27 with [requests] per measurement (default 400) at 1, 2, 4
    and 8 connections.  Returns the report ([BENCH_server.json]) and
    the violated gates: identity, everything answered, no unexpected
    errors, sheds present under 2x overload, window respected, question
    bound respected. *)

val report_to_json : Loadgen.report -> Json.t
(** A load-generator report as the JSON the E27 rows and the smokes
    print. *)
