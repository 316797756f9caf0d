(** A loopback/remote load generator for the TCP front-end.

    Drives [connections] concurrent TCP connections, each with its own
    sender and receiver thread, in one of two disciplines:

    - {b closed loop} (default): each connection keeps at most
      [pipeline] requests outstanding and sends the next one only when
      a response frees a slot — throughput is response-clocked, the
      classic closed system.
    - {b open loop} ([~rate]): each connection sends at a fixed rate
      regardless of responses — offered load is independent of server
      behaviour, which is what exposes shedding (a closed loop slows
      itself down instead of overloading the server).

    Latency is measured per request (send to response, matched by
    [id]) and recorded in a fresh {!Metrics} histogram per run
    ([loadgen.latency.runN]), from which the report's p50/p95/p99 are
    read with {!Metrics.quantile} — the same histogram machinery and
    the same quantile semantics as the engine's own latency metric, so
    file serving and socket serving print comparable numbers. *)

type report = {
  connections : int;
  sent : int;
  answered : int;
  ok : int;  (** responses with an ["ok"] payload *)
  errors : int;  (** typed error responses other than [overloaded] *)
  shed : int;  (** typed [overloaded] responses *)
  lost : int;  (** requests unanswered when the connection closed *)
  wall_s : float;
  throughput : float;  (** answered / wall_s *)
  p50_s : float;
  p95_s : float;
  p99_s : float;
}

val run :
  ?host:string ->
  port:int ->
  ?endpoints:(string * int) list ->
  ?connections:int ->
  ?requests:int ->
  ?pipeline:int ->
  ?rate:float ->
  ?build:(int -> Request.t) ->
  unit ->
  report
(** Send [requests] total requests (default 400) over [connections]
    connections (default 4, each getting an equal share).  [pipeline]
    (default 1) is the closed-loop window; [rate] switches that
    connection count to open loop at [rate] requests/second {e per
    connection}.  [build i] supplies the i-th request (0-based,
    globally); its [id] is overwritten with a per-connection unique id
    for correlation.  The default workload is the mixed batch
    ({!Workload.mixed}).  Blocks until every connection has
    drained or lost its socket.

    [endpoints] (multi-endpoint mode) spreads the connections
    round-robin over a list of [(host, port)] pairs — connection [c]
    dials [endpoints.(c mod k)] — so one run can drive a whole cluster
    (shards directly, or several router front doors); when given and
    non-empty it supersedes [host]/[port]. *)

val pp_report : Format.formatter -> report -> unit
