(** The TCP serving front-end: a {!Listener} speaking the JSON-lines
    ABI, per-connection {!Conn} reader/writer threads feeding a shared
    {!Pool}, and an {!Admission} window in front of it all.

    Admission happens in the server's [submit], the function every
    {!Conn} hands its decoded requests to: it takes a slot or answers
    a typed [Overloaded] shed at once (zero questions, counted in
    [server.bad_frames]), answers [stats] at the door, journals only
    admitted requests, and releases the slot once the encoded response
    has been handed back to the connection.

    The serving semantics are {e exactly} batch mode's: every admitted
    request is evaluated by the same engines, asks the same oracle
    questions, and serializes to the same response JSON as
    [recdb serve-batch] on the same line — the E27 bench and the unit
    suite assert byte-identity (modulo [id]-correlation order, which
    the socket path deliberately relaxes per connection).  The only
    responses the wire can produce that batch mode cannot are the
    typed wire errors: [Parse_error] for broken frames and
    [Overloaded] for shed requests, neither of which touches an
    engine.

    Lifecycle: {!start} binds, listens and returns immediately;
    {!drain} stops accepting, lets in-flight requests finish (bounded
    by a timeout, like {!Pool.shutdown}), then closes everything. *)

type t

val start :
  ?host:string ->
  ?port:int ->
  ?domains:int ->
  ?window:int ->
  ?per_conn_window:int ->
  ?max_line:int ->
  ?stats:bool ->
  ?engine_config:Engine.config ->
  ?tracing:Obs.Trace.sampling ->
  ?metrics_port:int ->
  ?store_dir:string ->
  ?snapshot_interval_s:float ->
  unit ->
  t
(** Bind [host] (default ["127.0.0.1"]) : [port] (default 0 — an
    ephemeral port; read it back with {!port}), spawn the pool
    ([domains] as {!Pool.create}) and the accept loop.  [window]
    (default 64) is the global in-flight admission bound;
    [per_conn_window] (default 16) the per-connection owed-response
    bound; [max_line] (default {!Frame.default_max_line}) the frame
    bound; [stats] (default [true]) whether responses carry the
    [stats] field.  [engine_config] arms the same per-request
    budget/deadline/fault machinery as batch serving.

    [tracing] is passed to {!Pool.create}: sampled requests produce
    span trees with exact Def. 3.9 ledger slices, readable via
    [Pool.traces (pool t)] or the [/traces] route below.

    [metrics_port] starts a second listener ({!Expo_server}) on that
    port (0 = ephemeral; read back with {!metrics_port}) serving
    [/metrics] — the Prometheus text exposition of every registered
    {!Obs.Expo} source: the whole Metrics registry plus this server's
    admission/pool/cache gauges — and [/traces], recent traces as JSON
    lines.  Omitted (the default), no extra socket is opened.

    [store_dir] makes the server durable: any snapshot there is loaded
    into the shared memo {e before} the pool spawns (so the first
    request already hits warm tables), journal-recovered in-flight
    requests are re-executed before the listener opens, every admitted
    request is journaled and its completion recorded, and snapshots are
    written write-behind every [snapshot_interval_s] (default 30s) plus
    a final one on {!drain}.  A loaded answer is a memo hit, not an
    oracle question — the warm ledger only shrinks (see [lib/store]).

    Raises [Unix.Unix_error] if an address cannot be bound. *)

val port : t -> int
(** The actually-bound port — what a client should dial, and the whole
    point of [?port:0] for tests and smoke runs. *)

val metrics_port : t -> int option
(** The metrics listener's bound port, when [metrics_port] was given. *)

val admission : t -> Admission.t
val pool : t -> Pool.t
(** Exposed for accounting assertions (E27, unit tests): the pool's
    {!Pool.oracle_questions} is the server's Def. 3.9 ledger. *)

val store : t -> Store.t option
(** The durability tier, when started with [store_dir] — exposed for
    the crash-recovery smoke and tests ({!Store.inflight_count},
    {!Store.last_flush_age_s}). *)

val connections : t -> int
(** Connections accepted so far. *)

val drain : ?timeout_s:float -> t -> [ `Clean | `Forced of int ]
(** Graceful shutdown: stop accepting, half-close every connection's
    receive side, wait for all owed responses to be written, then
    close sockets and shut the pool down.  [`Forced n] means [n]
    connections were still unfinished at [timeout_s] (default 30) and
    were aborted — their remaining responses dropped, like
    {!Pool.shutdown}'s timeout.  When started with [store_dir], a final
    snapshot is flushed after the pool quiesces ({!Store.close}, whose
    own bounded timeout keeps drain terminating on a hung disk).
    Idempotent; [`Clean] after the first call. *)
