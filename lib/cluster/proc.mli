(** Child-process plumbing for the cluster tier: spawn real [recdb]
    processes, discover their ephemeral ports via [--port-file], talk
    to them over one-shot connections.  Shared by {!Shard_sup}, the
    cluster bench and the CI smokes, which all fork genuine processes
    so crash/respawn tests mean what they say. *)

val spawn : ?log:string -> string array -> int
(** [spawn argv] forks [argv.(0)] with arguments [argv] (stdout/stderr
    appended to [log] when given) and returns the pid.  Raises on an
    empty argv or exec failure. *)

val wait_port_file :
  ?timeout_s:float -> string -> (int * int option, string) result
(** Poll for the port file a child writes once bound: first line the
    serving port, optional second line the metrics port.  Half-written
    files are retried; [Error] after [timeout_s] (default 20s). *)

val with_server :
  log:string ->
  port_file:string ->
  string array ->
  (port:int -> metrics_port:int option -> 'a) ->
  ('a, string) result
(** [with_server ~log ~port_file argv body] runs [body] against a
    server child: it removes any stale [port_file] (so a dead server's
    port is never read back), spawns [argv] with ["--port-file";
    port_file] appended and output appended to [log], waits for the
    port ({!wait_port_file}), runs [body], then sends
    SIGTERM and requires exit status 0.  [Error] — naming the [log],
    which is left in place — when the port never appears or the child
    does not exit 0; a [body] that raises gets the child SIGKILLed and
    reaped first. *)

val connect :
  ?host:string -> port:int -> unit -> (Unix.file_descr, string) result

val send_and_collect :
  ?host:string ->
  ?timeout_s:float ->
  port:int ->
  string list ->
  (string list, string) result
(** One-shot exchange: connect, write every line, half-close, read
    response lines until EOF.  [Error] on connect/write failure (the
    peer vanishing mid-read is EOF, not an error — the caller sees a
    short response list instead).  [timeout_s] bounds each socket
    read/write ([SO_RCVTIMEO]); a stalled peer becomes an [Error]
    instead of a hang. *)

val ask_all :
  timeout_s:float -> (string * int) list -> string -> string option list
(** [ask_all ~timeout_s endpoints line] sends [line] to every
    [(host, port)] at once, each on its own nonblocking one-shot
    connection, and returns each endpoint's first response line in
    endpoint order.  One deadline, [timeout_s] from the call, bounds
    the whole exchange: an endpoint that refuses, resets, closes
    short, or has not answered by then is [None]. *)

val id_of : string -> int
(** The ["id"] of a JSON line; [-1] when unparsable. *)

val sort_by_id : string list -> string list
(** Responses arrive out of order (per-connection pipelining); sorting
    by id is how every byte-identity check normalizes. *)

val alive : int -> bool
(** Non-blocking: has this child neither exited nor been reaped? *)

val kill_and_reap : int -> int -> unit
(** Send a signal, then waitpid (ignoring ECHILD). *)

val rm_rf : string -> unit
