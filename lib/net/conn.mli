(** The one client-connection type, shared by both front doors: the
    serving door ({!Server}) and the cluster router.  Each connection
    is a reader thread and a writer thread around a bounded queue of
    encoded response lines.

    {b Protocol.}  The reader consumes JSON-lines frames
    ({!Request.decode_line} — the same per-line step [serve-batch]
    uses) and hands each request to the front door's [submit].
    Malformed, oversized and truncated frames become typed
    [Parse_error] responses (id = line number), counted in
    [server.bad_frames], and the connection {e keeps serving}; unknown
    top-level fields are counted, never rejected.  Because both doors
    answer frame errors here, their bytes for a broken frame are the
    same.  Responses are written as [submit] answers them, so they may
    come back {e out of request order}; the [id] field is the
    correlation key, exactly as the batch ABI documents.

    {b Admission belongs to the caller.}  [submit req reply] must call
    [reply] exactly once, with one encoded response line — a typed
    shed included.  [submit] runs on the reader thread and may block
    it (the router waits there for a shard slot): a blocked reader
    stops reading the socket, which is backpressure on the client.
    [reply] may run on any thread and never blocks.

    {b Per-connection window.}  The reader pauses while this
    connection is owed [per_conn_window] responses not yet written —
    it simply stops reading the socket, so TCP pushes back on the
    client.  The pause also caps the writer queue: [reply] always finds
    room, so it can never block a pool worker on a slow client.

    {b Disconnects.}  If the peer vanishes mid-request, in-flight
    requests are {e not} cancelled: their answers are computed, their
    oracle questions accounted exactly as batch mode accounts them
    (Def. 3.9 is about what was asked, not who listened), and the
    lines dropped on the dead socket.  A connection finishes when
    every owed response has been written or dropped. *)

type config = {
  submit : Request.t -> (string -> unit) -> unit;
  stats : bool;  (** include the [stats] field in frame-error responses *)
  max_line : int;  (** the frame bound *)
  per_conn_window : int;  (** >= 1; owed responses before the reader pauses *)
}

val answer :
  stats:bool -> id:int -> (Request.outcome, Request.error) result -> string
(** An encoded response line answered at the door, not by an engine
    (frame errors, sheds, ledger reports): zero stats, exact
    certificate. *)

type group
(** The connections one front door has accepted. *)

val group : unit -> group

val serve : config -> group -> Unix.file_descr -> unit
(** Take ownership of an accepted socket and serve it on a new
    connection in [group]; connections that have finished are joined
    and dropped in passing, so a long-lived door keeps no record per
    client ever served.  Raises [Invalid_argument] when
    [per_conn_window < 1]. *)

val accepted : group -> int
(** Connections served so far. *)

val drain : timeout_s:float -> group -> [ `Clean | `Forced of int ]
(** Graceful stop, once no more sockets are being accepted: half-close
    every connection's receive side (the reader sees EOF after the
    frames already sent; owed responses are still written), wait until
    all have finished or [timeout_s] has passed, abort the stragglers
    (both threads exit, owed responses are dropped), then join them
    and close their sockets.  [`Forced n] counts the aborted
    connections. *)
