(** One TCP listener for every accept loop in the process: the serving
    front door ({!Server}), the cluster router and the metrics
    side-channel ({!Expo_server}).

    {!bind} binds with [SO_REUSEADDR] and reads the port back; {!run}
    starts the accept thread, which hands every accepted socket (with
    [TCP_NODELAY] set) to the caller's callback.  The thread polls with
    a short select timeout instead of blocking in accept(2): on Linux,
    closing a listening socket from another thread does not wake a
    blocked accept, so {!stop} could never join it.  Hence {!stop} is
    join-then-close. *)

type t

val bind : host:string -> port:int -> t
(** Bind [host]:[port] ([port] 0 picks an ephemeral port) and listen.
    Raises [Unix.Unix_error] if the address cannot be bound. *)

val port : t -> int
(** The actually-bound port. *)

val run : t -> (Unix.file_descr -> unit) -> unit
(** Start the accept thread.  The callback owns the socket it is given
    and runs on the accept thread, so it must not block for long. *)

val stop : t -> unit
(** Stop accepting: join the accept thread at its next poll, then close
    the socket.  Idempotent; also valid before {!run}. *)
