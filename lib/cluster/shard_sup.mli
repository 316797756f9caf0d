(** The shard parent: spawn and supervise N worker shard processes.

    Each shard is an ordinary [recdb serve] child — a full engine +
    pool + net stack speaking the JSON-lines ABI — spawned with
    [--port 0 --port-file F] and discovered through the port file.  A
    child that dies (crash, kill -9, OOM) is respawned {e on the port
    it first bound} (SO_REUSEADDR makes the rebind race-free enough;
    a transiently failed rebind is retried on the next monitor pass),
    so the endpoint list handed to a router stays valid across
    crashes: to the router, a crashed shard is a brief connection
    outage, absorbed by its retry and hedging machinery, never a
    reconfiguration.

    Exposition: registers [cluster_shards_up], [cluster_respawns] and
    one [cluster_shard_up{shard="host:port"}] row per child in the
    process-wide {!Obs.Expo} registry. *)

type t

val start :
  ?dir:string ->
  ?extra_args:string list ->
  exe:string ->
  n:int ->
  unit ->
  (t, string) result
(** Spawn [n] children of [exe] ([recdb]) and wait for each to bind.
    [dir] (default ["_shards"]) holds port files and per-shard logs;
    [extra_args] (default [["-j"; "1"]]) is appended to each child's
    [serve --port P --port-file F] argv — budgets, store dirs,
    [--no-stats], whatever the deployment wants.  On [Error] every
    already-spawned child has been killed. *)

val endpoints : t -> (string * int) list
(** The stable [(host, port)] of every shard, respawns included —
    what {!Router.start} takes. *)

val shards_up : t -> int
val respawns : t -> int

val kill : t -> int -> int -> unit
(** [kill t i signal] signals shard [i] — the crash-injection hook the
    E32 bench uses ([Sys.sigkill] mid-load).  The monitor respawns it. *)

val stop : t -> unit
(** Stop supervising (no more respawns), SIGTERM every child so it
    drains gracefully, reap; children stuck past their drain timeout
    are SIGKILLed. *)
