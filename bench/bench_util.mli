(** What every E-bench shares: wall-clock timing, the stats-stripped
    response bytes that byte-identity gates compare, gate checks, and
    the one renderer that prints every report. *)

val time : (unit -> 'a) -> 'a * float
(** [time f]: [f ()] and its wall-clock seconds. *)

val best_of : int -> (unit -> 'a) -> 'a * float
(** [best_of n f] runs [f] [max 1 n] times: the last value and the
    fastest wall time. *)

val bytes : Request.response -> string
(** A response's JSON line with stats stripped — the deterministic part
    every serving path must reproduce. *)

val sequential : Request.t list -> string list
(** {!bytes} of a fresh sequential engine's responses to a batch, in
    batch order: the reference the byte-identity gates compare with. *)

val strings : string list -> Json.t
(** A JSON list of strings (a report's violations). *)

val gate : bool -> ('a, unit, string, string list) format4 -> 'a
(** [gate ok fmt ...]: no violation when [ok], else the one formatted
    violation. *)

val with_recdb : (string -> Json.t * string list) -> Json.t * string list
(** [with_recdb bench] runs [bench exe] with [exe] the [recdb] binary
    the forking benches spawn, [_build/default/bin/recdb.exe] relative
    to the source root; when it is missing, an empty report whose one
    violation names it. *)

val pp_report : Format.formatter -> Json.t -> unit
(** Print a report one line per scalar leaf, as [path value]: the path
    joins object keys with [.] and names a list element by its ["name"]
    field when it has one, else by its index; the value is its JSON
    text.  An empty list or object below the top is a leaf too, printed
    as [[]] or [{}], so no key of the report goes unprinted. *)
