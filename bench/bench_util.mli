(** What every E-bench shares: wall-clock timing, the stats-stripped
    response bytes that byte-identity gates compare, and [-o]. *)

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

(** One named row of a multi-row bench (E32, E33). *)
type row = {
  b_name : string;
  b_requests : int;
  b_wall_s : float;
  b_detail : (string * Json.t) list;  (** row-specific fields *)
}

val row_to_json : row -> Json.t
(** [{"name", "requests", "wall_s"}] followed by the detail fields. *)

val write_opt : string option -> (unit -> Json.t) -> unit
(** [write_opt (Some path) f] writes [f ()] and a newline to [path];
    [None] does nothing (how the benches honour [-o]). *)
