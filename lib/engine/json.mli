(** A minimal JSON value type with a compact printer and a strict
    recursive-descent parser.

    The engine's request/response ABI and the metrics dumps are
    JSON-lines; the toolchain ships no JSON library, so this module
    provides the small subset we need.  Printing is deterministic:
    object fields appear exactly in the order given, which is what makes
    "byte-identical results" a meaningful guarantee for {!Pool}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no insignificant whitespace), deterministic rendering. *)

val write_opt : string option -> (unit -> t) -> unit
(** [write_opt (Some path) f] writes [to_string (f ())] and a newline to
    [path]; [None] does nothing (how the benches honour [-o]). *)

val pp : Format.formatter -> t -> unit

val parse : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error.  Numbers
    without [.], [e] or [E] become [Int], the rest [Float]. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on other constructors. *)

val to_int : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
