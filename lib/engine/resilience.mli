(** Per-request evaluation budgets and wall-clock deadlines.

    The paper's queries are {e partial} computable functions (Def. 2.4):
    whether an evaluation terminates is undecidable in general, so a
    serving engine must bound every evaluation and answer with a typed
    partial outcome instead of hanging.  This module provides the
    enforcement mechanism: a guard armed once per request with a global
    oracle-question quota and an absolute deadline, and a {!tick} called
    from the instrumented-oracle hot path (one tick per genuine question
    to an Rᵢ, T_B or ≅_B oracle).

    The check is deliberately cheap — a decrement and a compare, plus a
    [Unix.gettimeofday] only every {!deadline_check_mask}+1 ticks — so
    it piggybacks on the oracle instrumentation that already exists
    rather than adding a second accounting layer.  Crucially the
    aborting tick fires {e before} the underlying oracle is consulted,
    so a budget hit is never itself counted as an extra oracle question:
    the cost-so-far reported with the error is exact (see DESIGN.md,
    "Budgeted evaluation vs. Def. 2.4 partiality").

    A guard belongs to a single engine and is not thread-safe; each
    {!Pool} worker owns a private engine and therefore a private
    guard. *)

type limits = {
  max_oracle_calls : int option;
      (** Global quota over all oracle questions (Rᵢ + T_B + ≅_B) a
          single request may ask. *)
  deadline_s : float option;
      (** Wall-clock bound for the whole request. *)
}

val no_limits : limits
(** No quota, no deadline — evaluation is unbounded, as in the paper. *)

val unlimited : limits -> bool
(** [true] iff both fields are [None]. *)

exception Budget_hit of { limit : int }
(** Raised by {!tick} when the quota is exhausted; the question that
    would have exceeded the budget was {e not} asked. *)

exception Deadline_hit of { deadline_s : float; elapsed_s : float }
(** Raised by {!tick} once the wall clock passes the armed deadline. *)

type t

val create : unit -> t
(** A disarmed guard: {!tick} never raises until {!arm} is called. *)

val arm : t -> limits -> unit
(** Start a request: install the quota and convert the relative deadline
    to an absolute wall-clock instant. *)

val disarm : t -> unit
(** End a request: subsequent ticks are free and never raise. *)

val tick : t -> unit
(** One oracle question is about to be asked.  Raises {!Budget_hit} or
    {!Deadline_hit} when the armed limits are exceeded. *)

val deadline_check_mask : int
(** Ticks between clock probes minus one (a power of two minus one). *)
