(** Deterministic, seeded fault injection for oracle calls.

    Wraps the membership / T_B / ≅_B oracles of an engine's instances so
    that, on a schedule derived purely from a seed and a per-engine call
    counter, a call raises a transient {!Oracle_unavailable} instead of
    answering.  Faults are raised {e before} the underlying oracle is
    consulted, so a faulted call is never counted as a genuine oracle
    question and never changes an answer: retrying the same question
    later (a fresh counter value) gets the true answer, which is what
    makes the engine's bounded retry deterministic-modulo-schedule and
    keeps non-faulted results byte-identical to a fault-free run (the
    chaos test's invariant).

    The schedule is a pure function of [(seed, call_index)] via a
    splitmix-style mixer — no [Random] state, no wall clock — so a
    sequential run is exactly reproducible from the seed.  A wrapper
    belongs to one engine (one domain); {!Pool} workers get their own
    wrapper each, seeded from the shared seed. *)

exception Oracle_unavailable of { oracle : string; call : int }
(** A transient outage of the named oracle at the given call index. *)

type config = {
  seed : int;
  fault_period : int;
      (** Roughly one injected fault per this many oracle calls;
          [0] disables faults. *)
}

val config : ?fault_period:int -> seed:int -> unit -> config
(** Default: [fault_period = 97]. *)

type t

val make : config -> t
(** Fresh schedule state (call counter at 0).  Increments the
    process-wide [engine.faults_injected] metric on every injection. *)

val pre : t -> oracle:string -> unit
(** The hook the engine calls immediately before consulting an oracle:
    advances the call counter, maybe raises
    {!Oracle_unavailable}. *)

val faults_injected : t -> int
