(** A process-wide metrics registry: named monotonic counters and
    latency histograms, dumpable as a text table and as JSON, and
    exported whole as an {!Obs.Expo} source (so a server's scrape
    endpoint sees every registered name with no per-metric wiring).

    Registration is get-or-create by name, so any module can say
    [Metrics.counter "engine.requests"] and increment it without
    coordination.  All mutation is domain-safe ([Atomic.t] cells behind
    a registry mutex used only at creation time), so {!Pool} workers
    update shared metrics freely. *)

type counter

type histogram = Obs.Histogram.t
(** Histograms are {!Obs.Histogram} sketches: log-bucketed with a 1%
    relative-error bound at every scale from 1ns to 10⁴s. *)

val counter : string -> counter
(** Get or create the counter with this name. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val histogram : string -> histogram
(** Get or create a latency histogram (unit: seconds). *)

val observe : histogram -> float -> unit
(** Record one observation (seconds; negative values clamp to 0). *)

val histogram_count : histogram -> int

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]: the value at rank ⌈q·count⌉,
    within 1% relative error.  Returns [nan] on an empty histogram. *)

val dump_text : unit -> string
(** Human-readable table: counters sorted by name, then histograms with
    count/p50/p99. *)

val reset_all : unit -> unit
(** Zero every registered counter and histogram (names stay registered). *)
