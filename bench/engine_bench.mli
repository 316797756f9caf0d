(** The engine benchmarks E24–E26, E28, E29 and E31 behind
    [bench/main.exe NAME].  Every [run*] returns its report — the JSON
    that [-o] writes — and the violated acceptance checks, empty when
    all hold. *)

val run : unit -> Json.t * string list
(** E24: raw-oracle savings of the LRU on 25 repetitions of E17's four
    sentences on triangles.  Violations: a cached engine answer that
    differs from {!Hs.Fo_eval.eval_sentence} on the uncached instance,
    or no fewer raw oracle calls cached than uncached. *)

val run_resilience :
  ?trials:int ->
  ?requests:int ->
  ?fault_requests:int ->
  unit ->
  Json.t * string list
(** E25: budget-guard overhead on the mixed batch ([requests], default
    2000, best of [trials], default 3; reported, not gated), deadline
    and budget trips on the heaviest expressible request
    ([tree(paths3, 6)]), and retry-under-faults determinism on a mixed
    batch of [fault_requests] (default 200).  Violations: the deadline
    probe is not [deadline_exceeded]; the budget probe is not
    [budget_exceeded] or asks more than its quota; a non-faulted
    response of the fault run differs from the clean run. *)

val run_parallel : ?requests:int -> unit -> Json.t * string list
(** E26: the mixed batch ([requests], default 600) cold and warm on one
    sequential engine, then on shared-memo pools of 1/2/4/8 domains
    (counts above the recommendation skipped).  Violations, per
    measured domain count: responses not byte-identical to sequential,
    more genuine questions than the sequential engine, a worker
    death. *)

val run_obs : ?requests:int -> ?trials:int -> unit -> Json.t * string list
(** E28: the mixed batch ([requests], default 2000) on a fresh
    sequential engine, [trials] (default 3) runs per tracing mode (off /
    1-in-64 / full).  Violations: off or sampled overhead >= 5% (with
    an absolute slack for sub-50ms smoke runs), a response that differs
    across modes, a traced request whose span slices do not sum to its
    stats, or a budget-trip probe ([tree(paths3, 6)] under a
    200-question quota) that does not trip within its quota. *)

val run_rql : ?requests:int -> unit -> Json.t * string list
(** E29: the RQL batch ([requests], default 120) cold under both
    planners on fresh shared-memo engines, then re-served warm with a
    one-smaller cutoff.  Violations: error responses, naive and planned
    answers differ, the planner saves no questions, the warm pass
    re-plans or asks a new question. *)

(** {2 E31: the compiled evaluation tier} *)

val check_golden : path:string -> string -> string list
(** [check_golden ~path set] serves golden set [set] — ["mixed"],
    ["budget"], ["deadline"] or ["e31"], the request sets whose
    interpreted-engine output is frozen in the golden file
    ([test/golden/compile_interp.jsonl] in the source tree) — on a fresh engine
    (under the set's own budget or deadline) and compares each response
    — bytes with stats stripped, plus [oracle_calls], [tb_calls],
    [equiv_calls] and [cache_hits] — with the frozen line in [path].
    Returns the differences; empty when the set reproduces exactly. *)

val golden_e31_requests : int
(** The size of the e31 batch frozen in the golden file (200); the most
    [run_compile ~requests] can check. *)

val run_compile : golden:string -> ?requests:int -> unit -> Json.t * string list
(** E31: interpreter-vs-compiled hot loops at library level — deep
    Eq-heavy FO quantification and bounded-domain Qf enumeration,
    gated at 5x, plus ungated RQL and QL rows — then every golden set,
    the e31 batch cut to its first [requests] (default and maximum
    200), checked against the golden file [golden].  Violations: a hot
    loop whose evaluators disagree or a gated one under 5x, any
    difference from the golden file. *)
