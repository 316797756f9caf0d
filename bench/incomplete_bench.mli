(** E33: the incompleteness-aware answering benchmark — mode-subset
    containment (certain ⊆ exact ⊆ possible) on the demo open-world
    declarations, closed-world byte-identity across all four modes,
    approximate-mode convergence to the certain answer under a growing
    consult budget, and zero question-ledger overhead for the
    certificate machinery ([bench/main.exe incomplete]). *)

val run : ?requests:int -> unit -> Json.t * string list
(** Run E33: [requests] (default 120) mode-triplicated requests over
    the {!Incomplete.Decl.demo} instances, the closed-world identity
    batch, the budget sweep and the overhead pair.  Returns the report
    ([BENCH_incomplete.json]) and the violated acceptance checks. *)
