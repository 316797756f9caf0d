(** Closure-compiled counterpart of {!Rql_eval}.

    [prepare] compiles every definition body and the target once per
    (instance, plan): variables resolve to static tree-path slots,
    base-relation handles are hoisted, derived atoms close over the
    definition-slot array they read at evaluation time — so a fixpoint
    sweep re-tests tuples through closures instead of re-walking the
    AST with assoc-list environments.

    Evaluation mirrors {!Rql_eval.run} call for call: the same
    [children]/[equiv]/relation entry points in the same order (the
    fixpoint schedules, probe orders and {!Rql_eval.mem_derived}
    discipline are shared), the same defensive round cap, the same
    {!Rql_eval.Error}s.  Outcomes and the Def. 3.9 ledger are identical
    to the interpreter's by construction; only instance-dependent
    static validation moves from per-run to preparation time (it asks
    no questions either way).

    A prepared plan owns mutable slot state and scratch buffers:
    single-threaded, reusable across any number of [run]s. *)

type prepared

val prepare : Hs.Hsdb.t -> Rql_plan.t -> prepared
(** Validate ({!Rql_eval.validate_atoms}) and compile.  Raises
    {!Rql_eval.Error} exactly where the interpreter's first run
    would. *)

val run :
  ?memo:
    (key:string ->
    compute:(unit -> Prelude.Tupleset.t) ->
    Prelude.Tupleset.t) ->
  cutoff:int ->
  prepared ->
  Rql_eval.outcome
(** Evaluate — observationally identical to [Rql_eval.run ?memo ~cutoff]
    on the plan given to {!prepare}. *)

(** {!run} stopped before a query target's member enumeration, for a
    caller that finishes (or memoizes) that step itself. *)
type answer =
  | Answer of Rql_eval.outcome  (** a sentence or tree target, complete *)
  | Reps of {
      rank : int;
      reps : Prelude.Tupleset.t;
      cutoff : int;  (** the query's own [[cutoff N]], else the caller's *)
      probe : Hs.Hsdb.probe;
          (** the plan mode's {!Rql_eval.mem_derived} order *)
    }
      (** a query target: its members are
          [Hs.Hsdb.members t ~probe ~rank ~reps ~cutoff] *)

val eval :
  ?memo:
    (key:string ->
    compute:(unit -> Prelude.Tupleset.t) ->
    Prelude.Tupleset.t) ->
  cutoff:int ->
  prepared ->
  answer
(** Everything {!run} does up to a query target's members, asking the
    same questions in the same order; {!run} is [eval] followed by
    {!Hs.Hsdb.members}. *)
