(** The deterministic request streams the serving checks share: the
    default {!Loadgen} workload, the store smoke, the E24–E33 benches
    and the serving tests.  Committed baselines
    were measured on these exact requests, so each stream is pinned by
    a digest in [test_engine]. *)

val batch_instances : string list
(** The five graph instances {!mixed} cycles over. *)

val mixed : int -> Request.t list
(** [mixed n]: [n] requests with ids [1..n] — sentences and queries
    (cutoff 10) over {!batch_instances}, a class count every tenth
    request. *)

val rql_instances : string list
(** The five instances {!rql} cycles over. *)

val rql_texts : string list
(** The RQL texts {!rql} cycles over: transitive-closure fixpoints, an
    alpha/whitespace variant sharing a normalized plan, dead bindings,
    shared [let]s, duplicate fixpoints, sentences, plain queries and a
    tree. *)

val rql : ?cutoff:int -> planner:Request.planner -> int -> Request.t list
(** [rql ~planner n]: [n] RQL requests with ids [1..n], {!rql_texts}
    cycled over {!rql_instances} at request cutoff [cutoff] (default
    4). *)

val mixed_with_rql : int -> Request.t list
(** ¾ {!mixed} then ¼ cost-planned {!rql} (each at least one request;
    the two halves' ids overlap): the stream the store and cluster
    checks serve, so routing keys cover instance- and op-scoped
    payloads and plan-cache entries are exercised. *)
