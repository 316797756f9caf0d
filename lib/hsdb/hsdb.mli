(** Highly symmetric recursive databases (§3).

    An hs-r-db is represented exactly as in Definition 3.7, by
    [C_B = (T_B, ≅_B, C₁, ..., C_k)]:
    {ul
    {- [children] is the oracle for the characteristic tree [T_B]
       (Definition 3.3): given a node — identified with the tuple of
       labels leading to it, the root being the empty tuple — it returns
       the labels of the node's immediate offspring.  [T_B] is highly
       recursive: finitely branching with computable offspring;}
    {- [equiv] is the oracle for the recursive predicate [≅_B]
       (Definition 3.1): whether some automorphism of B takes [u] to
       [v];}
    {- the representative sets [Cᵢ] are derived from the tree and the
       underlying database: the paths of length [aᵢ] that belong to
       [Rᵢ].  (Each [Rᵢ] is a union of whole equivalence classes, so this
       determines [Rᵢ] completely: [u ∈ Rᵢ] iff [u ≅_B w] for some
       [w ∈ Cᵢ].)}}

    The underlying [Rdb.Database.t] is kept so tests can cross-check the
    representation against the raw recursive relations. *)

type t

val make :
  ?name:string ->
  db:Rdb.Database.t ->
  children:(Prelude.Tuple.t -> int list) ->
  equiv:(Prelude.Tuple.t -> Prelude.Tuple.t -> bool) ->
  unit ->
  t
(** Assemble a representation.  The [Cᵢ] sets are computed from the tree
    and the database's membership oracles. *)

val name : t -> string
val db : t -> Rdb.Database.t
val db_type : t -> int array

val children : t -> Prelude.Tuple.t -> int list
(** The [T_B] oracle (memoized). *)

val equiv : t -> Prelude.Tuple.t -> Prelude.Tuple.t -> bool
(** The [≅_B] oracle. *)

val paths : t -> int -> Prelude.Tuple.t list
(** [paths t n] is [Tⁿ], the set of paths of length [n] from the root
    (memoized).  [paths t 0 = [()]]. *)

val is_path : t -> Prelude.Tuple.t -> bool
(** Whether a tuple labels a root path of [T_B]. *)

val representative : t -> Prelude.Tuple.t -> Prelude.Tuple.t
(** The unique [v ∈ Tⁿ] with [u ≅_B v].  Raises [Not_found] if the tree
    does not cover [u]'s class (a representation bug — {!validate} finds
    those). *)

val reps : t -> int -> Prelude.Tupleset.t
(** [reps t i] is [Cᵢ] — representatives of the classes constituting
    [Rᵢ]. *)

val rel_mem : t -> int -> Prelude.Tuple.t -> bool
(** Membership in [Rᵢ] decided through the representation: [u ≅_B w] for
    some [w ∈ Cᵢ].  Must agree with the underlying database. *)

val class_count : t -> int -> int
(** Number of equivalence classes of rank [n] = |Tⁿ| — finite for every
    [n] because B is highly symmetric. *)

(** How {!members} decides whether a tuple belongs to the union of the
    classes of a representative set.  The two disciplines keep the same
    tuples but ask ≅_B about different pairs, which the Def. 3.9 ledger
    sees: [Scan] probes [u ≅_B p] for each representative [p] in
    {!scan_order} until one holds (Theorem 6.3's evaluators and QL_hs);
    [Mem_then_scan] first keeps a [u] that is itself in the set, with no
    probe, and scans only otherwise (the cost-based RQL planner). *)
type probe = Scan | Mem_then_scan

val scan_order : Prelude.Tupleset.t -> Prelude.Tuple.t list
(** The order in which a scan visits a set: [Tupleset.exists]'s, root
    of the set's balanced tree first.  It depends on how the set was
    built, not only on its elements: a set from [Tupleset.of_list] and
    an equal one from set operations can scan in different orders and
    so ask ≅_B about different pairs. *)

val members :
  t ->
  probe:probe ->
  rank:int ->
  reps:Prelude.Tupleset.t ->
  cutoff:int ->
  Prelude.Tupleset.t
(** The answer denoted by a representative set, windowed: the tuples of
    rank [rank] over [{0, ..., cutoff-1}] that are ≅_B to some member
    of [reps].  The pairs it probes, in
    order, are a function of [(probe, rank, cutoff, scan_order reps)],
    so a repeat of an enumeration with those four equal asks only pairs
    the first one asked — the engine's member memo relies on this. *)

val dedupe_extensions :
  equiv:(Prelude.Tuple.t -> Prelude.Tuple.t -> bool) ->
  Prelude.Tuple.t ->
  int list ->
  int list
(** Helper for building [children] oracles: keep the first candidate
    label of each [≅]-class of the extended tuple [ua]. *)

val stretch : t -> by:Prelude.Tuple.t -> t
(** The stretching of B by the elements of a tree path [d] (§3.1): the
    database [(D, R₁, ..., R_k, {(d₁)}, ..., {(d_m)})].  Its tuple
    equivalence is [u ≅_B' v ⟺ du ≅_B dv], and its characteristic tree
    is the subtree of [T_B] under [d].  Requires [by] to be a path of
    [T_B]. *)

val oracle_calls : t -> int * int
(** Accounting for the Definition 3.9 oracle model: how many questions
    have been asked of the [T_B] oracle (children) and of the [≅_B]
    oracle (equiv) since creation or the last {!reset_oracle_calls}.
    Children answers are memoized — only genuine oracle questions are
    counted. *)

val reset_oracle_calls : t -> unit

val validate : ?max_rank:int -> ?window:int -> t -> string list
(** Sanity-check the representation; returns human-readable violations
    (empty list = consistent).  Checks, up to the given rank and domain
    window: tree paths are pairwise non-equivalent; every tuple over the
    window has a representative; [rel_mem] agrees with the underlying
    database; [equiv] is reflexive/symmetric on samples; equivalent
    tuples are locally isomorphic. *)

val pp_tree : ?max_rank:int -> Format.formatter -> t -> unit
(** Print the first levels of the characteristic tree. *)
