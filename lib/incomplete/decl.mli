(** Completeness declarations: which relations of an instance are
    known-total and which are open-world.

    An instance with declaration [d] stands for the {e set} of its
    completions: databases over the same domain, with the same
    characteristic tree [T_B] and tuple equivalence [≅_B], where each
    [total] relation equals the stored one and each [open] relation
    [Rᵢ′] ranges over [known(Rᵢ) ⊆ Rᵢ′ ⊆ poss(Rᵢ)].  The stored
    relation is always one of the completions, so for every query the
    certain answers are contained in the exact (stored-instance)
    answers, which are contained in the possible answers.

    The two optional oracles refine the bounds of an open relation:

    - [known_if f]: a stored tuple [u ∈ Rᵢ] is {e known} (in every
      completion) iff [f(u)] holds — the known subset is
      [Rᵢ ∩ f].  Without it the known subset is empty.
    - [poss_if f]: a tuple [u ∉ Rᵢ] is {e possible} (in some
      completion) iff [f(u)] holds — the possible superset is
      [Rᵢ ∪ f].  Without it every tuple is possible.

    Oracles are FO formulas over variables [x1 .. xa] (arity of [Rᵢ]),
    evaluated exactly against the stored representation — so they are
    automorphism-invariant, and the bounds stay unions of ≅-classes as
    Definition 3.7 requires. *)

type status =
  | Total
  | Open of {
      known_if : Rlogic.Ast.formula option;
      poss_if : Rlogic.Ast.formula option;
    }

type t

val make : status array -> t
(** Slot [i] declares relation [Rᵢ₊₁] (0-based index, 1-based name). *)

val width : t -> int
val status : t -> int -> status
(** Relations beyond the declared width default to [Total]. *)

val is_open : t -> int -> bool
val all_total : t -> bool
val open_rels : t -> int list
(** Indices of the open relations, ascending. *)

val open_names : t -> int list -> string list
(** The surface names (["R1"], ["R2"], …) of the open relations among
    the given indices, ascending — the certificate's
    [open_relations_touched] list. *)

val parse : string -> (t, string) result
(** Parse the declaration surface syntax:
    {v
    decl   ::= clause (";" clause)*
    clause ::= R<i> ("total" | "open" ["known if" F] ["poss if" F])
    v}
    where [F] is an FO formula in {!Rlogic.Parser} syntax over
    [x1 .. xa].  Relations not mentioned default to [Total]. *)

val validate : t -> db_type:int array -> (unit, string) result
(** Check the declaration against an instance type: declared indices in
    range, oracle free variables within [x1 .. xa], atom arities
    well-formed. *)

val to_string : t -> string
(** Round-trips through {!parse}. *)

val demo : (string * string) list
(** The demonstration open-world declarations used by
    [recdb serve --open-world], [bench incomplete] and the smokes:
    instance name → declaration text, covering no-oracle, known-subset
    and possible-superset shapes. *)
