(** Tuples over the database domain ℕ, represented as [int array].

    The paper writes |u| for the rank of a tuple; tuples of rank 0 exist
    (the empty tuple [()]) and matter for relations of rank 0 and for
    Proposition 2.3(1). *)

type t = int array

val empty : t
(** The rank-0 tuple [()]. *)

val rank : t -> int
(** [rank u] is |u|, the number of components. *)

val compare : t -> t -> int
(** Total order: first by rank, then lexicographically. *)

val equal : t -> t -> bool

val append : t -> int -> t
(** [append u a] is the extension [ua] of Section 3 (footnote 5). *)

val concat : t -> t -> t

val prefix : t -> int -> t
(** [prefix u k] is the first [k] components.  Requires [0 <= k <= rank u]. *)

val drop_first : t -> t
(** Drop the first coordinate (used by the [↓] operator of QL).  Requires
    positive rank. *)

val swap_last_two : t -> t
(** Exchange the two rightmost coordinates (the [~] operator of QL).
    Requires rank ≥ 2; identity on rank < 2 is {e not} provided, callers
    guard. *)

val project : t -> int array -> t
(** [project u js] is [(u.(js.(0)), ..., u.(js.(m-1)))] — the projection
    u[j₁,...,jₘ] used throughout the paper (0-based indices). *)

val distinct_elements : t -> int list
(** The distinct components of [u], in order of first occurrence. *)

val equality_pattern : t -> int array
(** The canonical restricted-growth string of [u]'s equality pattern:
    [p.(i) = p.(j)] iff [u.(i) = u.(j)], blocks numbered by first
    occurrence.  Two tuples have order-isomorphic equalities iff their
    patterns are equal arrays. *)

val of_list : int list -> t
val to_list : t -> int list

val pp : Format.formatter -> t -> unit
(** Prints as [(a, b, c)]; the empty tuple prints as [()]. *)

val to_string : t -> string

val hash : t -> int
(** A hash compatible with {!equal} — a specialized FNV-1a over the
    components (no polymorphic traversal), non-negative, folding in the
    rank so a tuple hashes apart from its prefixes. *)

val hash_pair : t -> t -> int
(** A hash for the ordered pair [(u, v)], compatible with
    componentwise {!equal}; asymmetric, for keys of binary memo tables
    (e.g. ≅_B answer caches). *)

module Tbl : Hashtbl.S with type key = t
(** Hashtables keyed by tuples under {!equal}/{!hash} — the key type of
    every oracle memo table. *)

(** A tuple bundled with its memoized hash: computing the hash once at
    key-creation time instead of on every probe/resize of a hashtable.
    Used for hot cache keys (LRU oracle caches, shared memo tables). *)
module Hashed : sig
  type tuple = t
  type t

  val make : tuple -> t
  val tuple : t -> tuple
  val equal : t -> t -> bool
  val hash : t -> int

  val copy : t -> t
  (** A key safe to retain when the underlying tuple is a borrowed
      scratch buffer: copies the tuple, reuses the already-computed
      hash.  This is how a cache probes with a caller's buffer yet
      inserts an owned key without rehashing. *)
end
