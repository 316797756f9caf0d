open Prelude

(* ------------------------------------------------------------------ *)
(* A lock-striped memo table, one mutex per stripe; critical sections
   are single hashtable probes/inserts.  The compute closure runs with
   NO lock held: a slow oracle question never blocks other keys, at
   the price that two workers racing on the same cold key may both
   compute (each worker's own instrumentation counts its own genuine
   questions; the first insertion wins and everyone returns it).  A
   compute that raises (budget trip, injected fault) stores nothing. *)

type table_stats = { hits : int; misses : int }

(* Eight stripes, picked by hash bits 24–26.  Each stripe is a
   [Hashtbl.Make] table, which takes its bucket index from the low
   bits of the same hash; a stripe chosen by the low bits would leave
   every key in it agreeing on three bucket bits, so 7/8 of its
   buckets would stay empty.  Bits 24–26 feed no bucket index below
   2^24 buckets. *)
let stripe_of_hash h = (h lsr 24) land 7

module Make_table (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'v t = {
    stripe : (Mutex.t * 'v H.t) array;  (* 8, by [stripe_of_hash] *)
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create () =
    {
      stripe = Array.init 8 (fun _ -> (Mutex.create (), H.create 64));
      hits = Atomic.make 0;
      misses = Atomic.make 0;
    }

  let find_or_compute t k compute =
    let lock, tbl = t.stripe.(stripe_of_hash (K.hash k)) in
    Mutex.lock lock;
    let found = H.find_opt tbl k in
    Mutex.unlock lock;
    match found with
    | Some v ->
        Atomic.incr t.hits;
        v
    | None ->
        let v = compute () in
        Atomic.incr t.misses;
        Mutex.lock lock;
        let v =
          match H.find_opt tbl k with
          | Some v0 -> v0 (* lost the race: the first insertion wins *)
          | None ->
              H.add tbl k v;
              v
        in
        Mutex.unlock lock;
        v

  (* Insert-if-absent without touching the hit/miss ledger: loading a
     snapshot must not look like thousands of misses (the stats feed
     the memo gauges and the E30 assertions).  Same
     first-insertion-wins rule as [find_or_compute]. *)
  let seed t k v =
    let lock, tbl = t.stripe.(stripe_of_hash (K.hash k)) in
    Mutex.lock lock;
    let inserted =
      match H.find_opt tbl k with
      | Some _ -> false
      | None ->
          H.add tbl k v;
          true
    in
    Mutex.unlock lock;
    inserted

  (* Snapshot iteration, one stripe's lock at a time.  [f] runs under
     that lock and must only accumulate (never touch any memo table),
     which is all the exporter does. *)
  let fold t f init =
    Array.fold_left
      (fun acc (lock, tbl) ->
        Mutex.lock lock;
        let acc = H.fold f tbl acc in
        Mutex.unlock lock;
        acc)
      init t.stripe

  let stats t =
    { hits = Atomic.get t.hits; misses = Atomic.get t.misses }
end

module Tuple_key = struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end

module Pair_key = struct
  type t = Tuple.t * Tuple.t

  let equal (u1, v1) (u2, v2) = Tuple.equal u1 u2 && Tuple.equal v1 v2
  let hash (u, v) = Tuple.hash_pair u v
end

module String_key = struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end

module Ttbl = Make_table (Tuple_key)
module Ptbl = Make_table (Pair_key)
module Stbl = Make_table (String_key)

(* ------------------------------------------------------------------ *)

type plan =
  | Sentence_plan of (Rlogic.Ast.formula, string) result
  | Query_plan of (Rlogic.Ast.query, string) result
  | Program_plan of (Ql.Ql_ast.program, string) result
  | Rql_plan of (Rql.Rql_plan.t, string) result

type instance_memo = {
  children_tbl : int list Ttbl.t;
  equiv_tbl : bool Ptbl.t;
  mutable rel_tbls : bool Ttbl.t array;
}

type result_value = {
  value : (string, Request.error) Stdlib.result;
  cert : Request.certificate;
}

type t = {
  instances : (string, instance_memo) Hashtbl.t;
  instances_lock : Mutex.t;
  plans : plan Stbl.t;
  results : result_value Stbl.t;
  rql_defs : Tupleset.t Stbl.t;
}

let create () =
  {
    instances = Hashtbl.create 16;
    instances_lock = Mutex.create ();
    plans = Stbl.create ();
    results = Stbl.create ();
    rql_defs = Stbl.create ();
  }

let instance t ~name ~nrels =
  Mutex.lock t.instances_lock;
  let m =
    match Hashtbl.find_opt t.instances name with
    | Some m ->
        (* A seeded snapshot may have recorded fewer relations than the
           live instance declares (or vice versa).  Grow in place under
           the lock; existing tables keep their contents. *)
        if Array.length m.rel_tbls < nrels then
          m.rel_tbls <-
            Array.init nrels (fun i ->
                if i < Array.length m.rel_tbls then m.rel_tbls.(i)
                else Ttbl.create ());
        m
    | None ->
        let m =
          {
            children_tbl = Ttbl.create ();
            equiv_tbl = Ptbl.create ();
            rel_tbls = Array.init nrels (fun _ -> Ttbl.create ());
          }
        in
        Hashtbl.add t.instances name m;
        m
  in
  Mutex.unlock t.instances_lock;
  m

(* Keys are copied on insertion-by-compute?  No: the engine hands us
   tuples it owns and never mutates (Hsdb copies defensively on its
   side), and the first-insertion-wins rule means a key is stored at
   most once — we copy defensively anyway to stay safe against callers
   reusing scratch buffers. *)
let children m u ~compute =
  Ttbl.find_or_compute m.children_tbl (Array.copy u) compute

let equiv m u v ~compute =
  Ptbl.find_or_compute m.equiv_tbl (Array.copy u, Array.copy v) compute

let rel m i u ~compute =
  (* [rel_tbls] can be grown concurrently by [instance]; a reader that
     still sees the shorter array just computes uncached — correct,
     merely colder. *)
  let tbls = m.rel_tbls in
  if i < Array.length tbls then
    Ttbl.find_or_compute tbls.(i) (Array.copy u) compute
  else compute ()
let plan t ~key ~compute = Stbl.find_or_compute t.plans key compute
let result t ~key ~compute = Stbl.find_or_compute t.results key compute
let rql_def t ~key ~compute = Stbl.find_or_compute t.rql_defs key compute

(* Declared after the accessors above so the [t] record's field labels
   are not shadowed by these (deliberately same-named) stat labels. *)
type stats = {
  children : table_stats;
  equiv : table_stats;
  rels : table_stats;
  plans : table_stats;
  results : table_stats;
  rql_defs : table_stats;
}

let stats t =
  Mutex.lock t.instances_lock;
  let memos = Hashtbl.fold (fun _ m acc -> m :: acc) t.instances [] in
  Mutex.unlock t.instances_lock;
  let add a b = { hits = a.hits + b.hits; misses = a.misses + b.misses } in
  let zero = { hits = 0; misses = 0 } in
  let children =
    List.fold_left (fun acc m -> add acc (Ttbl.stats m.children_tbl)) zero memos
  in
  let equiv =
    List.fold_left (fun acc m -> add acc (Ptbl.stats m.equiv_tbl)) zero memos
  in
  let rels =
    List.fold_left
      (fun acc m ->
        Array.fold_left (fun acc tbl -> add acc (Ttbl.stats tbl)) acc m.rel_tbls)
      zero memos
  in
  {
    children;
    equiv;
    rels;
    plans = Stbl.stats t.plans;
    results = Stbl.stats t.results;
    rql_defs = Stbl.stats t.rql_defs;
  }

let total_hits t =
  let s = stats t in
  s.children.hits + s.equiv.hits + s.rels.hits + s.plans.hits + s.results.hits
  + s.rql_defs.hits

(* ------------------------------------------------------------------ *)
(* Snapshot export / import.

   Everything but plans round-trips by value.  Plans are not exported:
   a plan value holds compiled ASTs whose serialization would be
   fragile, and recomputing one asks zero oracle questions (parsing and
   planning never touch an instance), so persisting plans would save
   no question. *)

type dump_entry =
  | D_instance of { name : string; nrels : int }
  | D_children of { inst : string; key : Tuple.t; value : int list }
  | D_equiv of { inst : string; u : Tuple.t; v : Tuple.t; value : bool }
  | D_rel of { inst : string; index : int; key : Tuple.t; value : bool }
  | D_result of { key : string; value : result_value }
  | D_rql_def of { key : string; value : Tupleset.t }

let export t =
  Mutex.lock t.instances_lock;
  let instances =
    Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.instances []
  in
  Mutex.unlock t.instances_lock;
  (* Instance declarations first, so the importer sizes rel_tbls before
     any per-instance entry arrives. *)
  let acc =
    List.fold_left
      (fun acc (name, m) ->
        D_instance { name; nrels = Array.length m.rel_tbls } :: acc)
      [] instances
  in
  let acc =
    List.fold_left
      (fun acc (name, m) ->
        let acc =
          Ttbl.fold m.children_tbl
            (fun key value acc -> D_children { inst = name; key; value } :: acc)
            acc
        in
        let acc =
          Ptbl.fold m.equiv_tbl
            (fun (u, v) value acc -> D_equiv { inst = name; u; v; value } :: acc)
            acc
        in
        let tbls = m.rel_tbls in
        let acc = ref acc in
        Array.iteri
          (fun index tbl ->
            acc :=
              Ttbl.fold tbl
                (fun key value acc ->
                  D_rel { inst = name; index; key; value } :: acc)
                !acc)
          tbls;
        !acc)
      acc instances
  in
  let acc =
    Stbl.fold t.results (fun key value acc -> D_result { key; value } :: acc) acc
  in
  let acc =
    Stbl.fold t.rql_defs
      (fun key value acc -> D_rql_def { key; value } :: acc)
      acc
  in
  List.rev acc

(* Returns [true] if the entry was inserted (or was an instance
   declaration), [false] if it was skipped: already present, or a rel
   index the importer cannot place.  Seeding never updates hit/miss
   counters — a loaded answer is a cache entry, not a question, and
   must not read as one. *)
let seed t entry =
  match entry with
  | D_instance { name; nrels } ->
      ignore (instance t ~name ~nrels);
      true
  | D_children { inst; key; value } ->
      let m = instance t ~name:inst ~nrels:0 in
      Ttbl.seed m.children_tbl key value
  | D_equiv { inst; u; v; value } ->
      let m = instance t ~name:inst ~nrels:0 in
      Ptbl.seed m.equiv_tbl (u, v) value
  | D_rel { inst; index; key; value } ->
      if index < 0 then false
      else
        let m = instance t ~name:inst ~nrels:(index + 1) in
        let tbls = m.rel_tbls in
        if index < Array.length tbls then Ttbl.seed tbls.(index) key value
        else false
  | D_result { key; value } -> Stbl.seed t.results key value
  | D_rql_def { key; value } -> Stbl.seed t.rql_defs key value
