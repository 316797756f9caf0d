open Prelude
module H = Hashtbl.Make (Tuple.Hashed)

(* Intrusive doubly-linked list in recency order; [head] is the most
   recently used node, [tail] the eviction candidate.  The node key
   carries its FNV-1a hash, computed once per probe at [lookup] entry:
   the table probe and every later recency touch or resize reuse it
   instead of rehashing the tuple. *)
type node = {
  key : Tuple.Hashed.t;
  answer : bool;
  mutable prev : node option;
  mutable next : node option;
}

type stats = { hits : int; misses : int; evictions : int }

(* One owner: every lookup, [clear] and [length] runs on the domain
   that owns the engine, so the list and the table need no lock.  The
   counters are atomics because Pool and the /metrics gauges read them
   from other domains. *)
type t = {
  base : Rdb.Relation.t;
  mutable cached : Rdb.Relation.t;  (* set right after creation *)
  cap : int;
  table : node H.t;
  mutable head : node option;
  mutable tail : node option;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

let unlink c node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> c.head <- node.next);
  (match node.next with
  | Some s -> s.prev <- node.prev
  | None -> c.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front c node =
  node.next <- c.head;
  (match c.head with Some h -> h.prev <- Some node | None -> ());
  c.head <- Some node;
  if c.tail = None then c.tail <- Some node

let lookup c u =
  let hk = Tuple.Hashed.make u in
  match H.find_opt c.table hk with
  | Some node ->
      (* Hit: refresh recency, answer without consulting the oracle. *)
      unlink c node;
      push_front c node;
      Atomic.incr c.hits;
      node.answer
  | None ->
      (* Miss: a genuine oracle question, counted by the underlying
         relation's instrumentation. *)
      let answer = Rdb.Relation.mem c.base u in
      Atomic.incr c.misses;
      if H.length c.table >= c.cap then
        Option.iter
          (fun victim ->
            unlink c victim;
            H.remove c.table victim.key;
            Atomic.incr c.evictions)
          c.tail;
      (* own the key without rehashing: copy the tuple, keep the hash
         computed at probe entry *)
      let node =
        { key = Tuple.Hashed.copy hk; answer; prev = None; next = None }
      in
      H.replace c.table node.key node;
      push_front c node;
      answer

let wrap ?(capacity = 4096) base =
  if capacity < 1 then invalid_arg "Oracle_cache.wrap: capacity < 1";
  let c =
    {
      base;
      cached = base;
      cap = capacity;
      table = H.create (min capacity 1024);
      head = None;
      tail = None;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      evictions = Atomic.make 0;
    }
  in
  c.cached <-
    Rdb.Relation.make
      ~name:(Rdb.Relation.name base ^ "+lru")
      ~arity:(Rdb.Relation.arity base)
      (fun u -> lookup c u);
  c

let relation c = c.cached
let underlying c = c.base

let stats c =
  {
    hits = Atomic.get c.hits;
    misses = Atomic.get c.misses;
    evictions = Atomic.get c.evictions;
  }

let reset_stats c =
  Atomic.set c.hits 0;
  Atomic.set c.misses 0;
  Atomic.set c.evictions 0

let clear c =
  H.reset c.table;
  c.head <- None;
  c.tail <- None

let length c = H.length c.table
let capacity c = c.cap

let wrap_db ?capacity db =
  let caches = Array.map (fun r -> wrap ?capacity r) (Rdb.Database.relations db) in
  let db' =
    Rdb.Database.make ~name:(Rdb.Database.name db)
      ~domain:(Rdb.Database.domain db)
      (Array.map relation caches)
  in
  (db', caches)

let total_stats caches =
  Array.fold_left
    (fun (acc : stats) c ->
      let s = stats c in
      {
        hits = acc.hits + s.hits;
        misses = acc.misses + s.misses;
        evictions = acc.evictions + s.evictions;
      })
    { hits = 0; misses = 0; evictions = 0 }
    caches
