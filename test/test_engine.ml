open Prelude

let check = Alcotest.check
let t = Tuple.of_list

(* ------------------------------------------------------------------ *)
(* Oracle_cache                                                        *)

let triangles () =
  match Engine.build_instance "triangles" with
  | Some b -> b
  | None -> Alcotest.fail "triangles not registered"

let test_cache_identical () =
  (* 200 random probes, each twice: the cached view must agree with an
     independent uncached copy of the same instance on every answer. *)
  let cached =
    Oracle_cache.wrap ~capacity:64
      (Rdb.Database.relation (Hs.Hsdb.db (triangles ())) 0)
  in
  let reference = Rdb.Database.relation (Hs.Hsdb.db (triangles ())) 0 in
  let rel = Oracle_cache.relation cached in
  let rng = Random.State.make [| 0x5eed |] in
  for _ = 1 to 200 do
    let u = t [ Random.State.int rng 40; Random.State.int rng 40 ] in
    let expect = Rdb.Relation.mem reference u in
    Alcotest.(check bool) "first lookup" expect (Rdb.Relation.mem rel u);
    Alcotest.(check bool) "repeat lookup" expect (Rdb.Relation.mem rel u)
  done;
  let s = Oracle_cache.stats cached in
  check Alcotest.int "hits + misses = lookups" 400 (s.hits + s.misses);
  check Alcotest.int "misses are the genuine questions" s.misses
    (Rdb.Relation.calls (Oracle_cache.underlying cached));
  check Alcotest.int "wrapper counts every lookup" 400
    (Rdb.Relation.calls rel)

let test_cache_hit_is_not_a_question () =
  (* Definitions 2.4 / 3.9: only lookups that reach the oracle count.
     A repeated lookup must not increment the underlying counter. *)
  let c =
    Oracle_cache.wrap (Rdb.Relation.make ~arity:1 (fun u -> u.(0) mod 2 = 0))
  in
  let rel = Oracle_cache.relation c in
  Alcotest.(check bool) "4 even" true (Rdb.Relation.mem rel (t [ 4 ]));
  Alcotest.(check bool) "4 even again" true (Rdb.Relation.mem rel (t [ 4 ]));
  Alcotest.(check bool) "5 odd" false (Rdb.Relation.mem rel (t [ 5 ]));
  Alcotest.(check bool) "5 odd again" false (Rdb.Relation.mem rel (t [ 5 ]));
  check Alcotest.int "two genuine questions" 2
    (Rdb.Relation.calls (Oracle_cache.underlying c));
  let s = Oracle_cache.stats c in
  check Alcotest.int "two hits" 2 s.hits;
  check Alcotest.int "two misses" 2 s.misses

let test_cache_eviction () =
  let c =
    Oracle_cache.wrap ~capacity:8
      (Rdb.Relation.make ~arity:1 (fun u -> u.(0) > 10))
  in
  let rel = Oracle_cache.relation c in
  check Alcotest.int "capacity" 8 (Oracle_cache.capacity c);
  for i = 0 to 19 do
    ignore (Rdb.Relation.mem rel (t [ i ]))
  done;
  check Alcotest.int "length bounded by capacity" 8 (Oracle_cache.length c);
  check Alcotest.int "evictions" 12 (Oracle_cache.stats c).evictions;
  (* The 8 most recent keys survived: re-probing them is all hits. *)
  Oracle_cache.reset_stats c;
  for i = 12 to 19 do
    ignore (Rdb.Relation.mem rel (t [ i ]))
  done;
  let s = Oracle_cache.stats c in
  check Alcotest.int "recent keys all hit" 8 s.hits;
  check Alcotest.int "no misses on survivors" 0 s.misses;
  (* The evicted keys are gone: probing one is a miss again. *)
  ignore (Rdb.Relation.mem rel (t [ 0 ]));
  check Alcotest.int "evicted key misses" 1 (Oracle_cache.stats c).misses;
  Oracle_cache.clear c;
  check Alcotest.int "clear empties" 0 (Oracle_cache.length c)

(* ------------------------------------------------------------------ *)
(* LRU properties (QCheck)                                             *)

(* A reference LRU: the distinct keys of [probes], most recent first. *)
let model_recency probes =
  let last = Hashtbl.create 64 in
  List.iteri (fun i k -> Hashtbl.replace last k i) probes;
  Hashtbl.fold (fun k i acc -> (i, k) :: acc) last []
  |> List.sort (fun (i, _) (j, _) -> compare j i)
  |> List.map snd

let lru_true_recency ~name ~count ~cap gen =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count ~name gen
       (fun probes ->
         let c =
           Oracle_cache.wrap ~capacity:cap
             (Rdb.Relation.make ~arity:1 (fun u -> u.(0) mod 3 = 0))
         in
         let rel = Oracle_cache.relation c in
         List.iter (fun k -> ignore (Rdb.Relation.mem rel (t [ k ]))) probes;
         let recent = model_recency probes in
         let expected_in = List.filteri (fun i _ -> i < cap) recent in
         let expected_out = List.filteri (fun i _ -> i >= cap) recent in
         Oracle_cache.length c = List.length expected_in
         && begin
              (* survivors all hit (hits don't change membership) ... *)
              Oracle_cache.reset_stats c;
              List.iter
                (fun k -> ignore (Rdb.Relation.mem rel (t [ k ])))
                expected_in;
              let s = Oracle_cache.stats c in
              s.hits = List.length expected_in && s.misses = 0
            end
         && begin
              (* ... and every evicted key misses (each probed once;
                 re-inserting one can only evict survivors, never
                 resurrect another evicted key) *)
              Oracle_cache.reset_stats c;
              List.iter
                (fun k -> ignore (Rdb.Relation.mem rel (t [ k ])))
                expected_out;
              (Oracle_cache.stats c).misses = List.length expected_out
            end))

let qcheck_lru_true_recency =
  lru_true_recency ~name:"eviction order is true recency" ~count:200 ~cap:8
    QCheck2.Gen.(list_size (int_range 0 60) (int_range 0 25))

(* The engine's own capacity: up to 12 000 probes over 8 001 keys, so
   most runs evict past 4096 entries.  Unshrunk: shrinking a list this
   long would take far longer than the run itself. *)
let qcheck_lru_true_recency_serving =
  lru_true_recency
    ~name:"eviction order is true recency at the serving capacity (4096)"
    ~count:20 ~cap:Engine.cache_capacity
    QCheck2.Gen.(no_shrink (list_size (int_range 0 12_000) (int_range 0 8_000)))

let qcheck_lru_capacity_and_stats =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:200
       ~name:"capacity never exceeded; hits + misses = lookups; misses = \
              genuine questions"
       Gen.(pair (int_range 1 12) (list_size (int_range 0 80) (int_range 0 40)))
       (fun (capacity, probes) ->
         let c =
           Oracle_cache.wrap ~capacity
             (Rdb.Relation.make ~arity:1 (fun u -> u.(0) mod 2 = 0))
         in
         let rel = Oracle_cache.relation c in
         List.iter (fun k -> ignore (Rdb.Relation.mem rel (t [ k ]))) probes;
         let s = Oracle_cache.stats c in
         Oracle_cache.length c <= capacity
         && s.hits + s.misses = List.length probes
         && s.misses = Rdb.Relation.calls (Oracle_cache.underlying c)))

let qcheck_lru_clear_reasks_once =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:100
       ~name:"clear forgets everything; each tuple re-asked exactly once"
       Gen.(list_size (int_range 1 30) (int_range 0 100))
       (fun keys ->
         let keys = List.sort_uniq compare keys in
         let n = List.length keys in
         let c =
           Oracle_cache.wrap ~capacity:64
             (Rdb.Relation.make ~arity:1 (fun u -> u.(0) mod 5 = 0))
         in
         let rel = Oracle_cache.relation c in
         List.iter (fun k -> ignore (Rdb.Relation.mem rel (t [ k ]))) keys;
         Oracle_cache.clear c;
         Oracle_cache.reset_stats c;
         (* first pass after clear: one genuine question per tuple *)
         List.iter (fun k -> ignore (Rdb.Relation.mem rel (t [ k ]))) keys;
         (* second pass: all hits, no further questions *)
         List.iter (fun k -> ignore (Rdb.Relation.mem rel (t [ k ]))) keys;
         let s = Oracle_cache.stats c in
         s.misses = n && s.hits = n
         && Rdb.Relation.calls (Oracle_cache.underlying c) = 2 * n))

let test_cache_stats_cross_domain () =
  (* The owner's domain looks up while another domain reads the
     counters, as Pool.cache_stats and /metrics do: the lookup total a
     reader sees never falls and never exceeds the lookups made, and
     the final stats are exact. *)
  let c =
    Oracle_cache.wrap ~capacity:64
      (Rdb.Relation.make ~arity:1 (fun u -> u.(0) mod 2 = 0))
  in
  let rel = Oracle_cache.relation c in
  let lookups = 1200 in
  let finished = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let rec poll prev =
          let s = Oracle_cache.stats c in
          let total = s.hits + s.misses in
          if total < prev || total > lookups then false
          else Atomic.get finished || poll total
        in
        poll 0)
  in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to lookups do
    ignore (Rdb.Relation.mem rel (t [ Random.State.int rng 100 ]))
  done;
  Atomic.set finished true;
  Alcotest.(check bool) "every cross-domain read is consistent" true
    (Domain.join reader);
  let s = Oracle_cache.stats c in
  check Alcotest.int "hits + misses = lookups" lookups (s.hits + s.misses);
  check Alcotest.int "misses = genuine questions" s.misses
    (Rdb.Relation.calls (Oracle_cache.underlying c));
  check Alcotest.int "evictions = misses beyond capacity" (s.misses - 64)
    s.evictions;
  Alcotest.(check bool)
    "capacity respected" true
    (Oracle_cache.length c <= Oracle_cache.capacity c)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let test_json_roundtrip () =
  let samples =
    [
      {|{"id":1,"op":"sentence","instance":"triangles","sentence":"exists x. exists y. R1(x, y)"}|};
      {|{"id":3,"op":"classes","type":[2,1],"rank":2}|};
      {|[1,-2,3.5,true,false,null,"a\nb"]|};
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok v -> (
          match Json.parse (Json.to_string v) with
          | Error e -> Alcotest.failf "reparse: %s" e
          | Ok v' ->
              Alcotest.(check string)
                "print/parse stable" (Json.to_string v) (Json.to_string v')))
    samples;
  (match Json.parse "{\"a\":1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted")

let test_request_roundtrip () =
  let lines =
    [
      {|{"id":2,"op":"query","instance":"rado","query":"{(x,y) | R1(x,y)}","cutoff":4}|};
      {|{"id":4,"op":"tree","instance":"mod2","depth":2}|};
      {|{"id":5,"op":"program","instance":"triangles","program":"Y1 <- ~(Rel1 & E)","fuel":1000,"cutoff":4}|};
    ]
  in
  List.iter
    (fun line ->
      match Request.of_line line with
      | Error e ->
          Alcotest.failf "decode %s: %s" line (Request.error_to_string e)
      | Ok r -> (
          match Request.of_json (Request.to_json r) with
          | Error e -> Alcotest.failf "re-decode: %s" (Request.error_to_string e)
          | Ok r' ->
              Alcotest.(check string)
                "request round-trips"
                (Json.to_string (Request.to_json r))
                (Json.to_string (Request.to_json r'))))
    lines

let test_request_malformed_lines () =
  (* One malformed line per op: the error must name the op and the
     offending/missing field, so a sender can diagnose from the error
     response alone. *)
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i =
      i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
    in
    go 0
  in
  let expect_bad line needles =
    match Request.of_line line with
    | Ok _ -> Alcotest.failf "accepted malformed line %s" line
    | Error (Request.Bad_request m) ->
        List.iter
          (fun needle ->
            if not (contains ~needle m) then
              Alcotest.failf "error %S does not mention %S (line %s)" m needle
                line)
          needles
    | Error e ->
        Alcotest.failf "wrong error kind %s for %s"
          (Request.error_to_string e) line
  in
  expect_bad {|{"id":1,"op":"sentence","sentence":"true"}|}
    [ {|op "sentence"|}; {|missing required field "instance"|} ];
  expect_bad {|{"id":2,"op":"query","instance":"rado","cutoff":4}|}
    [ {|op "query"|}; {|missing required field "query"|} ];
  expect_bad {|{"id":3,"op":"classes","rank":2}|}
    [ {|op "classes"|}; {|"type"|} ];
  expect_bad {|{"id":4,"op":"tree","instance":"mod2","depth":"two"}|}
    [ {|op "tree"|}; {|field "depth" must be an integer|} ];
  expect_bad {|{"id":5,"op":"program","instance":"triangles","fuel":10}|}
    [ {|op "program"|}; {|missing required field "program"|} ];
  expect_bad {|{"id":6,"op":"rql","instance":"paths3"}|}
    [ {|op "rql"|}; {|missing required field "text"|} ];
  expect_bad
    {|{"id":7,"op":"rql","instance":"paths3","text":"sentence true","planner":"fast"}|}
    [ {|op "rql"|}; {|"planner"|} ];
  expect_bad {|{"id":8,"instance":"mod2","depth":2}|}
    [ {|missing required field "op"|}; {|"rql"|} ];
  expect_bad {|{"id":9,"op":"frobnicate"}|}
    [ {|unknown op "frobnicate"|}; "expected one of" ];
  (* Out-of-range scalar fields are also op-prefixed. *)
  expect_bad
    {|{"id":10,"op":"tree","instance":"mod2","depth":99}|}
    [ {|op "tree"|} ]

(* Encoded answers: the result memo keeps outcome bytes and the wire
   splices them into the response line. *)

let qcheck_outcome_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"outcome_of_json (outcome_bytes o) = Ok o" Test_support.gen_outcome
       (fun o -> Request.outcome_of_json (Request.outcome_bytes o) = Ok o))

let gen_stats =
  let open QCheck2.Gen in
  let n = int_range 0 5000 in
  map3
    (fun (oracle_calls, tb_calls, equiv_calls) (cache_hits, retries) wall_s ->
      { Request.oracle_calls; tb_calls; equiv_calls; cache_hits; retries; wall_s })
    (triple n n n) (pair n (int_range 0 3))
    (oneof [ float_bound_inclusive 10.; float; return 0.0 ])

let qcheck_write_reply =
  let open QCheck2.Gen in
  let gen =
    map3
      (fun (id, result) (cert, stats) with_stats ->
        ({ Request.id; result; cert; stats }, with_stats))
      (pair int
         (oneof
            [
              map Result.ok Test_support.gen_outcome;
              map Result.error Test_support.gen_error;
            ]))
      (pair Test_support.gen_cert gen_stats)
      bool
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000
       ~name:"write_reply = response_to_json for every cert, error and id" gen
       (fun (r, stats) ->
         String.equal
           (Request.reply_line ~stats (Request.encode r))
           (Json.to_string (Request.response_to_json ~stats r))))

(* Arbitrary bytes, and real bodies cut short or with one byte
   changed, are typed errors or outcomes — never exceptions. *)
let qcheck_outcome_of_json_total =
  let open QCheck2.Gen in
  let damaged =
    map3
      (fun o cut c ->
        let b = Bytes.of_string (Request.outcome_bytes o) in
        let i = cut mod Bytes.length b in
        if c = '\000' then Bytes.sub_string b 0 i
        else (
          Bytes.set b i c;
          Bytes.to_string b))
      Test_support.gen_outcome nat char
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"outcome_of_json is total"
       (oneof [ string; string_printable; damaged ])
       (fun s ->
         match Request.outcome_of_json s with
         | Ok _ | Error (Request.Parse_error _ | Request.Ill_formed _) -> true
         | Error _ -> false))

(* A result-memo hit writes its stored bytes: what it allocates on the
   wire path (decode, serve, write) does not grow with the answer,
   beyond the response line itself. *)
let test_memo_hit_allocation () =
  let engine = Engine.create ~shared:(Shared_memo.create ()) () in
  let line query cutoff =
    Json.to_string
      (Request.to_json
         (Request.make ~id:7 (Request.Query { instance = "mod2"; query; cutoff })))
  in
  let small = line "{(x) | x = x}" 0 in
  let large = line "{(x,y) | x = x && y = y}" 18 in
  let tuples req =
    match (Engine.handle engine req).Request.result with
    | Ok (Request.Rel { reps; members; _ }) -> List.length reps + List.length members
    | _ -> Alcotest.fail "not a relation"
  in
  let serve l =
    match Request.decode_line ~default_id:1 l with
    | `Request req -> Request.reply_line (Engine.serve engine req)
    | _ -> Alcotest.fail "request did not decode"
  in
  let hit_words l =
    ignore (serve l) (* the miss, then hits only *);
    ignore (serve l);
    let w0 = Gc.minor_words () in
    let out = serve l in
    let w1 = Gc.minor_words () in
    (w1 -. w0, out)
  in
  let decoded l =
    match Request.decode_line ~default_id:1 l with
    | `Request req -> req
    | _ -> Alcotest.fail "request did not decode"
  in
  let ws, _ = hit_words small in
  let wl, out = hit_words large in
  check Alcotest.int "the small answer is one tuple" 1 (tuples (decoded small));
  Alcotest.(check bool)
    "the large answer has at least 300 tuples" true
    (tuples (decoded large) >= 300);
  let line_words = float_of_int ((String.length out / 8) + 2) in
  if wl -. ws > line_words +. 64. then
    Alcotest.failf
      "a hit on a %d-byte line allocated %.0f minor words, the 1-tuple hit \
       %.0f: more than the line's own %.0f words + 64"
      (String.length out) wl ws line_words

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let sentence_req id instance sentence =
  Request.make ~id (Request.Sentence { instance; sentence })

let test_engine_outcomes () =
  let e = Engine.create () in
  (let r =
     Engine.handle e
       (sentence_req 1 "triangles" "exists x. exists y. R1(x, y)")
   in
   match r.result with
   | Ok (Request.Bool b) -> Alcotest.(check bool) "edge exists" true b
   | _ -> Alcotest.fail "expected Bool");
  (let r =
     Engine.handle e
       (Request.make ~id:2 (Request.Classes { db_type = [| 2; 1 |]; rank = 2 }))
   in
   match r.result with
   | Ok (Request.Count n) ->
       check Alcotest.int "the paper's 68 classes" 68 n
   | _ -> Alcotest.fail "expected Count")

let test_engine_errors () =
  let e = Engine.create () in
  let expect_error name req pred =
    match (Engine.handle e req).result with
    | Ok _ -> Alcotest.failf "%s: expected an error" name
    | Error err ->
        if not (pred err) then
          Alcotest.failf "%s: wrong error %s" name
            (Request.error_to_string err)
  in
  expect_error "unknown instance"
    (sentence_req 1 "nope" "exists x. R1(x, x)")
    (function Request.Unknown_instance _ -> true | _ -> false);
  expect_error "parse error"
    (sentence_req 2 "triangles" "exists x. R1(x")
    (function Request.Parse_error _ -> true | _ -> false);
  expect_error "free variables"
    (sentence_req 3 "triangles" "R1(x, y)")
    (function Request.Not_a_sentence _ -> true | _ -> false);
  expect_error "guard rail on rank"
    (Request.make ~id:4 (Request.Classes { db_type = [| 2; 1 |]; rank = 99 }))
    (function Request.Bad_request _ -> true | _ -> false)

let test_engine_cache_reduces_questions () =
  let e = Engine.create () in
  let req = sentence_req 1 "triangles" "exists x. exists y. R1(x, y)" in
  let first = Engine.handle e req in
  let second = Engine.handle e req in
  Alcotest.(check bool)
    "second run needs no new raw questions" true
    (second.stats.Request.oracle_calls < first.stats.Request.oracle_calls
    || second.stats.Request.oracle_calls = 0);
  Alcotest.(check bool)
    "second run hits the cache" true
    (second.stats.Request.cache_hits > 0)

(* ------------------------------------------------------------------ *)
(* Member memo                                                         *)

let member_counts () =
  ( Metrics.counter_value (Metrics.counter "engine.member_memo_hits"),
    Metrics.counter_value (Metrics.counter "engine.member_memo_misses") )

let fo_req id query cutoff =
  Request.make ~id (Request.Query { instance = "mod2"; query; cutoff })

let ql_req id program cutoff =
  Request.make ~id
    (Request.Program { instance = "mod2"; program; fuel = 100; cutoff })

let rql_req id text cutoff =
  Request.make ~id
    (Request.Rql
       { instance = "mod2"; text; cutoff; planner = Request.Plan_cost })

let questions (r : _ Request.reply) =
  r.Request.stats.Request.oracle_calls + r.Request.stats.Request.tb_calls
  + r.Request.stats.Request.equiv_calls

let body (r : Request.encoded) =
  match r.Request.result with
  | Ok b -> b
  | Error e -> Alcotest.fail (Request.error_to_string e)

let test_member_memo_alpha_variant () =
  let engine = Engine.create ~shared:(Shared_memo.create ()) () in
  let results () =
    match Engine.shared_stats engine with
    | Some s -> s.Shared_memo.results
    | None -> Alcotest.fail "no shared memo"
  in
  let counts = Alcotest.(pair int int) in
  let h0, m0 = member_counts () in
  let query = "{(x,y) | R1(x,y) && x != y}" in
  let first = Engine.serve engine (fo_req 1 query 12) in
  check counts "the first query enumerates" (h0, m0 + 1) (member_counts ());
  let r1 = results () in
  let variant =
    Engine.serve engine (fo_req 2 "{(a,b) | R1(a,b) && a != b}" 12)
  in
  let r2 = results () in
  check Alcotest.int "the variant misses the result memo" (r1.misses + 1)
    r2.misses;
  check counts "and hits the member memo" (h0 + 1, m0 + 1) (member_counts ());
  Alcotest.(check bool) "the first asks questions" true (questions first > 0);
  check Alcotest.int "the hit asks none" 0 (questions variant);
  check Alcotest.string "same members bytes" (body first) (body variant);
  match (Engine.handle (Engine.create ()) (fo_req 3 query 12)).Request.result with
  | Ok o ->
      check Alcotest.string "the unmemoized answer" (Request.outcome_bytes o)
        (body variant)
  | Error e -> Alcotest.fail (Request.error_to_string e)

(* FO, QL and RQL requests whose answers share (rank, cutoff, reps).
   The cost-based RQL queries come first: their probe discipline skips
   pairs a scan asks.  Request 7's QL reps equal request 6's FO reps
   but, built by set operations, scan in another order. *)
let member_stream =
  [
    rql_req 1 "query {(a,b) | R1(a,b)}" 6;
    fo_req 2 "{(x,y) | R1(x,y)}" 6;
    ql_req 3 "Y1 <- Rel1" 6;
    fo_req 4 "{(u,v) | R1(u,v)}" 6;
    rql_req 5 "query {(a,b) | R1(a,b) || a = b}" 8;
    fo_req 6 "{(x,y) | R1(x,y) || x = y}" 8;
    ql_req 7 "Y1 <- ~(~Rel1 & ~E)" 8;
    rql_req 8 "query {(a) | exists b. R1(a,b)}" 10;
    fo_req 9 "{(x) | exists y. R1(x,y)}" 10;
    ql_req 10 "Y1 <- Rel1!" 10;
    fo_req 11 "{(x,y) | R1(x,y)}" 6;
    rql_req 12 "query {(p,q) | R1(p,q) || p = q}" 8;
  ]

let test_member_memo_off_without_shared () =
  let before = member_counts () in
  let _ = Engine.handle_all (Engine.create ()) member_stream in
  check Alcotest.(pair int int) "counters untouched" before (member_counts ())

(* The stream evaluated through the compiled tier with no memo at all,
   on an instance whose ≅_B oracle records every pair it is asked. *)
let distinct_member_probes stream =
  let base = Option.get (Engine.build_instance "mod2") in
  let pairs = Hashtbl.create 256 in
  let h =
    Hs.Hsdb.make ~db:(Hs.Hsdb.db base) ~children:(Hs.Hsdb.children base)
      ~equiv:(fun u v ->
        Hashtbl.replace pairs (Array.copy u, Array.copy v) ();
        Hs.Hsdb.equiv base u v)
      ()
  in
  List.iter
    (fun (r : Request.t) ->
      match r.Request.payload with
      | Request.Query { query; cutoff; _ } ->
          let q = Rlogic.Parser.query query in
          let cq = Hs.Fo_compile.compile_query h q in
          ignore (Hs.Fo_compile.eval_upto cq ~cutoff)
      | Request.Program { program; fuel; cutoff; _ } -> (
          let p = Ql.Ql_parser.program program in
          let cp = Ql.Ql_compile.compile ~algebra:(Ql.Ql_hs.algebra h) p in
          match Ql.Ql_compile.run cp ~fuel with
          | Ql.Ql_interp.Halted store ->
              ignore (Ql.Ql_hs.denotation h store.(0) ~cutoff)
          | _ -> Alcotest.fail "program did not halt")
      | Request.Rql { text; cutoff; _ } ->
          let plan =
            Rql.Rql_plan.plan_of_text ~mode:Rql.Rql_plan.Planned text
          in
          ignore (Rql.Rql_compile.run ~cutoff (Rql.Rql_compile.prepare h plan))
      | _ -> Alcotest.fail "unexpected payload")
    stream;
  Hashtbl.length pairs

let test_member_memo_ledger () =
  let engine = Engine.create ~shared:(Shared_memo.create ()) () in
  let h0, _ = member_counts () in
  let equiv =
    List.fold_left
      (fun acc r -> acc + r.Request.stats.Request.equiv_calls)
      0
      (Engine.handle_all engine member_stream)
  in
  let hits, _ = member_counts () in
  Alcotest.(check bool) "the stream hits the member memo" true (hits - h0 >= 4);
  check Alcotest.int "≅_B questions = distinct unmemoized probes"
    (distinct_member_probes member_stream)
    equiv

let qcheck_rel_splice =
  let open QCheck2.Gen in
  let gen =
    int_range 0 4 >>= fun rank ->
    let tuples =
      list_size (int_range 0 12)
        (array_size (pure rank) (int_range (-3) 40))
    in
    pair tuples tuples >|= fun (reps, members) -> (rank, reps, members)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"rel_prefix + tuples_bytes splice = outcome_bytes (Rel …)" gen
       (fun (rank, reps, members) ->
         Request.rel_bytes
           ~prefix:(Request.rel_prefix ~rank ~reps)
           ~members:(Request.tuples_bytes members)
         = Request.outcome_bytes (Request.Rel { rank; reps; members })))

(* Counted cost of the member memo: one rank-2, cutoff-32 answer (1 024
   candidate tuples, 512 members) served on a member-memo miss and then
   on a hit by an alpha-variant (a result-memo miss: it parses,
   compiles, and sweeps the reps like any cold query).  The hit builds
   no member tuple and probes nothing: it allocates its answer's bytes
   plus a constant (about 1 200 words against 342 000 for the miss
   here; with the memo off the variant allocates about 64 600). *)
let test_member_memo_allocation () =
  let engine = Engine.create ~shared:(Shared_memo.create ()) () in
  ignore (Engine.serve engine (fo_req 1 "{(x) | R1(x,x)}" 2));
  let words req =
    let w0 = Gc.minor_words () in
    let r = Engine.serve engine req in
    let w1 = Gc.minor_words () in
    (w1 -. w0, r)
  in
  let miss, first = words (fo_req 2 "{(x,y) | R1(x,y) || x = y}" 32) in
  let hit, variant = words (fo_req 3 "{(a,b) | R1(a,b) || a = b}" 32) in
  check Alcotest.string "same answer" (body first) (body variant);
  check Alcotest.int "the hit asks no question" 0 (questions variant);
  let answer_words = float_of_int ((String.length (body variant) / 8) + 2) in
  if hit > answer_words +. 1024. || hit *. 20. > miss then
    Alcotest.failf
      "a member-memo hit allocated %.0f minor words, the miss %.0f: more \
       than its %.0f-word answer + 1024, or more than a twentieth of the \
       miss"
      hit miss answer_words

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let mixed_batch n =
  let instances = [ "triangles"; "mod2"; "mod3"; "paths3" ] in
  List.map
    (fun i ->
      let instance = List.nth instances (i mod List.length instances) in
      let payload =
        match i mod 3 with
        | 0 ->
            Request.Sentence
              { instance; sentence = "exists x. exists y. R1(x, y)" }
        | 1 ->
            Request.Query
              { instance; query = "{(x,y) | R1(x,y) && x != y}"; cutoff = 6 }
        | _ -> Request.Classes { db_type = [| 2 |]; rank = 2 }
      in
      Request.make ~id:(i + 1) payload)
    (Ints.range 0 n)

let fingerprint responses =
  String.concat "\n"
    (List.map
       (fun r -> Json.to_string (Request.response_to_json ~stats:false r))
       responses)

let test_pool_matches_sequential () =
  let batch = mixed_batch 60 in
  let sequential = Engine.handle_all (Engine.create ()) batch in
  let pool = Pool.create ~domains:4 () in
  check Alcotest.int "four workers" 4 (Pool.size pool);
  let parallel = Pool.run_batch pool batch in
  Pool.shutdown pool;
  check Alcotest.int "same length" (List.length sequential)
    (List.length parallel);
  List.iter2
    (fun (s : Request.response) (p : Request.response) ->
      check Alcotest.int "ids in request order" s.id p.id)
    sequential parallel;
  Alcotest.(check string)
    "byte-identical to sequential" (fingerprint sequential)
    (fingerprint parallel)

let test_pool_many_small_batches () =
  (* The wakeup discipline (one signal per job, queue emptiness
     re-checked under the enqueuer's lock) must not lose a single
     wakeup: a lost one deadlocks this loop of tiny batches.  Batches
     are also submitted from concurrent client domains. *)
  let pool = Pool.create ~domains:3 () in
  let reference = Engine.create () in
  for i = 1 to 40 do
    let batch = mixed_batch (1 + (i mod 4)) in
    let rs = Pool.run_batch pool batch in
    check Alcotest.int "one response per request" (List.length batch)
      (List.length rs)
  done;
  let submit n =
    Domain.spawn (fun () ->
        let batch = mixed_batch n in
        (batch, Pool.run_batch pool batch))
  in
  let ds = List.map submit [ 5; 9; 13 ] in
  List.iter
    (fun d ->
      let batch, rs = Domain.join d in
      Alcotest.(check string)
        "concurrent batch byte-identical to sequential"
        (fingerprint (Engine.handle_all reference batch))
        (fingerprint rs))
    ds;
  check Alcotest.int "no worker deaths" 0 (Pool.worker_deaths pool);
  Pool.shutdown pool

let test_pool_shared_memo_accounting () =
  (* Def. 3.9 across workers: with the shared memo layer on, the whole
     pool never asks more genuine questions than one sequential engine
     serving the same cold batch — sharing dedups, it never inflates —
     and the answers are still byte-identical. *)
  let batch = mixed_batch 60 in
  let sequential_engine = Engine.create () in
  let sequential = Engine.handle_all sequential_engine batch in
  let seq_questions = Engine.question_count sequential_engine in
  let pool = Pool.create ~domains:2 () in
  let parallel = Pool.run_batch pool batch in
  let pool_questions = Pool.oracle_questions pool in
  let shared = Pool.shared_stats pool in
  Pool.shutdown pool;
  Alcotest.(check string)
    "byte-identical to sequential" (fingerprint sequential)
    (fingerprint parallel);
  Alcotest.(check bool)
    (Printf.sprintf "pool questions (%d) <= sequential questions (%d)"
       pool_questions seq_questions)
    true
    (pool_questions <= seq_questions);
  Alcotest.(check bool)
    "the duplicate-heavy batch hits the shared layer" true
    (shared.Shared_memo.results.Shared_memo.hits > 0
    || shared.Shared_memo.children.Shared_memo.hits > 0
    || shared.Shared_memo.rels.Shared_memo.hits > 0)

(* Each of Shared_memo's eight stripes is a Hashtbl.Make table whose
   bucket index is the low bits of the key hash.  On 20 000 memo-shaped
   keys (rank-3 tuples of small elements), every stripe must get its
   share of the keys and spread them over its buckets as one table
   would (about 70 % of buckets in use), not over the 1/8 of them a
   stripe drawn from the same low bits leaves reachable. *)
let test_shared_memo_stripe_occupancy () =
  let stripes = Array.init 8 (fun _ -> Tuple.Tbl.create 64) in
  for i = 0 to 19_999 do
    let u = [| i / 784; i / 28 mod 28; i mod 28 |] in
    Tuple.Tbl.replace stripes.(Shared_memo.stripe_of_hash (Tuple.hash u)) u ()
  done;
  Array.iteri
    (fun i tbl ->
      let st = Tuple.Tbl.stats tbl in
      let used = st.Hashtbl.num_buckets - st.Hashtbl.bucket_histogram.(0) in
      Alcotest.(check bool)
        (Printf.sprintf "stripe %d: %d keys over %d of %d buckets" i
           (Tuple.Tbl.length tbl) used st.Hashtbl.num_buckets)
        true
        (Tuple.Tbl.length tbl >= 20_000 / 16
        && float_of_int used >= 0.5 *. float_of_int st.Hashtbl.num_buckets))
    stripes

let test_pool_submit_during_batch () =
  (* The two entry points share one queue: single jobs submitted from
     several threads interleave with another domain's batch, and every
     callback still fires exactly once with the sequential bytes. *)
  let batch = mixed_batch 60 and singles = Array.of_list (mixed_batch 30) in
  let n = Array.length singles in
  let expected_batch =
    fingerprint (Engine.handle_all (Engine.create ()) batch)
  in
  let expected =
    Array.of_list
      (List.map
         (fun r -> fingerprint [ r ])
         (Engine.handle_all (Engine.create ()) (Array.to_list singles)))
  in
  let pool = Pool.create ~domains:2 () in
  let calls = Array.init n (fun _ -> Atomic.make 0) in
  let got = Array.make n "" in
  let batch_domain = Domain.spawn (fun () -> Pool.run_batch pool batch) in
  let submitters =
    List.init 3 (fun k ->
        Thread.create
          (fun () ->
            Array.iteri
              (fun i r ->
                if i mod 3 = k then
                  Pool.submit pool r (fun resp ->
                      got.(i) <- Request.reply_line ~stats:false resp;
                      Atomic.incr calls.(i)))
              singles)
          ())
  in
  List.iter Thread.join submitters;
  let batch_responses = Domain.join batch_domain in
  (* shutdown lets the workers finish every queued job first *)
  Pool.shutdown pool;
  Alcotest.(check string)
    "batch byte-identical to sequential" expected_batch
    (fingerprint batch_responses);
  Array.iteri
    (fun i c ->
      check Alcotest.int
        (Printf.sprintf "callback %d fired exactly once" i)
        1 (Atomic.get c);
      Alcotest.(check string)
        (Printf.sprintf "submitted request %d byte-identical" i)
        expected.(i) got.(i))
    calls

let test_pool_shutdown () =
  let pool = Pool.create ~domains:2 () in
  ignore (Pool.run_batch pool (mixed_batch 6));
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.run_batch: pool is shut down") (fun () ->
      ignore (Pool.run_batch pool (mixed_batch 3)))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_reconcile () =
  (* Process-wide counters, reset here, must equal the sums of the
     per-request stats of everything handled afterwards. *)
  Metrics.reset_all ();
  let e = Engine.create () in
  let responses = Engine.handle_all e (mixed_batch 30) in
  let sum f =
    List.fold_left (fun acc (r : Request.response) -> acc + f r.stats) 0
      responses
  in
  check Alcotest.int "requests counted" 30
    (Metrics.counter_value (Metrics.counter "engine.requests"));
  check Alcotest.int "oracle calls reconcile"
    (sum (fun s -> s.Request.oracle_calls))
    (Metrics.counter_value (Metrics.counter "engine.oracle_calls"));
  check Alcotest.int "cache hits reconcile"
    (sum (fun s -> s.Request.cache_hits))
    (Metrics.counter_value (Metrics.counter "engine.cache_hits"));
  check Alcotest.int "latency histogram count" 30
    (Metrics.histogram_count (Metrics.histogram "engine.latency"));
  (* The dumps render without raising and mention our counters. *)
  let text = Metrics.dump_text () in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool)
    "text dump lists engine.requests" true
    (contains text "engine.requests")

let test_metrics_quantile () =
  Metrics.reset_all ();
  let h = Metrics.histogram "test.latency" in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Metrics.quantile h 0.5));
  for _ = 1 to 99 do
    Metrics.observe h 0.0000015
  done;
  Metrics.observe h 5.0;
  Alcotest.(check bool)
    "p50 in the fast bucket" true
    (Metrics.quantile h 0.5 < 0.001);
  Alcotest.(check bool)
    "p100 sees the outlier" true
    (Metrics.quantile h 1.0 >= 5.0)

(* ------------------------------------------------------------------ *)
(* Workload: the shared request streams                                *)

(* The committed BENCH_*.json baselines and the frozen golden file were
   measured on these exact requests: a changed stream invalidates them,
   so each is pinned by the md5 of its newline-joined wire lines. *)
(* The one E-bench report renderer: a line per leaf, keys joined by
   '.', list elements named by their "name" field, else by index; an
   empty list or object is a leaf, printed as [] or {}. *)
let test_bench_report_lines () =
  let report =
    Json.Obj
      [
        ("requests", Json.Int 3);
        ( "rows",
          Json.List
            [
              Json.Obj
                [ ("name", Json.String "cold"); ("wall_s", Json.Float 0.5) ];
              Json.Obj
                [ ("domains", Json.Int 2); ("identical", Json.Bool true) ];
            ] );
        ("empty_df", Json.Obj [ ("df", Json.List []); ("meta", Json.Obj []) ]);
        ("violations", Json.List []);
      ]
  in
  check
    Alcotest.(list string)
    "path value lines"
    [
      "requests 3";
      "rows.cold.name \"cold\"";
      "rows.cold.wall_s 0.5";
      "rows.1.domains 2";
      "rows.1.identical true";
      "empty_df.df []";
      "empty_df.meta {}";
      "violations []";
    ]
    (String.split_on_char '\n'
       (String.trim (Format.asprintf "%a" Bench_util.pp_report report)))

let test_workload_streams_pinned () =
  let digest batch =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map (fun r -> Json.to_string (Request.to_json r)) batch)))
  in
  check Alcotest.string "mixed 1000" "c82e63a43a71cf7ce1ffffdf81224c9e"
    (digest (Workload.mixed 1000));
  check Alcotest.string "rql ~planner:Plan_cost 200"
    "eaa4a549ad1a5415e4f24aa83ae0cc4a"
    (digest (Workload.rql ~planner:Request.Plan_cost 200))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "oracle_cache",
        [
          Alcotest.test_case "identical to uncached on 200 random probes"
            `Quick test_cache_identical;
          Alcotest.test_case "a hit is not a fresh oracle question" `Quick
            test_cache_hit_is_not_a_question;
          Alcotest.test_case "eviction respects capacity" `Quick
            test_cache_eviction;
          Alcotest.test_case "stats read from another domain stay exact"
            `Quick test_cache_stats_cross_domain;
          qcheck_lru_true_recency;
          qcheck_lru_true_recency_serving;
          qcheck_lru_capacity_and_stats;
          qcheck_lru_clear_reasks_once;
        ] );
      ( "json",
        [
          Alcotest.test_case "print/parse round-trip" `Quick
            test_json_roundtrip;
          Alcotest.test_case "request wire format round-trip" `Quick
            test_request_roundtrip;
          Alcotest.test_case "malformed lines name op and field" `Quick
            test_request_malformed_lines;
          qcheck_outcome_roundtrip;
          qcheck_write_reply;
          qcheck_outcome_of_json_total;
          Alcotest.test_case "a memo hit's allocation does not grow with \
                              the answer"
            `Quick test_memo_hit_allocation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "outcomes (sentence, classes=68)" `Quick
            test_engine_outcomes;
          Alcotest.test_case "typed errors" `Quick test_engine_errors;
          Alcotest.test_case "repeat requests hit the cache" `Quick
            test_engine_cache_reduces_questions;
        ] );
      ( "member memo",
        [
          Alcotest.test_case "an alpha-variant hits and asks nothing" `Quick
            test_member_memo_alpha_variant;
          Alcotest.test_case "off without a shared memo" `Quick
            test_member_memo_off_without_shared;
          Alcotest.test_case "questions = distinct unmemoized probes" `Quick
            test_member_memo_ledger;
          qcheck_rel_splice;
          Alcotest.test_case "a hit allocates its answer, not a sweep" `Quick
            test_member_memo_allocation;
        ] );
      ( "pool",
        [
          Alcotest.test_case "4-domain batch equals sequential" `Quick
            test_pool_matches_sequential;
          Alcotest.test_case "many small batches lose no wakeups" `Quick
            test_pool_many_small_batches;
          Alcotest.test_case "shared memo: fewer questions, same bytes"
            `Quick test_pool_shared_memo_accounting;
          Alcotest.test_case "shared memo stripes use every bucket" `Quick
            test_shared_memo_stripe_occupancy;
          Alcotest.test_case "submits interleave with a batch" `Quick
            test_pool_submit_during_batch;
          Alcotest.test_case "graceful, idempotent shutdown" `Quick
            test_pool_shutdown;
        ] );
      ( "workload",
        [
          Alcotest.test_case "mixed and rql streams pinned by digest" `Quick
            test_workload_streams_pinned;
          Alcotest.test_case "bench report renders one line per leaf" `Quick
            test_bench_report_lines;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "totals reconcile with per-request stats"
            `Quick test_metrics_reconcile;
          Alcotest.test_case "histogram quantiles" `Quick
            test_metrics_quantile;
        ] );
    ]
