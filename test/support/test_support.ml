(* Shared generators and helpers for the test suites. *)

open Prelude

let tuple_testable =
  Alcotest.testable Tuple.pp Tuple.equal

let tupleset_testable =
  Alcotest.testable Tupleset.pp Tupleset.equal

(* QCheck generator: a random finite database of the given type whose
   relation contents mention elements < [universe]. *)
let finite_db_gen ?(universe = 4) ~db_type () =
  let open QCheck2.Gen in
  let tuple_gen arity = array_size (pure arity) (int_bound (universe - 1)) in
  let relation_gen arity =
    list_size (int_bound 6) (tuple_gen arity) >|= fun tuples ->
    Tupleset.of_list tuples
  in
  let rec rels = function
    | [] -> pure []
    | a :: rest ->
        relation_gen a >>= fun s ->
        rels rest >|= fun tail -> (a, s) :: tail
  in
  rels (Array.to_list db_type) >|= fun specs ->
  let rels =
    List.mapi
      (fun i (a, s) ->
        Rdb.Relation.of_tupleset ~name:(Printf.sprintf "R%d" (i + 1)) ~arity:a s)
      specs
  in
  Rdb.Database.make ~name:"random" (Array.of_list rels)

let tuple_gen ?(universe = 4) ~rank () =
  QCheck2.Gen.array_size (QCheck2.Gen.pure rank)
    (QCheck2.Gen.int_bound (universe - 1))

(* A random pair (db, tuple) of the given type and rank. *)
let pair_gen ?(universe = 4) ~db_type ~rank () =
  let open QCheck2.Gen in
  finite_db_gen ~universe ~db_type () >>= fun db ->
  tuple_gen ~universe ~rank () >|= fun u -> (db, u)

let qtest ?(count = 100) name gen prop =
  QCheck2.Test.make ~count ~name gen prop

(* Convert QCheck tests to alcotest cases. *)
let to_alcotest tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Engine responses: every outcome kind, error kind and certificate    *)

let gen_tuple =
  QCheck2.Gen.(map Array.of_list (list_size (int_range 0 5) (int_range (-40) 40)))

(* A ledger row; some rows are unreachable, as a router reports a shard
   that did not answer. *)
let gen_ledger =
  let open QCheck2.Gen in
  let count = int_range 0 100_000 in
  map3
    (fun node (raw, tb, equiv, cache_hits) (served, sheds, reachable) ->
      let l =
        Request.ledger ~node ~raw ~tb ~equiv ~cache_hits ~served ~sheds ()
      in
      { l with Request.l_reachable = reachable })
    string_printable
    (quad count count count count)
    (triple count count bool)

let gen_outcome =
  let open QCheck2.Gen in
  oneof
    [
      map (fun b -> Request.Bool b) bool;
      map (fun n -> Request.Count n) (oneof [ int; int_range (-5) 1000 ]);
      map3
        (fun rank reps members -> Request.Rel { rank; reps; members })
        (int_range 0 4)
        (list_size (int_range 0 4) gen_tuple)
        (list_size (int_range 0 4) gen_tuple);
      map (fun l -> Request.Levels l)
        (list_size (int_range 0 3) (list_size (int_range 0 3) gen_tuple));
      return Request.Undefined;
      map2
        (fun cluster shards -> Request.Ledger_report { cluster; shards })
        gen_ledger
        (list_size (int_range 0 3) gen_ledger);
    ]

let gen_error =
  let open QCheck2.Gen in
  oneof
    [
      map (fun s -> Request.Parse_error s) string_printable;
      map (fun s -> Request.Unknown_instance s) string_printable;
      map (fun l -> Request.Not_a_sentence l)
        (list_size (int_range 0 3) string_printable);
      map (fun n -> Request.Timeout n) (int_range 0 10000);
      map (fun s -> Request.Ill_formed s) string_printable;
      map (fun s -> Request.Bad_request s) string_printable;
      map (fun limit -> Request.Budget_exceeded { limit }) (int_range 0 1000);
      map
        (fun deadline_s -> Request.Deadline_exceeded { deadline_s })
        (float_bound_inclusive 100.);
      map2
        (fun oracle attempts -> Request.Oracle_unavailable { oracle; attempts })
        string_printable (int_range 0 10);
      map (fun s -> Request.Worker_crash s) string_printable;
      map (fun limit -> Request.Overloaded { limit }) (int_range 0 1000);
    ]

let gen_cert =
  let open QCheck2.Gen in
  oneof
    [
      return Request.Cert_exact;
      return Request.Cert_certain_lower;
      return Request.Cert_possible_upper;
      map2
        (fun budget_spent open_rels ->
          Request.Cert_approximate { budget_spent; open_rels })
        (int_range 0 100_000)
        (list_size (int_range 0 4) string_printable);
    ]
