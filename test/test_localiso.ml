open Prelude
open Localiso

let t = Tuple.of_list
let check = Alcotest.check

(* -------------------------------------------------------------------- *)
(* Diagram                                                              *)

let test_diagram_of_pair_basic () =
  let b = Rdb.Instances.infinite_clique () in
  let d = Diagram.of_pair b (t [ 3; 7 ]) in
  check Alcotest.int "rank" 2 (Diagram.rank d);
  check Alcotest.int "blocks" 2 (Diagram.blocks d);
  Alcotest.(check bool) "edge 0-1" true (Diagram.atom d ~rel:0 [| 0; 1 |]);
  Alcotest.(check bool) "no loop" false (Diagram.atom d ~rel:0 [| 0; 0 |])

let test_diagram_repeated_elements () =
  let b = Rdb.Instances.infinite_clique () in
  let d = Diagram.of_pair b (t [ 5; 5; 5 ]) in
  check Alcotest.int "one block" 1 (Diagram.blocks d);
  Alcotest.(check bool) "no loop" false (Diagram.atom d ~rel:0 [| 0; 0 |])

let test_realize_roundtrip_manual () =
  let b = Rdb.Instances.paper_b1 () in
  let d = Diagram.of_pair b (t [ 0; 1 ]) in
  let b', u' = Diagram.realize d in
  check
    (Alcotest.testable Diagram.pp Diagram.equal)
    "of_pair . realize = id" d
    (Diagram.of_pair b' u')

let test_enumeration_counts_other () =
  (* Rank 1, type (2): patterns = 1 block; 2^(1²)=2 diagrams... for type
     (2) rank 1 there are 2 classes: loop or no loop. *)
  check Alcotest.int "graph rank 1" 2 (Diagram.count ~db_type:[| 2 |] ~rank:1);
  (* Graph rank 2: 1-block: 2; 2-block: 2^4 = 16; total 18. *)
  check Alcotest.int "graph rank 2" 18 (Diagram.count ~db_type:[| 2 |] ~rank:2);
  (* Unary relation: rank n over type (1): sum over partitions of 2^blocks. *)
  check Alcotest.int "unary rank 2" (2 + 4) (Diagram.count ~db_type:[| 1 |] ~rank:2);
  (* Rank 0: the two classes: () in R or not, for type (0). *)
  check Alcotest.int "nullary relation rank 0" 2
    (Diagram.count ~db_type:[| 0 |] ~rank:0);
  List.iter
    (fun (db_type, rank) ->
      check Alcotest.int
        (Printf.sprintf "count=enumeration type=%s rank=%d"
           (String.concat ","
              (List.map string_of_int (Array.to_list db_type)))
           rank)
        (Diagram.count ~db_type ~rank)
        (List.length (Diagram.enumerate ~db_type ~rank ())))
    [ ([| 2 |], 0); ([| 2 |], 1); ([| 2 |], 2); ([| 1; 1 |], 2); ([| 3 |], 1) ]

let test_enumeration_no_duplicates () =
  let ds = Diagram.enumerate ~db_type:[| 2 |] ~rank:2 () in
  let distinct = List.sort_uniq Diagram.compare ds in
  check Alcotest.int "no duplicates" (List.length ds) (List.length distinct)

let test_enumeration_filter () =
  (* Irreflexive symmetric graph diagrams of rank 2:
     1 block: loop forbidden -> 1 diagram (no edges).
     2 blocks: no loops; (0,1) and (1,0) tied together -> 2 diagrams. *)
  let keep d =
    let m = Diagram.blocks d in
    let ok = ref true in
    for x = 0 to m - 1 do
      if Diagram.atom d ~rel:0 [| x; x |] then ok := false;
      for y = 0 to m - 1 do
        if Diagram.atom d ~rel:0 [| x; y |] <> Diagram.atom d ~rel:0 [| y; x |]
        then ok := false
      done
    done;
    !ok
  in
  check Alcotest.int "graph-shaped classes" 3
    (List.length (Diagram.enumerate ~keep ~db_type:[| 2 |] ~rank:2 ()))

(* -------------------------------------------------------------------- *)
(* Liso                                                                 *)

let test_paper_example_liso () =
  (* (R1, (a)) ≅ₗ (R2, (c)) from §2: both have a self-loop on the single
     element. *)
  let b1 = Rdb.Instances.paper_b1 () and b2 = Rdb.Instances.paper_b2 () in
  Alcotest.(check bool) "locally isomorphic" true
    (Liso.check b1 (t [ 0 ]) b2 (t [ 2 ]));
  (* But (R1,(a,b)) vs (R2,(c,c)): patterns differ. *)
  Alcotest.(check bool) "pattern mismatch" false
    (Liso.check b1 (t [ 0; 1 ]) b2 (t [ 2; 2 ]))

let test_liso_differs_from_global () =
  (* In the clique, (1,2) ≅ (3,4); locally isomorphic too. *)
  let b = Rdb.Instances.infinite_clique () in
  Alcotest.(check bool) "clique pairs" true
    (Liso.check_same b (t [ 1; 2 ]) (t [ 3; 4 ]));
  (* In less_than, (1,2) and (2,1) differ locally. *)
  let lt = Rdb.Instances.less_than () in
  Alcotest.(check bool) "order matters" false
    (Liso.check_same lt (t [ 1; 2 ]) (t [ 2; 1 ]));
  Alcotest.(check bool) "translation invariant locally" true
    (Liso.check_same lt (t [ 1; 2 ]) (t [ 5; 9 ]))

let test_liso_rank0 () =
  let b = Rdb.Instances.infinite_clique () in
  Alcotest.(check bool) "empty tuples always locally isomorphic" true
    (Liso.check_same b Tuple.empty Tuple.empty)

let test_oracle_cost () =
  check Alcotest.int "cost for (2,1) rank 2" (4 + 2)
    (Liso.oracle_cost ~db_type:[| 2; 1 |] ~rank:2);
  let b = Rdb.Instances.infinite_clique () in
  Rdb.Database.reset_oracle_calls b;
  ignore (Liso.check_same b (t [ 1; 2 ]) (t [ 3; 4 ]));
  check Alcotest.int "measured oracle calls" (2 * Liso.oracle_cost ~db_type:[| 2 |] ~rank:2)
    (Rdb.Database.oracle_calls b)

(* -------------------------------------------------------------------- *)
(* Classes                                                              *)

let test_classes_registry () =
  let reg = Classes.make ~db_type:[| 2; 1 |] ~rank:2 () in
  check Alcotest.int "68 classes" 68 (Classes.size reg);
  (* A type-(2,1) database: edges and a unary marker. *)
  let b =
    Rdb.Database.of_finite [ (2, [ [ 0; 0 ]; [ 0; 1 ] ]); (1, [ [ 1 ] ]) ]
  in
  let i = Classes.class_of reg b (t [ 0; 1 ]) in
  Alcotest.(check bool) "index in range" true (i >= 0 && i < 68);
  (* The realization of class i is in class i. *)
  let b', u' = Classes.realization reg i in
  check Alcotest.int "realization lands in its class" i
    (Classes.class_of reg b' u')

let test_class_of_respects_liso () =
  let reg = Classes.make ~db_type:[| 2 |] ~rank:2 () in
  let lt = Rdb.Instances.less_than () in
  check Alcotest.int "locally isomorphic pairs share a class"
    (Classes.class_of reg lt (t [ 1; 2 ]))
    (Classes.class_of reg lt (t [ 5; 9 ]))

(* -------------------------------------------------------------------- *)
(* Lgq                                                                  *)

let test_lgq_eval () =
  let reg = Classes.make ~db_type:[| 2 |] ~rank:1 () in
  (* Select the class "has a self loop". *)
  let q = Lgq.of_pred reg (fun d -> Diagram.atom d ~rel:0 [| 0; 0 |]) in
  let b1 = Rdb.Instances.paper_b1 () in
  check (Alcotest.option Alcotest.bool) "a has loop" (Some true)
    (Lgq.mem q b1 (t [ 0 ]));
  check (Alcotest.option Alcotest.bool) "b has no loop" (Some false)
    (Lgq.mem q b1 (t [ 1 ]));
  let members = Lgq.eval_upto q b1 ~cutoff:4 in
  check Test_support.tupleset_testable "loops below 4"
    (Tupleset.of_lists [ [ 0 ] ])
    members

let test_lgq_boolean_ops () =
  let reg = Classes.make ~db_type:[| 2 |] ~rank:1 () in
  let loop = Lgq.of_pred reg (fun d -> Diagram.atom d ~rel:0 [| 0; 0 |]) in
  let all = Lgq.full reg in
  Alcotest.(check bool) "union with complement is full" true
    (Lgq.equal all (Lgq.union loop (Lgq.complement loop)));
  Alcotest.(check bool) "intersection with complement is empty" true
    (Lgq.equal (Lgq.empty reg) (Lgq.inter loop (Lgq.complement loop)));
  Alcotest.(check bool) "undefined absorbs" true
    (Lgq.union Lgq.undefined loop = Lgq.undefined)

let test_lgq_undefined () =
  let b = Rdb.Instances.infinite_clique () in
  check (Alcotest.option Alcotest.bool) "undefined query" None
    (Lgq.mem Lgq.undefined b (t [ 0 ]));
  Alcotest.(check bool) "empty output" true
    (Tupleset.is_empty (Lgq.eval_upto Lgq.undefined b ~cutoff:5))

(* -------------------------------------------------------------------- *)
(* Properties                                                           *)

(* Proposition 2.3: locally generic queries are all-or-nothing defined,
   constant on classes, and of a single output rank. *)
let test_prop_23_properties () =
  let reg = Classes.make ~db_type:[| 2 |] ~rank:2 () in
  let q = Lgq.of_pred reg (fun d -> Diagram.atom d ~rel:0 [| 0; 0 |]) in
  let b1 = Rdb.Instances.less_than () and b2 = Rdb.Instances.triangles () in
  (* Part 1: defined everywhere (our representation makes this
     structural: a Classes query answers on every database). *)
  Alcotest.(check bool) "defined on b1" true (Lgq.mem q b1 (t [ 0; 1 ]) <> None);
  Alcotest.(check bool) "defined on b2" true (Lgq.mem q b2 (t [ 0; 1 ]) <> None);
  (* Part 2: constant on ≅ₗ classes across databases. *)
  List.iter
    (fun (u, v) ->
      if Liso.check b1 u b2 v then
        check (Alcotest.option Alcotest.bool)
          (Printf.sprintf "%s/%s agree" (Tuple.to_string u) (Tuple.to_string v))
          (Lgq.mem q b1 u) (Lgq.mem q b2 v))
    [ (t [ 1; 2 ], t [ 0; 1 ]); (t [ 2; 2 ], t [ 4; 4 ]); (t [ 2; 1 ], t [ 1; 0 ]) ];
  (* Part 3: a common output rank — tuples of other ranks are excluded. *)
  check (Alcotest.option Alcotest.bool) "wrong rank" (Some false)
    (Lgq.mem q b1 (t [ 1 ]))

let qcheck_tests =
  let open QCheck2 in
  let db_type = [| 2; 1 |] in
  let pair2 = Test_support.pair_gen ~db_type ~rank:2 () in
  Test_support.to_alcotest
    [
      Test.make ~count:100 ~name:"check agrees with brute force"
        Gen.(pair pair2 pair2)
        (fun ((b1, u), (b2, v)) ->
          Liso.check b1 u b2 v = Liso.check_bruteforce b1 u b2 v);
      Test.make ~count:100 ~name:"liso reflexive" pair2 (fun (b, u) ->
          Liso.check_same b u u);
      Test.make ~count:100 ~name:"liso symmetric"
        Gen.(pair pair2 pair2)
        (fun ((b1, u), (b2, v)) ->
          Liso.check b1 u b2 v = Liso.check b2 v b1 u);
      Test.make ~count:100 ~name:"diagram equality iff liso"
        Gen.(pair pair2 pair2)
        (fun ((b1, u), (b2, v)) ->
          Diagram.equal (Diagram.of_pair b1 u) (Diagram.of_pair b2 v)
          = Liso.check b1 u b2 v);
      Test.make ~count:60 ~name:"realize roundtrip" pair2 (fun (b, u) ->
          let d = Diagram.of_pair b u in
          let b', u' = Diagram.realize d in
          Diagram.equal d (Diagram.of_pair b' u'));
    ]

let () =
  Alcotest.run "localiso"
    [
      ( "diagram",
        [
          Alcotest.test_case "of_pair basic" `Quick test_diagram_of_pair_basic;
          Alcotest.test_case "repeated elements" `Quick
            test_diagram_repeated_elements;
          Alcotest.test_case "realize roundtrip" `Quick
            test_realize_roundtrip_manual;
          Alcotest.test_case "other counts" `Quick test_enumeration_counts_other;
          Alcotest.test_case "no duplicates" `Quick
            test_enumeration_no_duplicates;
          Alcotest.test_case "filtered enumeration" `Quick
            test_enumeration_filter;
        ] );
      ( "liso",
        [
          Alcotest.test_case "paper example" `Quick test_paper_example_liso;
          Alcotest.test_case "local vs global" `Quick
            test_liso_differs_from_global;
          Alcotest.test_case "rank 0" `Quick test_liso_rank0;
          Alcotest.test_case "oracle cost" `Quick test_oracle_cost;
        ] );
      ( "classes",
        [
          Alcotest.test_case "registry" `Quick test_classes_registry;
          Alcotest.test_case "respects liso" `Quick test_class_of_respects_liso;
        ] );
      ( "lgq",
        [
          Alcotest.test_case "eval" `Quick test_lgq_eval;
          Alcotest.test_case "Prop 2.3 properties" `Quick
            test_prop_23_properties;
          Alcotest.test_case "boolean ops" `Quick test_lgq_boolean_ops;
          Alcotest.test_case "undefined" `Quick test_lgq_undefined;
        ] );
      ("properties", qcheck_tests);
    ]
