open Rmachine

let check = Alcotest.check
let t = Prelude.Tuple.of_list

(* -------------------------------------------------------------------- *)
(* Counter machines                                                     *)

let test_addition () =
  match Counter.run Counter.addition ~input:[ 3; 4 ] ~fuel:1000 with
  | Counter.Halted counters -> check Alcotest.int "3+4" 7 counters.(0)
  | Counter.Out_of_fuel -> Alcotest.fail "addition diverged"

let test_addition_zero () =
  match Counter.run Counter.addition ~input:[ 5; 0 ] ~fuel:1000 with
  | Counter.Halted counters -> check Alcotest.int "5+0" 5 counters.(0)
  | Counter.Out_of_fuel -> Alcotest.fail "addition diverged"

let test_busy_loop () =
  Alcotest.(check bool) "never halts" true
    (Counter.run Counter.busy_loop ~input:[] ~fuel:10_000 = Counter.Out_of_fuel)

let test_halt_after () =
  let m = Counter.halt_after 10 in
  Alcotest.(check bool) "halts within 100" true
    (Counter.halts_within m ~input:[] ~steps:100);
  Alcotest.(check bool) "not within 5" false
    (Counter.halts_within m ~input:[] ~steps:5)

let test_validation () =
  Alcotest.check_raises "bad counter"
    (Invalid_argument "Counter.make: counter index out of range") (fun () ->
      ignore (Counter.make ~ncounters:1 [ Counter.Incr 5 ]))

(* -------------------------------------------------------------------- *)
(* Gödel numbering                                                      *)

let behaviour_equal m1 m2 =
  List.for_all
    (fun z ->
      let outcome m =
        match Counter.run m ~input:[ z ] ~fuel:200 with
        | Counter.Halted c -> Some (Array.to_list c)
        | Counter.Out_of_fuel -> None
      in
      outcome m1 = outcome m2)
    [ 0; 1; 2; 5; 10 ]

let test_encode_decode_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "same behaviour" true
        (behaviour_equal m (Toy.decode (Toy.encode m))))
    [
      Counter.addition;
      Counter.busy_loop;
      Counter.make ~ncounters:2
        [ Counter.Incr 1; Counter.Jz (0, 4); Counter.Decr 0; Counter.Jmp 1 ];
    ]

let test_decode_total () =
  (* Every natural decodes to some machine, and the step-bounded run is
     total. *)
  List.iter
    (fun n ->
      let m = Toy.decode n in
      ignore (Counter.run m ~input:[ 3 ] ~fuel:100))
    (Prelude.Ints.range 0 200)

let test_halting_codes () =
  Alcotest.(check bool) "loop never halts" false
    (Toy.halts_within ~x:5000 ~y:Toy.loop_code ~z:0);
  Alcotest.(check bool) "immediate halts fast" true
    (Toy.halts_within ~x:3 ~y:Toy.immediate_halt_code ~z:0);
  let slow = Toy.slow_input_code in
  Alcotest.(check bool) "slow not within z" false
    (Toy.halts_within ~x:50 ~y:slow ~z:50);
  Alcotest.(check bool) "slow within 4z" true
    (Toy.halts_within ~x:200 ~y:slow ~z:50)

let test_halting_relation_db () =
  let db = Toy.halting_relation () in
  check (Alcotest.array Alcotest.int) "type (3)" [| 3 |]
    (Rdb.Database.db_type db);
  Alcotest.(check bool) "member" true
    (Rdb.Database.mem db 0 (t [ 3; Toy.immediate_halt_code; 9 ]));
  Alcotest.(check bool) "non-member" false
    (Rdb.Database.mem db 0 (t [ 1000; Toy.loop_code; 0 ]))

(* -------------------------------------------------------------------- *)
(* Oracle register machines                                             *)

let test_member_of () =
  let db = Rdb.Instances.divides () in
  let m = Oracle_rm.member_of ~rel:0 ~arity:2 in
  Alcotest.(check bool) "3 | 9" true
    (Oracle_rm.decider m ~fuel:100 db (t [ 3; 9 ]));
  Alcotest.(check bool) "3 does not divide 10" false
    (Oracle_rm.decider m ~fuel:100 db (t [ 3; 10 ]))

let test_oracle_calls_counted () =
  let db = Rdb.Instances.divides () in
  Rdb.Database.reset_oracle_calls db;
  ignore
    (Oracle_rm.decider (Oracle_rm.member_of ~rel:0 ~arity:2) ~fuel:100 db
       (t [ 2; 8 ]));
  check Alcotest.int "exactly one oracle question" 1
    (Rdb.Database.oracle_calls db)

let test_exists_forward_edge () =
  let machine = Oracle_rm.exists_forward_edge in
  let reference db x =
    List.exists
      (fun y -> y <> x && Rdb.Database.mem db 0 (t [ x; y ]))
      (Prelude.Ints.range 0 30)
  in
  List.iter
    (fun (db, inputs) ->
      List.iter
        (fun x ->
          Alcotest.(check bool)
            (Printf.sprintf "%s x=%d" (Rdb.Database.name db) x)
            (reference db x)
            (Oracle_rm.decider machine ~fuel:5000 db (t [ x ])))
        inputs)
    [
      (Rdb.Instances.paper_b1 (), [ 0; 1 ]);
      (Rdb.Instances.less_than (), [ 0; 3; 7 ]);
      (Rdb.Instances.infinite_clique (), [ 0; 2 ]);
      (Rdb.Instances.triangles (), [ 0; 4 ]);
    ]

let test_exists_forward_edge_diverges () =
  (* On B2 = {(c, c)} the search never succeeds: fuel runs out, the
     paper's "Q(B2) undefined at (c)" behaviour. *)
  let db = Rdb.Instances.paper_b2 () in
  Alcotest.(check bool) "out of fuel" true
    (Oracle_rm.run Oracle_rm.exists_forward_edge ~db ~input:(t [ 2 ])
       ~fuel:2000
    = Oracle_rm.Out_of_fuel)

let test_oracle_machine_genericity_refutation () =
  (* The full §2 story: the honest oracle machine computes the ∃-query;
     the Proposition 2.5 construction refutes its genericity from its
     own oracle logs. *)
  let decide db u =
    Oracle_rm.decider Oracle_rm.exists_forward_edge ~fuel:2000 db u
  in
  let b1 = Rdb.Instances.paper_b1 () and b2 = Rdb.Instances.paper_b2 () in
  match Core.Genericity.refute ~decide ~b1 ~u:(t [ 0 ]) ~b2 ~v:(t [ 2 ]) with
  | None -> Alcotest.fail "expected a certificate"
  | Some cert ->
      Alcotest.(check bool) "verified" true (Core.Genericity.verify cert)

(* -------------------------------------------------------------------- *)
(* The non-closure witness (E4)                                         *)

let test_nonclosure_splits_class () =
  let w = Nonclosure.find () in
  let y1, z1 = w.Nonclosure.halting and y2, z2 = w.Nonclosure.looping in
  let db = Toy.halting_relation () in
  Alcotest.(check bool) "same class" true
    (Localiso.Liso.check_same db (t [ y1; z1 ]) (t [ y2; z2 ]));
  (* The projection distinguishes them. *)
  let in_projection (y, z) bound =
    List.exists
      (fun x -> Toy.halts_within ~x ~y ~z)
      [ bound ]
  in
  Alcotest.(check bool) "halting pair in projection" true
    (in_projection w.Nonclosure.halting w.Nonclosure.halt_steps);
  Alcotest.(check bool) "looping pair not in projection" false
    (in_projection w.Nonclosure.looping (2 * w.Nonclosure.halt_steps))

let () =
  Alcotest.run "rmachine"
    [
      ( "counter",
        [
          Alcotest.test_case "addition" `Quick test_addition;
          Alcotest.test_case "addition zero" `Quick test_addition_zero;
          Alcotest.test_case "busy loop" `Quick test_busy_loop;
          Alcotest.test_case "halt after" `Quick test_halt_after;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "toy",
        [
          Alcotest.test_case "encode/decode" `Quick
            test_encode_decode_roundtrip;
          Alcotest.test_case "decode total" `Quick test_decode_total;
          Alcotest.test_case "halting codes" `Quick test_halting_codes;
          Alcotest.test_case "halting relation db" `Quick
            test_halting_relation_db;
        ] );
      ( "oracle_rm",
        [
          Alcotest.test_case "member_of" `Quick test_member_of;
          Alcotest.test_case "oracle calls counted" `Quick
            test_oracle_calls_counted;
          Alcotest.test_case "exists forward edge" `Quick
            test_exists_forward_edge;
          Alcotest.test_case "divergence" `Quick
            test_exists_forward_edge_diverges;
          Alcotest.test_case "genericity refutation" `Quick
            test_oracle_machine_genericity_refutation;
        ] );
      ( "nonclosure",
        [
          Alcotest.test_case "splits a class" `Quick
            test_nonclosure_splits_class;
        ] );
    ]
