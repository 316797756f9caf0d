(* The E31 parity contract, tested: compiled evaluation must be
   observationally identical to the tree-walk interpreters — answers,
   exceptions at the same evaluation points, and the Def. 3.9 question
   ledger (raw Rᵢ, T_B, ≅_B, cache hits) — on random formulas and
   instances, and, through the engine, against the frozen output of
   the interpreted engine across budget/deadline trips.
   Plus unit coverage for the data plane underneath (Env, Arena,
   Tuple.Hashed.copy) and an exact-stats LRU regression for the
   precomputed-hash Oracle_cache nodes. *)

open Prelude

let t = Tuple.of_list
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* The data plane                                                      *)

let test_env () =
  let e = Env.of_vars [ "x"; "y" ] in
  check Alcotest.(option int) "x at 0" (Some 0) (Env.lookup_opt e "x");
  check Alcotest.(option int) "y at 1" (Some 1) (Env.lookup_opt e "y");
  check Alcotest.(option int) "z unbound" None (Env.lookup_opt e "z");
  let e' = Env.bind "x" 7 e in
  check Alcotest.(option int) "bind shadows" (Some 7) (Env.lookup_opt e' "x");
  check Alcotest.(option int) "others kept" (Some 1) (Env.lookup_opt e' "y");
  check Alcotest.int "lookup raises on unbound" 1
    (match Env.lookup e "w" with
    | _ -> 0
    | exception Not_found -> 1)

let test_arena () =
  let a = Arena.create () in
  let b2 = Arena.scratch a 2 in
  check Alcotest.int "width honoured" 2 (Array.length b2);
  check Alcotest.bool "same buffer per width" true (b2 == Arena.scratch a 2);
  check Alcotest.bool "distinct widths distinct buffers" false
    (Obj.repr b2 == Obj.repr (Arena.scratch a 3));
  check Alcotest.int "zero width is the empty tuple" 0
    (Array.length (Arena.scratch a 0));
  let src = [| 4; 5; 6; 7 |] in
  let p = Arena.fill_prefix a src 3 in
  check Test_support.tuple_testable "prefix copied" (t [ 4; 5; 6 ]) p;
  (* wide widths go through the hashtable side *)
  check Alcotest.int "wide scratch" 40 (Array.length (Arena.scratch a 40));
  check Alcotest.bool "wide buffer reused" true
    (Arena.scratch a 40 == Arena.scratch a 40)

let test_hashed_copy () =
  let u = t [ 1; 2; 3 ] in
  let h = Tuple.Hashed.make u in
  let c = Tuple.Hashed.copy h in
  check Alcotest.bool "copy owns its array" true
    (not (Tuple.Hashed.tuple c == Tuple.Hashed.tuple h));
  check Alcotest.int "hash preserved" (Tuple.Hashed.hash h)
    (Tuple.Hashed.hash c);
  check Alcotest.bool "still equal" true (Tuple.Hashed.equal h c);
  u.(0) <- 99;
  check Test_support.tuple_testable "borrowed original mutates, copy not"
    (t [ 1; 2; 3 ]) (Tuple.Hashed.tuple c)

(* ------------------------------------------------------------------ *)
(* Qf parity: random formulas, random finite databases                 *)

(* Same vocabulary as the rlogic roundtrip generator: x, y, z over a
   binary R1 and a unary R2. *)
let gen_formula =
  let open QCheck2.Gen in
  let var = oneofl [ "x"; "y"; "z" ] in
  let atom =
    oneof
      [
        pure Rlogic.Ast.True;
        pure Rlogic.Ast.False;
        map2 (fun a b -> Rlogic.Ast.Eq (a, b)) var var;
        map2 (fun a b -> Rlogic.Ast.Mem (0, [| a; b |])) var var;
        map (fun a -> Rlogic.Ast.Mem (1, [| a |])) var;
      ]
  in
  let rec go n =
    if n = 0 then atom
    else
      oneof
        [
          atom;
          map (fun f -> Rlogic.Ast.Not f) (go (n - 1));
          map2 (fun f g -> Rlogic.Ast.And (f, g)) (go (n - 1)) (go (n - 1));
          map2 (fun f g -> Rlogic.Ast.Or (f, g)) (go (n - 1)) (go (n - 1));
          map2
            (fun f g -> Rlogic.Ast.Implies (f, g))
            (go (n - 1)) (go (n - 1));
          map2 (fun v f -> Rlogic.Ast.Exists (v, f)) var (go (n - 1));
          map2 (fun v f -> Rlogic.Ast.Forall (v, f)) var (go (n - 1));
        ]
  in
  go 4

(* A partial environment: some subset of {x, y, z} bound, so unbound
   variables and (for the unbounded evaluator) quantifiers exercise
   the exception paths of both evaluators. *)
let gen_env =
  let open QCheck2.Gen in
  let bind v =
    opt (int_bound 3) >|= Option.map (fun n -> (v, n))
  in
  bind "x" >>= fun x ->
  bind "y" >>= fun y ->
  bind "z" >|= fun z -> List.filter_map Fun.id [ x; y; z ]

(* Evaluation outcome up to exception identity: what is raised must
   agree in kind (the E31 contract pins the raise points, not the
   unspecified argument-evaluation order inside one atom). *)
type verdict = Value of bool | Unbound | Invalid | Other

let verdict f =
  match f () with
  | b -> Value b
  | exception Rlogic.Qf_eval.Unbound_variable _ -> Unbound
  | exception Invalid_argument _ -> Invalid
  | exception _ -> Other

let verdict_eq a b =
  match (a, b) with
  | Value x, Value y -> Bool.equal x y
  | Unbound, Unbound | Invalid, Invalid | Other, Other -> true
  | _ -> false

let with_calls db f =
  Rdb.Database.reset_oracle_calls db;
  let v = verdict f in
  (v, Rdb.Database.oracle_calls db)

let qf_gen =
  QCheck2.Gen.triple gen_formula
    (Test_support.finite_db_gen ~db_type:[| 2; 1 |] ())
    gen_env

let qcheck_qf_formula_parity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"compiled quantifier-free evaluation ≡ interpreted (answer, \
              exception kind, oracle calls)"
       qf_gen
       (fun (f, db, env) ->
         let vars = List.map fst env in
         let vals = Array.of_list (List.map snd env) in
         let vi, ci =
           with_calls db (fun () -> Rlogic.Qf_eval.eval_formula db ~env f)
         in
         let vc, cc =
           with_calls db (fun () ->
               (Rlogic.Qf_compile.compile_formula db ~vars f) vals)
         in
         verdict_eq vi vc && ci = cc))

let qcheck_qf_bounded_parity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"compiled bounded-domain evaluation ≡ interpreted"
       qf_gen
       (fun (f, db, env) ->
         let vars = List.map fst env in
         let vals = Array.of_list (List.map snd env) in
         let vi, ci =
           with_calls db (fun () ->
               Rlogic.Qf_eval.eval_bounded db ~cutoff:3 ~env f)
         in
         let vc, cc =
           with_calls db (fun () ->
               (Rlogic.Qf_compile.compile_bounded db ~cutoff:3 ~vars f) vals)
         in
         verdict_eq vi vc && ci = cc))

let qf_queries =
  [
    "{(x, y) | R1(x, y) && x != y}";
    "{(x) | R2(x) || R1(x, x)}";
    "{(x, y) | (R1(x, y) -> R2(y)) && !(x = y)}";
  ]

let qcheck_qf_query_parity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"compiled L⁻ query mem/eval_upto ≡ interpreted"
       (QCheck2.Gen.triple
          (QCheck2.Gen.oneofl qf_queries)
          (Test_support.finite_db_gen ~db_type:[| 2; 1 |] ())
          (Test_support.tuple_gen ~rank:2 ()))
       (fun (qtext, db, u) ->
         let q = Rlogic.Parser.query qtext in
         Rlogic.Qf_eval.mem db q u = Rlogic.Qf_compile.mem db q u
         && Tupleset.equal
              (Rlogic.Qf_eval.eval_upto db q ~cutoff:4)
              (Rlogic.Qf_compile.eval_upto db q ~cutoff:4)))

(* ------------------------------------------------------------------ *)
(* Fo parity: representative-based evaluation on real instances        *)

let fresh name =
  match Engine.build_instance name with
  | Some t -> t
  | None -> Alcotest.failf "instance %s not registered" name

(* The full Def. 3.9 ledger of a fresh instance after one evaluation:
   raw Rᵢ questions plus T_B and ≅_B questions. *)
let ledger_of inst f =
  let v = f inst in
  let raw = Rdb.Database.oracle_calls (Hs.Hsdb.db inst) in
  let tb, eq = Hs.Hsdb.oracle_calls inst in
  (v, (raw, tb, eq))

let ledger_t = Alcotest.(triple int int int)

let fo_sentences =
  [
    "forall x. forall y. R1(x, y) -> (exists z. R1(x, z) && R1(y, z))";
    "exists x. forall y. y != x -> R1(x, y)";
    "forall x. exists y. forall z. exists w. R1(x, y) || z = w";
    "exists x. exists y. exists z. R1(x, y) && R1(y, z) && R1(x, z)";
  ]

let test_fo_sentence_parity () =
  List.iter
    (fun instance ->
      List.iter
        (fun s ->
          let f = Rlogic.Parser.formula s in
          let vi, li =
            ledger_of (fresh instance) (fun t -> Hs.Fo_eval.eval_sentence t f)
          in
          let vc, lc =
            ledger_of (fresh instance) (fun t -> Hs.Fo_compile.sentence t f ())
          in
          check Alcotest.bool (s ^ " answer") vi vc;
          check ledger_t (s ^ " ledger") li lc)
        fo_sentences)
    [ "triangles"; "mod2"; "paths3" ]

(* Graph vocabulary only — the hs instances carry a single binary
   relation, so the unary R2 atom of the Qf generator is out of
   range there (in both evaluators, at the same point, but the
   property wants defined answers). *)
let gen_graph_formula =
  let open QCheck2.Gen in
  let var = oneofl [ "x"; "y"; "z" ] in
  let atom =
    oneof
      [
        pure Rlogic.Ast.True;
        map2 (fun a b -> Rlogic.Ast.Eq (a, b)) var var;
        map2 (fun a b -> Rlogic.Ast.Mem (0, [| a; b |])) var var;
      ]
  in
  let rec go n =
    if n = 0 then atom
    else
      oneof
        [
          atom;
          map (fun f -> Rlogic.Ast.Not f) (go (n - 1));
          map2 (fun f g -> Rlogic.Ast.And (f, g)) (go (n - 1)) (go (n - 1));
          map2 (fun f g -> Rlogic.Ast.Or (f, g)) (go (n - 1)) (go (n - 1));
          map2 (fun v f -> Rlogic.Ast.Exists (v, f)) var (go (n - 1));
          map2 (fun v f -> Rlogic.Ast.Forall (v, f)) var (go (n - 1));
        ]
  in
  go 4

let qcheck_fo_closed_parity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"compiled random closed formulas ≡ interpreted on triangles \
              (answer + full ledger)"
       gen_graph_formula
       (fun f0 ->
         (* close the formula so it is a sentence *)
         let f =
           Rlogic.Ast.Exists
             ("x", Rlogic.Ast.Exists ("y", Rlogic.Ast.Exists ("z", f0)))
         in
         let vi, li =
           ledger_of (fresh "triangles") (fun t ->
               Hs.Fo_eval.eval_sentence t f)
         in
         let vc, lc =
           ledger_of (fresh "triangles") (fun t ->
               Hs.Fo_compile.sentence t f ())
         in
         Bool.equal vi vc && li = lc))

let fo_queries =
  [
    "{(x, y) | R1(x, y) && x != y}";
    "{(x, y) | exists z. R1(x, z) && R1(z, y)}";
    "{(x) | forall y. R1(x, y) -> (exists z. R1(y, z))}";
  ]

let test_fo_query_parity () =
  List.iter
    (fun qtext ->
      let q = Rlogic.Parser.query qtext in
      let vi, li =
        ledger_of (fresh "triangles") (fun t ->
            Hs.Fo_eval.eval_upto t q ~cutoff:6)
      in
      let vc, lc =
        ledger_of (fresh "triangles") (fun t ->
            Hs.Fo_compile.eval_upto (Hs.Fo_compile.compile_query t q)
              ~cutoff:6)
      in
      check Test_support.tupleset_testable (qtext ^ " members") vi vc;
      check ledger_t (qtext ^ " ledger") li lc;
      let mi, _ =
        ledger_of (fresh "triangles") (fun t ->
            Hs.Fo_eval.mem t q (Tuple.of_list [ 2; 5 ]))
      in
      let mc, _ =
        ledger_of (fresh "triangles") (fun t ->
            Hs.Fo_compile.mem (Hs.Fo_compile.compile_query t q)
              (Tuple.of_list [ 2; 5 ]))
      in
      check Alcotest.(option bool) (qtext ^ " mem") mi mc)
    fo_queries

(* ------------------------------------------------------------------ *)
(* QL parity                                                           *)

let ql_outcome_eq a b =
  match (a, b) with
  | Ql.Ql_interp.Halted u, Ql.Ql_interp.Halted v ->
      Array.length u = Array.length v
      && Array.for_all2 Ql.Ql_hs.equal_value u v
  | Ql.Ql_interp.Timeout, Ql.Ql_interp.Timeout -> true
  | Ql.Ql_interp.Ill_formed a, Ql.Ql_interp.Ill_formed b -> String.equal a b
  | _ -> false

let ql_programs =
  [
    "Y1 <- ~(Rel1 & E)";
    "Y1 <- E; Y2 <- Y1^; Y3 <- Y2!%";
    "Y1 <- Rel1; while |Y2| = 0 do { Y2 <- E^ }";
    (* never terminates: both runners must time out at the same fuel *)
    "while |Y1| = 0 do { Y2 <- E }";
    (* rank error reaches both at the same assignment *)
    "Y1 <- E; Y2 <- Y1 & Y1^";
    (* the |Y| < ∞ test is unavailable in QL_hs: Ill_formed either way *)
    "while |Y1| < inf do { Y1 <- E }";
  ]

let test_ql_parity () =
  List.iter
    (fun ptext ->
      let p = Ql.Ql_parser.program ptext in
      List.iter
        (fun fuel ->
          let vi, li =
            ledger_of (fresh "triangles") (fun t -> Ql.Ql_hs.run t ~fuel p)
          in
          let vc, lc =
            ledger_of (fresh "triangles") (fun t ->
                Ql.Ql_compile.run
                  (Ql.Ql_compile.compile ~algebra:(Ql.Ql_hs.algebra t) p)
                  ~fuel)
          in
          check Alcotest.bool
            (Printf.sprintf "%s (fuel %d) outcome" ptext fuel)
            true (ql_outcome_eq vi vc);
          check ledger_t
            (Printf.sprintf "%s (fuel %d) ledger" ptext fuel)
            li lc)
        [ 0; 1; 2; 50 ])
    ql_programs

(* ------------------------------------------------------------------ *)
(* RQL parity                                                          *)

let rql_texts =
  [
    "fix p(x, y) = R1(x, y) || exists z. (R1(x, z) && p(z, y)); \
     query {(x, y) | p(x, y)}";
    "let live(x) = exists y. R1(x, y); sentence exists x. live(x)";
    "fix p(x, y) = R1(x, y) || exists z. (R1(x, z) && p(z, y)); \
     sentence exists x. p(x, x)";
    "query {(x, y) | R1(x, y) && x != y}";
    "tree 2";
  ]

let test_rql_parity () =
  List.iter
    (fun text ->
      List.iter
        (fun mode ->
          let plan = Rql.Rql_plan.plan_of_text ~mode text in
          List.iter
            (fun instance ->
              let vi, li =
                ledger_of (fresh instance) (fun t ->
                    Rql.Rql_eval.run ~cutoff:4 t plan)
              in
              let vc, lc =
                ledger_of (fresh instance) (fun t ->
                    Rql.Rql_compile.run ~cutoff:4
                      (Rql.Rql_compile.prepare t plan))
              in
              check Alcotest.bool
                (Printf.sprintf "%s [%s] outcome" text instance)
                true (vi = vc);
              check ledger_t
                (Printf.sprintf "%s [%s] ledger" text instance)
                li lc)
            [ "triangles"; "paths3" ])
        [ Rql.Rql_plan.Naive; Rql.Rql_plan.Planned ])
    rql_texts

let test_rql_prepare_error_parity () =
  (* R2 does not exist on a one-relation graph instance: the
     interpreter's first run and [prepare] must raise the same
     instance-validation error. *)
  let plan =
    Rql.Rql_plan.plan_of_text ~mode:Rql.Rql_plan.Planned
      "sentence exists x. R2(x, x)"
  in
  let msg f =
    match f () with
    | _ -> None
    | exception Rql.Rql_eval.Error m -> Some m
  in
  let mi = msg (fun () -> Rql.Rql_eval.run ~cutoff:4 (fresh "triangles") plan)
  and mc = msg (fun () -> Rql.Rql_compile.prepare (fresh "triangles") plan) in
  check Alcotest.bool "both raise Rql_eval.Error" true
    (Option.is_some mi && Option.is_some mc);
  check Alcotest.(option string) "same message" mi mc

(* ------------------------------------------------------------------ *)
(* Engine parity: responses, ledgers, budget and deadline trips        *)

(* The engine evaluates compiled only; its reference is the output of
   the interpreted engine it replaced, frozen once in the golden file:
   per request the response bytes (stats stripped) and the four ledger
   counts, including the typed budget/deadline errors with the exact
   question count at the trip. *)
let check_golden set () =
  match Engine_bench.check_golden ~path:"golden/compile_interp.jsonl" set with
  | [] -> ()
  | diffs -> Alcotest.fail (String.concat "\n" diffs)

let test_engine_compile_counters () =
  let c = Metrics.counter "engine.plans_compiled" in
  let before = Metrics.counter_value c in
  (* a fresh text compiles once, then the cached closure serves *)
  let engine = Engine.create () in
  let req =
    Request.make ~id:1
      (Request.Sentence
         {
           instance = "triangles";
           sentence = "exists x. exists y. R1(x, y) && x != y";
         })
  in
  ignore (Engine.handle_all engine [ req; req; req ]);
  check Alcotest.int "compiled exactly once" (before + 1)
    (Metrics.counter_value c)

(* ------------------------------------------------------------------ *)
(* Oracle_cache: precomputed node hashes must not change behaviour     *)

let test_lru_stats_regression () =
  (* Hand-computed reference trace, capacity 3:
     1m 2m 3m  1h  4m(evict 2)  2m(evict 3)  4h 1h  3m(evict 2) —
     6 misses, 3 hits, 3 resident.  The hashed-key representation
     must reproduce these numbers exactly. *)
  let c =
    Oracle_cache.wrap ~capacity:3
      (Rdb.Relation.make ~arity:1 (fun u -> u.(0) mod 2 = 0))
  in
  let rel = Oracle_cache.relation c in
  List.iter
    (fun k -> ignore (Rdb.Relation.mem rel (t [ k ])))
    [ 1; 2; 3; 1; 4; 2; 4; 1; 3 ];
  let s = Oracle_cache.stats c in
  check Alcotest.int "hits" 3 s.Oracle_cache.hits;
  check Alcotest.int "misses" 6 s.Oracle_cache.misses;
  check Alcotest.int "resident" 3 (Oracle_cache.length c);
  check Alcotest.int "misses = genuine questions" 6
    (Rdb.Relation.calls (Oracle_cache.underlying c))

let () =
  Alcotest.run "compile"
    [
      ( "data plane",
        [
          Alcotest.test_case "Env" `Quick test_env;
          Alcotest.test_case "Arena" `Quick test_arena;
          Alcotest.test_case "Hashed.copy" `Quick test_hashed_copy;
        ] );
      ( "qf parity",
        [
          qcheck_qf_formula_parity;
          qcheck_qf_bounded_parity;
          qcheck_qf_query_parity;
        ] );
      ( "fo parity",
        [
          Alcotest.test_case "sentences" `Quick test_fo_sentence_parity;
          Alcotest.test_case "queries" `Quick test_fo_query_parity;
          qcheck_fo_closed_parity;
        ] );
      ( "ql parity", [ Alcotest.test_case "programs" `Quick test_ql_parity ] );
      ( "rql parity",
        [
          Alcotest.test_case "plans" `Quick test_rql_parity;
          Alcotest.test_case "prepare errors" `Quick
            test_rql_prepare_error_parity;
        ] );
      ( "engine parity",
        [
          Alcotest.test_case "mixed batch" `Quick (check_golden "mixed");
          Alcotest.test_case "budget trip" `Quick (check_golden "budget");
          Alcotest.test_case "deadline trip" `Quick (check_golden "deadline");
          Alcotest.test_case "e31 batch" `Quick (check_golden "e31");
          Alcotest.test_case "compile counters" `Quick
            test_engine_compile_counters;
        ] );
      ( "oracle cache",
        [
          Alcotest.test_case "stats regression" `Quick
            test_lru_stats_regression;
        ] );
    ]
