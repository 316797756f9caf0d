open Rql

let check = Alcotest.check

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* -------------------------------------------------------------------- *)
(* Parser                                                                *)

let test_parse_roundtrip () =
  (* parse ∘ to_source ∘ parse = parse: the canonical printer emits
     exactly the parsed AST back. *)
  List.iter
    (fun src ->
      let p = Rql_parser.query src in
      let printed = Rql_ast.to_source p in
      let p' = Rql_parser.query printed in
      if p <> p' then
        Alcotest.failf "round-trip changed %S (printed %S)" src printed)
    [
      "sentence true";
      "sentence exists x. exists y. R1(x, y)";
      "sentence forall x. (R1(x, x) -> false)";
      "let e(x, y) = R1(x, y) || R1(y, x); sentence exists x. exists y. e(x, y)";
      "fix p(x, y) = R1(x, y) || exists z. (R1(x, z) && p(z, y)); \
       query {(x, y) | p(x, y)} cutoff 3";
      "query {(x) | exists y. (R1(x, y) && x != y)}";
      "query {() | true}";
      "tree 2";
      "sentence !(true && false) -> true || false";
    ]

let test_parse_error_position () =
  (* The missing comma is on line 2. *)
  (match Rql_parser.query "let p(x) =\n  R1(x x);\nsentence true" with
  | exception Rql_parser.Error { line; col; _ } ->
      check Alcotest.int "error line" 2 line;
      Alcotest.(check bool) "error column positive" true (col > 0)
  | _ -> Alcotest.fail "expected a parse error");
  (match Rql_parser.query "sentence" with
  | exception Rql_parser.Error _ -> ()
  | _ -> Alcotest.fail "missing formula should not parse");
  (match Rql_parser.query "let fix(x) = R1(x, x); sentence true" with
  | exception Rql_parser.Error _ -> ()
  | _ -> Alcotest.fail "keyword as a name should not parse");
  match Rql_parser.query "query {(x) | R1(x, x)} cutoff" with
  | exception Rql_parser.Error _ -> ()
  | _ -> Alcotest.fail "cutoff without a number should not parse"

let test_comments_and_whitespace () =
  let a = Rql_parser.query "sentence exists x. R1(x, x)" in
  let b =
    Rql_parser.query
      "-- leading comment\nsentence   exists x .\n  R1 ( x , x )  -- trailing"
  in
  Alcotest.(check bool) "comments and spacing are invisible" true (a = b)

(* -------------------------------------------------------------------- *)
(* Normalization                                                         *)

let norm text = Rql_plan.normalize (Rql_plan.parse text)

let test_normalize_insensitive () =
  let a =
    "fix p(x, y) = R1(x, y) || exists z. (R1(x, z) && p(z, y)); \
     query {(x, y) | p(x, y)}"
  in
  let ws =
    "fix p(x,y)=R1(x,y)||exists z.(R1(x,z)&&p(z,y));\n\
     query { ( x , y ) | p ( x , y ) }"
  in
  let alpha =
    "fix reach(u, v) = R1(u, v) || exists w. (R1(u, w) && reach(w, v)); \
     query {(u, v) | reach(u, v)}"
  in
  check Alcotest.string "whitespace-insensitive" (norm a) (norm ws);
  check Alcotest.string "alpha-insensitive" (norm a) (norm alpha);
  let different =
    "fix p(x, y) = R1(x, y) || exists z. (p(x, z) && R1(z, y)); \
     query {(x, y) | p(x, y)}"
  in
  Alcotest.(check bool)
    "different bodies normalize differently" false
    (norm a = norm different)

let test_normalize_def_names () =
  (* Definition names are positional in the normalized text. *)
  let a = "let a(x) = R1(x, x); let b(x) = a(x); sentence exists x. b(x)" in
  let b = "let q(x) = R1(x, x); let r(x) = q(x); sentence exists x. r(x)" in
  check Alcotest.string "definition names are positional" (norm a) (norm b)

(* -------------------------------------------------------------------- *)
(* Compile-time diagnostics                                              *)

let expect_compile_error ~mode ~needle text =
  match Rql_plan.plan_of_text ~mode text with
  | exception Rql_plan.Error msg ->
      if not (contains ~needle msg) then
        Alcotest.failf "expected %S in error %S" needle msg
  | _ -> Alcotest.failf "expected a compile error mentioning %S" needle

let test_compile_errors () =
  let e = expect_compile_error ~mode:Rql_plan.Planned in
  e ~needle:"unknown relation or definition \"q\""
    "sentence exists x. q(x)";
  e ~needle:"unbound variable \"y\"" "sentence exists x. R1(x, y)";
  e ~needle:"applied to 1"
    "let p(x, y) = R1(x, y); sentence exists x. p(x)";
  e ~needle:"use 'fix'" "let p(x) = p(x); sentence exists x. p(x)";
  e ~needle:"must occur positively"
    "fix p(x) = !p(x); sentence exists x. p(x)";
  e ~needle:"must occur positively"
    "fix p(x) = p(x) -> false; sentence exists x. p(x)";
  e ~needle:"not yet in scope"
    "let a(x) = b(x); let b(x) = R1(x, x); sentence exists x. a(x)";
  e ~needle:"duplicate"
    "let p(x) = R1(x, x); let p(x) = R1(x, x); sentence exists x. p(x)";
  e ~needle:"duplicate"
    "let p(x, x) = R1(x, x); sentence exists x. p(x, x)";
  e ~needle:"maximum supported rank"
    "let p(a, b, c, d, e) = R1(a, b); sentence exists x. exists y. \
     exists z. exists v. exists w. p(x, y, z, v, w)";
  e ~needle:"cutoff 99" "query {(x) | R1(x, x)} cutoff 99";
  e ~needle:"tree depth" "tree 99"

let test_positive_through_double_negation () =
  (* Two negations make the occurrence positive again. *)
  let plan =
    Rql_plan.plan_of_text ~mode:Rql_plan.Planned
      "fix p(x) = R1(x, x) || !(!p(x)); sentence exists x. p(x)"
  in
  Alcotest.(check bool) "compiles" true (Array.length plan.Rql_plan.defs >= 0)

(* -------------------------------------------------------------------- *)
(* Planner rewrites                                                      *)

let defs_count ~mode text =
  Array.length (Rql_plan.plan_of_text ~mode text).Rql_plan.defs

let test_dead_code_elimination () =
  let text =
    "fix dead(x, y) = R1(x, y) || exists z. (R1(x, z) && dead(z, y)); \
     let live(x) = R1(x, x); sentence exists x. live(x)"
  in
  check Alcotest.int "naive keeps both defs" 2
    (defs_count ~mode:Rql_plan.Naive text);
  Alcotest.(check bool)
    "planned drops the dead fixpoint" true
    (defs_count ~mode:Rql_plan.Planned text < 2)

let test_common_fixpoint_unification () =
  let text =
    "fix p(x, y) = R1(x, y) || exists z. (R1(x, z) && p(z, y)); \
     fix q(u, v) = R1(u, v) || exists w. (R1(u, w) && q(w, v)); \
     sentence exists x. exists y. (p(x, y) && q(y, x))"
  in
  check Alcotest.int "naive keeps both fixpoints" 2
    (defs_count ~mode:Rql_plan.Naive text);
  check Alcotest.int "planned unifies the alpha-equal fixpoints" 1
    (defs_count ~mode:Rql_plan.Planned text)

let test_estimates_and_describe () =
  let plan =
    Rql_plan.plan_of_text ~mode:Rql_plan.Planned
      "fix dead(x, y) = R1(x, y) || exists z. (R1(x, z) && dead(z, y)); \
       sentence exists x. R1(x, x)"
  in
  Alcotest.(check bool)
    "planned estimate is no worse than naive" true
    (plan.Rql_plan.est_planned <= plan.Rql_plan.est_naive);
  let d = Rql_plan.describe plan in
  Alcotest.(check bool) "describe mentions the mode" true
    (contains ~needle:"planned" d || contains ~needle:"Planned" d)

(* -------------------------------------------------------------------- *)
(* End-to-end through the engine                                         *)

let rql_req ?(id = 1) ?(instance = "paths3") ?(cutoff = 4)
    ?(planner = Request.Plan_cost) text =
  Request.make ~id (Request.Rql { instance; text; cutoff; planner })

let expect_ok name (r : Request.response) =
  match r.result with
  | Ok o -> o
  | Error e -> Alcotest.failf "%s: %s" name (Request.error_to_string e)

let test_transitive_closure () =
  (* paths3 is disjoint copies of an undirected 3-path a–b–c: the two
     endpoints are connected but not adjacent. *)
  let e = Engine.create () in
  let r =
    Engine.handle e
      (rql_req
         "fix conn(x, y) = R1(x, y) || exists z. (R1(x, z) && conn(z, y)); \
          sentence exists x. exists y. (conn(x, y) && !R1(x, y))")
  in
  match expect_ok "tc" r with
  | Request.Bool b -> Alcotest.(check bool) "endpoints connected" true b
  | _ -> Alcotest.fail "expected Bool"

let test_rql_matches_plain_query () =
  (* A non-recursive RQL query must byte-equal the plain query op. *)
  let e = Engine.create () in
  let rql =
    Engine.handle e (rql_req ~id:7 "query {(x, y) | R1(x, y)} cutoff 3")
  in
  let plain =
    Engine.handle e
      (Request.make ~id:7
         (Request.Query
            { instance = "paths3"; query = "{(x,y) | R1(x,y)}"; cutoff = 3 }))
  in
  check Alcotest.string "rql query = plain query"
    (Json.to_string (Request.response_to_json ~stats:false plain))
    (Json.to_string (Request.response_to_json ~stats:false rql))

let test_rql_matches_plain_tree () =
  let e = Engine.create () in
  let rql = Engine.handle e (rql_req ~id:8 ~instance:"mod2" "tree 2") in
  let plain =
    Engine.handle e
      (Request.make ~id:8 (Request.Tree { instance = "mod2"; depth = 2 }))
  in
  check Alcotest.string "rql tree = plain tree"
    (Json.to_string (Request.response_to_json ~stats:false plain))
    (Json.to_string (Request.response_to_json ~stats:false rql))

let tc_query =
  "fix conn(x, y) = R1(x, y) || exists z. (R1(x, z) && conn(z, y)); \
   query {(x, y) | conn(x, y) && !R1(x, y)} cutoff 3"

let test_planners_byte_identical () =
  List.iter
    (fun (instance, text) ->
      let naive =
        Engine.handle (Engine.create ())
          (rql_req ~instance ~planner:Request.Plan_naive text)
      in
      let planned =
        Engine.handle (Engine.create ())
          (rql_req ~instance ~planner:Request.Plan_cost text)
      in
      check Alcotest.string
        (Printf.sprintf "byte identity on %s" instance)
        (Json.to_string (Request.response_to_json ~stats:false naive))
        (Json.to_string (Request.response_to_json ~stats:false planned)))
    [
      ("paths3", tc_query);
      ( "paths3",
        "fix conn(x, y) = R1(x, y) || exists z. (R1(x, z) && conn(z, y)); \
         sentence forall x. forall y. (R1(x, y) -> conn(y, x))" );
      ( "triangles",
        "let dead(x) = exists y. R1(x, y); \
         let e(x, y) = R1(x, y) || R1(y, x); \
         query {(x, y) | e(x, y)} cutoff 3" );
      ("mod2", "tree 2");
      ("arrows", "query {(x) | exists y. R1(x, y) && !R1(y, x)} cutoff 3");
    ]

let test_planner_asks_fewer_questions () =
  (* Dead fixpoint + naive re-evaluation make the naive ledger strictly
     larger on fresh, unshared engines. *)
  let text =
    "fix dead(x, y) = R1(x, y) || exists z. (R1(x, z) && dead(z, y)); \
     fix conn(x, y) = R1(x, y) || exists z. (R1(x, z) && conn(z, y)); \
     query {(x, y) | conn(x, y)} cutoff 3"
  in
  let run planner =
    let e = Engine.create () in
    let r = Engine.handle e (rql_req ~planner text) in
    ignore (expect_ok "fewer-questions" r);
    Engine.question_count e
  in
  let naive = run Request.Plan_naive in
  let planned = run Request.Plan_cost in
  Alcotest.(check bool)
    (Printf.sprintf "planned (%d) < naive (%d)" planned naive)
    true (planned < naive)

(* The single-use inline decision, the one place the cost model steers
   the ledger: a definition used under a quantifier is inlined when its
   body is cheap and kept (materialized once) when re-evaluating it per
   binding would cost more.  Fresh engines, cutoff 4. *)
let bytes_and_questions ~instance text =
  let e = Engine.create () in
  let r = Engine.handle e (rql_req ~instance text) in
  ignore (expect_ok text r);
  ( Json.to_string (Request.response_to_json ~stats:false r),
    Engine.question_count e )

let test_inline_refused () =
  let text =
    "let l(x) = exists y. exists z. R1(x,y) && R1(y,z) && R1(z,x); \
     query {(a,b) | exists w. (R1(a,w) && l(w) && R1(w,b))}"
  in
  let written_out =
    "query {(a,b) | exists w. (R1(a,w) && (exists y. exists z. R1(w,y) && \
     R1(y,z) && R1(z,w)) && R1(w,b))}"
  in
  check Alcotest.int "the planner keeps l" 1
    (defs_count ~mode:Rql_plan.Planned text);
  let kept, kept_q = bytes_and_questions ~instance:"paths3" text in
  let inlined, inlined_q = bytes_and_questions ~instance:"paths3" written_out in
  check Alcotest.string "same bytes as l written out in place" inlined kept;
  Alcotest.(check bool)
    (Printf.sprintf "keeping l asks fewer questions (%d < %d)" kept_q
       inlined_q)
    true (kept_q < inlined_q)

let test_inline_taken () =
  let text =
    "let e(x,y) = R1(x,y) || R1(y,x); query {(a,b,c) | e(a,b) && R1(b,c)}"
  in
  (* the same query with [e] used twice (the conjunct is idempotent): a
     definition used twice is never inlined, so this plan materializes
     [e] and is otherwise the same *)
  let materialized =
    "let e(x,y) = R1(x,y) || R1(y,x); \
     query {(a,b,c) | e(a,b) && R1(b,c) && e(a,b)}"
  in
  check Alcotest.int "the planner inlines e" 0
    (defs_count ~mode:Rql_plan.Planned text);
  check Alcotest.int "and keeps it when used twice" 1
    (defs_count ~mode:Rql_plan.Planned materialized);
  let inlined, inlined_q = bytes_and_questions ~instance:"arrows" text in
  let kept, kept_q = bytes_and_questions ~instance:"arrows" materialized in
  check Alcotest.string "same bytes as e materialized" kept inlined;
  Alcotest.(check bool)
    (Printf.sprintf "inlining e asks fewer questions (%d < %d)" inlined_q
       kept_q)
    true (inlined_q < kept_q)

let test_rql_errors () =
  let e = Engine.create () in
  let expect name req pred =
    match (Engine.handle e req).result with
    | Ok _ -> Alcotest.failf "%s: expected an error" name
    | Error err ->
        if not (pred err) then
          Alcotest.failf "%s: wrong error %s" name
            (Request.error_to_string err)
  in
  expect "syntax error"
    (rql_req "sentence exists x. R1(x")
    (function Request.Parse_error _ -> true | _ -> false);
  expect "compile error is a parse error on the wire"
    (rql_req "sentence exists x. q(x)")
    (function Request.Parse_error _ -> true | _ -> false);
  expect "unknown instance"
    (rql_req ~instance:"nope" "sentence true")
    (function Request.Unknown_instance _ -> true | _ -> false);
  expect "cutoff out of range"
    (rql_req ~cutoff:99 "sentence true")
    (function Request.Bad_request _ -> true | _ -> false);
  expect "relation the instance lacks"
    (rql_req "sentence exists x. exists y. R9(x, y)")
    (function
      | Request.Ill_formed m -> contains ~needle:"R9" m
      | _ -> false)

(* -------------------------------------------------------------------- *)
(* Plan cache (satellite: normalization-keyed sharing)                   *)

let plans_stats e =
  match Engine.shared_stats e with
  | Some s -> s.Shared_memo.plans
  | None -> Alcotest.fail "expected a shared memo layer"

let test_plan_cache_normalization () =
  let shared = Shared_memo.create () in
  let e = Engine.create ~shared () in
  let text_a = tc_query in
  (* Same query, different whitespace and bound names. *)
  let text_b =
    "fix reach(u,v)=R1(u,v)||exists w.(R1(u,w)&&reach(w,v));\n\
     query {(u,v) | reach(u,v) && !R1(u,v)} cutoff 3"
  in
  let s0 = plans_stats e in
  let ra = Engine.handle e (rql_req ~id:1 text_a) in
  ignore (expect_ok "first text" ra);
  let s1 = plans_stats e in
  check Alcotest.int "cold text: one plan miss" 1
    (s1.Shared_memo.misses - s0.Shared_memo.misses);
  check Alcotest.int "cold text: no hits" 0
    (s1.Shared_memo.hits - s0.Shared_memo.hits);

  let q_before = Engine.question_count e in
  let rb = Engine.handle e (rql_req ~id:1 text_b) in
  ignore (expect_ok "variant text" rb);
  let s2 = plans_stats e in
  check Alcotest.int "variant: no plan miss" 0
    (s2.Shared_memo.misses - s1.Shared_memo.misses);
  check Alcotest.int "variant: one normalized hit" 1
    (s2.Shared_memo.hits - s1.Shared_memo.hits);
  check Alcotest.string "variant is byte-identical"
    (Json.to_string (Request.response_to_json ~stats:false ra))
    (Json.to_string (Request.response_to_json ~stats:false rb));
  check Alcotest.int "variant asks no new genuine questions" 0
    (Engine.question_count e - q_before);

  (* Same text, different cutoff: the whole-request memo misses but the
     plan entry hits. *)
  let rc = Engine.handle e (rql_req ~id:1 ~cutoff:2 text_a) in
  ignore (expect_ok "same text, new cutoff" rc);
  let s3 = plans_stats e in
  check Alcotest.int "repeat text: no new plan misses" 0
    (s3.Shared_memo.misses - s2.Shared_memo.misses);
  check Alcotest.int "repeat text: one hit" 1
    (s3.Shared_memo.hits - s2.Shared_memo.hits);

  (* The planner mode is part of the key: a naive plan is planned once
     of its own and never answers for the cost-based one. *)
  ignore
    (expect_ok "naive planner"
       (Engine.handle e (rql_req ~id:1 ~planner:Request.Plan_naive text_b)));
  let s4 = plans_stats e in
  check Alcotest.int "other mode: one plan miss" 1
    (s4.Shared_memo.misses - s3.Shared_memo.misses);
  check Alcotest.int "other mode: no hit" 0
    (s4.Shared_memo.hits - s3.Shared_memo.hits)

let test_plan_cache_never_caches_errors_as_success () =
  let shared = Shared_memo.create () in
  let e = Engine.create ~shared () in
  let expect_parse_error r =
    match (r : Request.response).result with
    | Error (Request.Parse_error _) -> ()
    | Ok _ -> Alcotest.fail "a cached error must stay an error"
    | Error err ->
        Alcotest.failf "wrong error %s" (Request.error_to_string err)
  in
  (* A different cutoff bypasses the whole-request memo, so each second
     serve goes back to planning. *)
  let twice text =
    let s0 = plans_stats e in
    expect_parse_error (Engine.handle e (rql_req ~cutoff:3 text));
    let s1 = plans_stats e in
    expect_parse_error (Engine.handle e (rql_req ~cutoff:4 text));
    let s2 = plans_stats e in
    ( s1.Shared_memo.misses - s0.Shared_memo.misses,
      s2.Shared_memo.hits - s1.Shared_memo.hits )
  in
  let misses, hits = twice "sentence exists x. R1(x" in
  check Alcotest.int "a parse error never reaches the plan cache" 0 misses;
  check Alcotest.int "so its second serve parses again" 0 hits;
  let misses, hits = twice "sentence exists x. q(x)" in
  check Alcotest.int "a compile error is cached, as an error" 1 misses;
  check Alcotest.int "its second serve hits the cached error" 1 hits

let test_shared_def_memo () =
  (* Two different queries over the same fixpoint share its
     materialization through the rql_defs table. *)
  let shared = Shared_memo.create () in
  let e = Engine.create ~shared () in
  let q1 =
    "fix conn(x, y) = R1(x, y) || exists z. (R1(x, z) && conn(z, y)); \
     sentence exists x. exists y. conn(x, y)"
  in
  let q2 =
    "fix conn(x, y) = R1(x, y) || exists z. (R1(x, z) && conn(z, y)); \
     sentence forall x. forall y. (R1(x, y) -> conn(x, y))"
  in
  ignore (expect_ok "q1" (Engine.handle e (rql_req ~id:1 q1)));
  let stats1 =
    match Engine.shared_stats e with Some s -> s | None -> assert false
  in
  check Alcotest.int "first query materializes the def" 1
    stats1.Shared_memo.rql_defs.Shared_memo.misses;
  ignore (expect_ok "q2" (Engine.handle e (rql_req ~id:2 q2)));
  let stats2 =
    match Engine.shared_stats e with Some s -> s | None -> assert false
  in
  check Alcotest.int "second query reuses it" 1
    stats2.Shared_memo.rql_defs.Shared_memo.hits;
  check Alcotest.int "no second materialization" 1
    stats2.Shared_memo.rql_defs.Shared_memo.misses

(* -------------------------------------------------------------------- *)
(* Wire format                                                           *)

let test_rql_wire_roundtrip () =
  let line =
    {|{"id":6,"op":"rql","instance":"paths3","text":"sentence true","cutoff":4,"planner":"naive"}|}
  in
  match Request.of_line line with
  | Ok r ->
      (match r.Request.payload with
      | Request.Rql { planner = Request.Plan_naive; cutoff = 4; _ } -> ()
      | _ -> Alcotest.fail "unexpected decode");
      let json = Json.to_string (Request.to_json r) in
      (match Request.of_line json with
      | Ok r' ->
          check Alcotest.string "round-trips"
            (Json.to_string (Request.to_json r))
            (Json.to_string (Request.to_json r'))
      | Error e -> Alcotest.failf "re-decode: %s" (Request.error_to_string e))
  | Error e -> Alcotest.failf "decode: %s" (Request.error_to_string e)

(* -------------------------------------------------------------------- *)

let () =
  Alcotest.run "rql"
    [
      ( "parser",
        [
          Alcotest.test_case "source round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "error positions" `Quick test_parse_error_position;
          Alcotest.test_case "comments and whitespace" `Quick
            test_comments_and_whitespace;
        ] );
      ( "normalize",
        [
          Alcotest.test_case "whitespace/alpha-insensitive" `Quick
            test_normalize_insensitive;
          Alcotest.test_case "definition names positional" `Quick
            test_normalize_def_names;
        ] );
      ( "compile",
        [
          Alcotest.test_case "diagnostics" `Quick test_compile_errors;
          Alcotest.test_case "double negation is positive" `Quick
            test_positive_through_double_negation;
          Alcotest.test_case "dead-code elimination" `Quick
            test_dead_code_elimination;
          Alcotest.test_case "common-fixpoint unification" `Quick
            test_common_fixpoint_unification;
          Alcotest.test_case "estimates and describe" `Quick
            test_estimates_and_describe;
        ] );
      ( "engine",
        [
          Alcotest.test_case "transitive closure" `Quick
            test_transitive_closure;
          Alcotest.test_case "matches plain query op" `Quick
            test_rql_matches_plain_query;
          Alcotest.test_case "matches plain tree op" `Quick
            test_rql_matches_plain_tree;
          Alcotest.test_case "planners byte-identical" `Quick
            test_planners_byte_identical;
          Alcotest.test_case "costly definition kept" `Quick
            test_inline_refused;
          Alcotest.test_case "cheap definition inlined" `Quick
            test_inline_taken;
          Alcotest.test_case "planner asks fewer questions" `Quick
            test_planner_asks_fewer_questions;
          Alcotest.test_case "typed errors" `Quick test_rql_errors;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "normalization-keyed sharing" `Quick
            test_plan_cache_normalization;
          Alcotest.test_case "errors never cached as success" `Quick
            test_plan_cache_never_caches_errors_as_success;
          Alcotest.test_case "shared definition memo" `Quick
            test_shared_def_memo;
        ] );
      ( "wire",
        [
          Alcotest.test_case "rql op round-trips" `Quick
            test_rql_wire_roundtrip;
        ] );
    ]
