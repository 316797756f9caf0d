open Prelude

let t = Tuple.of_list
let check = Alcotest.check

let assert_valid ?(max_rank = 2) ?(window = 6) inst =
  match Hs.Hsdb.validate ~max_rank ~window inst with
  | [] -> ()
  | issues -> Alcotest.fail (String.concat "\n" issues)

(* -------------------------------------------------------------------- *)
(* Instance representations are consistent                              *)

let test_validate_clique () = assert_valid (Hs.Hsinstances.infinite_clique ())
let test_validate_empty () = assert_valid (Hs.Hsinstances.empty_graph ())
let test_validate_mod2 () = assert_valid (Hs.Hsinstances.mod_cliques 2)
let test_validate_mod3 () = assert_valid (Hs.Hsinstances.mod_cliques 3)
let test_validate_triangles () = assert_valid (Hs.Hsinstances.triangles ())
let test_validate_rado () = assert_valid ~window:5 (Hs.Hsinstances.rado ())

let test_validate_unary () =
  assert_valid (Hs.Hsinstances.unary_finite_set ~members:[ 0; 1; 2 ])

let test_validate_directed_edges () =
  assert_valid
    (Hs.Hsinstances.disjoint_copies [ Hs.Hsinstances.directed_edge_component ])

let test_validate_mixed_components () =
  assert_valid
    (Hs.Hsinstances.disjoint_copies
       [
         Hs.Hsinstances.triangle_component;
         Hs.Hsinstances.undirected_path_component 3;
       ])

(* -------------------------------------------------------------------- *)
(* Class counts                                                         *)

let test_clique_class_counts () =
  let c = Hs.Hsinstances.infinite_clique () in
  (* Tuples in the clique are classified by equality pattern alone, so
     |T^n| is the Bell number B(n). *)
  List.iter
    (fun n ->
      check Alcotest.int
        (Printf.sprintf "clique T^%d" n)
        (Combinat.bell n)
        (Hs.Hsdb.class_count c n))
    [ 0; 1; 2; 3; 4 ]

let test_unary_class_counts () =
  let u = Hs.Hsinstances.unary_finite_set ~members:[ 0; 1; 2 ] in
  check Alcotest.int "unary T^1" 2 (Hs.Hsdb.class_count u 1);
  check Alcotest.int "unary T^2" 6 (Hs.Hsdb.class_count u 2)

let test_mod_class_counts () =
  let m2 = Hs.Hsinstances.mod_cliques 2 in
  check Alcotest.int "mod2 T^1" 1 (Hs.Hsdb.class_count m2 1);
  check Alcotest.int "mod2 T^2" 3 (Hs.Hsdb.class_count m2 2)

let test_directed_edge_classes () =
  let d =
    Hs.Hsinstances.disjoint_copies [ Hs.Hsinstances.directed_edge_component ]
  in
  (* Sources and targets are non-equivalent: two rank-1 classes. *)
  check Alcotest.int "arrow T^1" 2 (Hs.Hsdb.class_count d 1)

(* -------------------------------------------------------------------- *)
(* Representation operations                                            *)

let test_representative () =
  let c = Hs.Hsinstances.infinite_clique () in
  let rep = Hs.Hsdb.representative c (t [ 7; 7; 9 ]) in
  check Test_support.tuple_testable "canonical pattern" (t [ 0; 0; 1 ]) rep

let test_rel_mem_matches_db () =
  let tri = Hs.Hsinstances.triangles () in
  List.iter
    (fun (x, y) ->
      check Alcotest.bool
        (Printf.sprintf "edge (%d,%d)" x y)
        (Rdb.Database.mem (Hs.Hsdb.db tri) 0 (t [ x; y ]))
        (Hs.Hsdb.rel_mem tri 0 (t [ x; y ])))
    [ (0, 1); (0, 2); (2, 3); (3, 4); (4, 4); (5, 3) ]

let test_reps_are_paths () =
  let r = Hs.Hsinstances.rado () in
  let c1 = Hs.Hsdb.reps r 0 in
  Alcotest.(check bool) "C1 nonempty" true (not (Tupleset.is_empty c1));
  Tupleset.iter
    (fun p ->
      Alcotest.(check bool) "rep is a path" true (Hs.Hsdb.is_path r p);
      Alcotest.(check bool) "rep is in R" true
        (Rdb.Database.mem (Hs.Hsdb.db r) 0 p))
    c1

let test_stretch_clique () =
  let c = Hs.Hsinstances.infinite_clique () in
  let s = Hs.Hsdb.stretch c ~by:(t [ 0 ]) in
  (* After marking one clique element: equal-to-it or not. *)
  check Alcotest.int "stretched rank 1" 2 (Hs.Hsdb.class_count s 1);
  check Alcotest.int "stretched type width" 2
    (Array.length (Hs.Hsdb.db_type s));
  assert_valid ~max_rank:1 s

let test_stretch_invalid () =
  let c = Hs.Hsinstances.infinite_clique () in
  Alcotest.check_raises "not a path"
    (Invalid_argument "Hsdb.stretch: not a tree path") (fun () ->
      ignore (Hs.Hsdb.stretch c ~by:(t [ 5 ])))

let test_line_not_hs_via_stretching () =
  (* Proposition 3.1 flavour: stretching the line by one point leaves
     unboundedly many rank-1 classes (distance to the marked point). *)
  let stretched_equiv x y =
    Hs.Hsinstances.line_equiv (t [ 0; x ]) (t [ 0; y ])
  in
  let representatives =
    List.fold_left
      (fun reps x ->
        if List.exists (fun y -> stretched_equiv x y) reps then reps
        else x :: reps)
      []
      (Ints.range 0 12)
  in
  Alcotest.(check bool) "at least 6 classes among 12 nodes" true
    (List.length representatives >= 6)

let test_less_than_equiv_trivial () =
  Alcotest.(check bool) "reflexive" true
    (Hs.Hsinstances.less_than_equiv (t [ 1; 2 ]) (t [ 1; 2 ]));
  Alcotest.(check bool) "only identity" false
    (Hs.Hsinstances.less_than_equiv (t [ 1; 2 ]) (t [ 2; 3 ]))


(* -------------------------------------------------------------------- *)
(* Extended instances: coloured random structure, bipartite, lines      *)

let test_random_colored_valid () =
  assert_valid ~max_rank:2 ~window:5 (Hs.Hsinstances.random_colored_graph ())

let test_random_colored_counts () =
  let rc = Hs.Hsinstances.random_colored_graph () in
  (* Rank 1: two colours.  Rank 2: 2 (equal pair) + 2·2·2 (colours ×
     edge/non-edge) = 10. *)
  check Alcotest.int "T^1" 2 (Hs.Hsdb.class_count rc 1);
  check Alcotest.int "T^2" 10 (Hs.Hsdb.class_count rc 2);
  (* Equivalence is local isomorphism (Prop 3.2 for type (1,2)). *)
  let db = Hs.Hsdb.db rc in
  List.iter
    (fun (u, v) ->
      check Alcotest.bool
        (Printf.sprintf "%s ~ %s" (Tuple.to_string u) (Tuple.to_string v))
        (Localiso.Liso.check_same db u v)
        (Hs.Hsdb.equiv rc u v))
    [
      (t [ 0; 2 ], t [ 4; 6 ]);
      (t [ 1; 3 ], t [ 0; 2 ]);
      (t [ 0; 1 ], t [ 2; 3 ]);
    ]

let test_bipartite_matches_mod2_tree () =
  let bp = Hs.Hsinstances.complete_bipartite () in
  let m2 = Hs.Hsinstances.mod_cliques 2 in
  assert_valid ~max_rank:2 bp;
  List.iter
    (fun n ->
      check Alcotest.int
        (Printf.sprintf "same class count at rank %d" n)
        (Hs.Hsdb.class_count m2 n)
        (Hs.Hsdb.class_count bp n))
    [ 1; 2; 3 ];
  (* Same automorphism structure, complementary edges: edges exist in
     both, so two rounds do not separate them; a triangle (possible in
     mod2's cliques, impossible bipartitely) does at round 3. *)
  check (Alcotest.option Alcotest.int) "bp vs mod2" (Some 3)
    (Hs.Elem.distinguishing_round bp m2);
  (* Odd cycles are impossible in a bipartite graph. *)
  let triangle =
    Rlogic.Parser.formula
      "exists a. exists b. exists c. R1(a, b) && R1(b, c) && R1(a, c)"
  in
  Alcotest.(check bool) "no triangle in bipartite" false
    (Hs.Fo_eval.eval_sentence bp triangle);
  Alcotest.(check bool) "triangle in mod2 cliques" true
    (Hs.Fo_eval.eval_sentence m2 triangle)

let test_lines_strategy () =
  let one = { Hs.Lines.nlines = 1 } and two = { Hs.Lines.nlines = 2 } in
  (* Elementarily equivalent at every tested quantifier rank... *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "duplicator survives %d rounds" r)
        true
        (Hs.Lines.strategy_wins ~a:one ~b:two ~r))
    [ 0; 1; 2; 3 ];
  (* ... yet not isomorphic: the Corollary 3.1 contrast for non-hs
     structures. *)
  Alcotest.(check bool) "not isomorphic" false (Hs.Lines.isomorphic one two);
  Alcotest.(check bool) "self pair isomorphic" true
    (Hs.Lines.isomorphic two two)

let test_lines_rdb_and_equiv () =
  let two = { Hs.Lines.nlines = 2 } in
  let db = Hs.Lines.to_rdb two in
  let p l pos = Hs.Lines.encode two { Hs.Lines.line = l; pos } in
  (* encode/decode round trip *)
  List.iter
    (fun (l, pos) ->
      let pt = { Hs.Lines.line = l; pos } in
      Alcotest.(check bool) "roundtrip" true
        (Hs.Lines.decode two (Hs.Lines.encode two pt) = pt))
    [ (0, 0); (1, 0); (0, -3); (1, 5); (0, 7); (1, -8) ];
  (* adjacency through the coding *)
  Alcotest.(check bool) "adjacent on a line" true
    (Rdb.Database.mem db 0 (t [ p 0 0; p 0 1 ]));
  Alcotest.(check bool) "not adjacent across lines" false
    (Rdb.Database.mem db 0 (t [ p 0 0; p 1 1 ]));
  Alcotest.(check bool) "not adjacent at distance 2" false
    (Rdb.Database.mem db 0 (t [ p 0 0; p 0 2 ]));
  (* equivalence: translations, reflections, line swaps *)
  Alcotest.(check bool) "translation" true
    (Hs.Lines.equiv two (t [ p 0 0; p 0 2 ]) (t [ p 0 5; p 0 7 ]));
  Alcotest.(check bool) "reflection" true
    (Hs.Lines.equiv two (t [ p 0 0; p 0 2 ]) (t [ p 0 5; p 0 3 ]));
  Alcotest.(check bool) "line swap" true
    (Hs.Lines.equiv two (t [ p 0 0; p 0 1 ]) (t [ p 1 4; p 1 5 ]));
  Alcotest.(check bool) "distances differ" false
    (Hs.Lines.equiv two (t [ p 0 0; p 0 2 ]) (t [ p 0 0; p 0 3 ]));
  Alcotest.(check bool) "same vs different lines" false
    (Hs.Lines.equiv two (t [ p 0 0; p 0 2 ]) (t [ p 0 0; p 1 2 ]))

let test_lines_equiv_refines_liso () =
  let two = { Hs.Lines.nlines = 2 } in
  let db = Hs.Lines.to_rdb two in
  let rng = Ints.Rng.make 7 in
  for _ = 1 to 200 do
    let u = Array.init 2 (fun _ -> Ints.Rng.int rng 12) in
    let v = Array.init 2 (fun _ -> Ints.Rng.int rng 12) in
    if Hs.Lines.equiv two u v then
      Alcotest.(check bool) "equiv implies local iso" true
        (Localiso.Liso.check_same db u v)
  done

(* -------------------------------------------------------------------- *)
(* EF machinery                                                         *)

let test_vnr_vs_direct_game () =
  List.iter
    (fun inst ->
      let name = Hs.Hsdb.name inst in
      List.iter
        (fun (n, r) ->
          let p = Hs.Ef.vnr inst ~n ~r in
          let lookup u =
            let rec find i =
              if Tuple.equal p.Hs.Ef.items.(i) u then p.Hs.Ef.cls.(i)
              else find (i + 1)
            in
            find 0
          in
          let paths = Hs.Hsdb.paths inst n in
          List.iter
            (fun u ->
              List.iter
                (fun v ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s n=%d r=%d %s~%s" name n r
                       (Tuple.to_string u) (Tuple.to_string v))
                    (Hs.Ef.equiv_r inst ~r u v)
                    (lookup u = lookup v))
                paths)
            paths)
        [ (1, 1); (2, 1) ])
    [
      Hs.Hsinstances.mod_cliques 2;
      Hs.Hsinstances.triangles ();
      Hs.Hsinstances.disjoint_copies
        [ Hs.Hsinstances.undirected_path_component 3 ];
    ]

let test_down_identity () =
  (* Proposition 3.7: V^{n+1}_r ↓ = V^n_{r+1}. *)
  List.iter
    (fun inst ->
      List.iter
        (fun (n, r) ->
          let lhs = Hs.Ef.down inst ~n (Hs.Ef.vnr inst ~n:(n + 1) ~r) in
          let rhs = Hs.Ef.vnr inst ~n ~r:(r + 1) in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d r=%d" (Hs.Hsdb.name inst) n r)
            true
            (Hs.Ef.same_partition lhs rhs))
        [ (1, 0); (1, 1); (2, 0) ])
    [ Hs.Hsinstances.mod_cliques 2; Hs.Hsinstances.triangles () ]

let test_r0_values () =
  (* The clique's classes are already separated by diagrams. *)
  check Alcotest.int "clique r0" 0
    (Hs.Ef.r0 (Hs.Hsinstances.infinite_clique ()) ~n:2);
  (* On copies of the 3-path, some rank-2 pairs (e.g. (middle, end')
     vs (end, middle')) share a diagram and even share extension
     diagrams; only two rounds expose the degree difference. *)
  let p3 =
    Hs.Hsinstances.disjoint_copies
      [ Hs.Hsinstances.undirected_path_component 3 ]
  in
  check Alcotest.int "path3 rank-2 r0" 2 (Hs.Ef.r0 p3 ~n:2);
  Alcotest.(check bool) "path3 needs at least one refinement" true
    (not (Hs.Ef.all_singletons (Hs.Ef.v0 p3 ~n:2)))

let test_v0_matches_diagram_partition () =
  let tri = Hs.Hsinstances.triangles () in
  let p = Hs.Ef.v0 tri ~n:2 in
  Alcotest.(check bool) "not all singletons before refinement" true
    (p.Hs.Ef.nclasses <= Array.length p.Hs.Ef.items)

let test_coding_tuple_clique () =
  let c = Hs.Hsinstances.infinite_clique () in
  let d = Hs.Ef.find_coding_tuple c in
  Alcotest.(check bool) "covers" true (Hs.Ef.projections_cover c d);
  check Alcotest.int "clique coding tuple has rank 2" 2 (Tuple.rank d)

let test_coding_tuple_triangles () =
  let tri = Hs.Hsinstances.triangles () in
  let d = Hs.Ef.find_coding_tuple tri in
  Alcotest.(check bool) "covers" true (Hs.Ef.projections_cover tri d)

(* -------------------------------------------------------------------- *)
(* FO evaluation over representatives                                   *)

let sentence s = Rlogic.Parser.formula s

let test_sentences_on_instances () =
  let clique = Hs.Hsinstances.infinite_clique () in
  let empty = Hs.Hsinstances.empty_graph () in
  let tri = Hs.Hsinstances.triangles () in
  let complete = sentence "forall x. forall y. x != y -> R1(x, y)" in
  let has_edge = sentence "exists x. exists y. x != y && R1(x, y)" in
  let has_k4 =
    sentence
      "exists a. exists b. exists c. exists d. a != b && a != c && a != d && \
       b != c && b != d && c != d && R1(a, b) && R1(a, c) && R1(a, d) && \
       R1(b, c) && R1(b, d) && R1(c, d)"
  in
  Alcotest.(check bool) "clique is complete" true
    (Hs.Fo_eval.eval_sentence clique complete);
  Alcotest.(check bool) "empty is not complete" false
    (Hs.Fo_eval.eval_sentence empty complete);
  Alcotest.(check bool) "triangles not complete" false
    (Hs.Fo_eval.eval_sentence tri complete);
  Alcotest.(check bool) "clique has an edge" true
    (Hs.Fo_eval.eval_sentence clique has_edge);
  Alcotest.(check bool) "empty has no edge" false
    (Hs.Fo_eval.eval_sentence empty has_edge);
  Alcotest.(check bool) "triangles have an edge" true
    (Hs.Fo_eval.eval_sentence tri has_edge);
  Alcotest.(check bool) "clique has K4" true
    (Hs.Fo_eval.eval_sentence clique has_k4);
  Alcotest.(check bool) "triangles have no K4" false
    (Hs.Fo_eval.eval_sentence tri has_k4)

let test_rado_extension_sentence () =
  let rado = Hs.Hsinstances.rado () in
  (* Any two distinct points have a common neighbour — a 2-extension
     consequence. *)
  let s =
    sentence
      "forall x. forall y. x != y -> (exists z. z != x && z != y && R1(z, x) \
       && R1(z, y))"
  in
  Alcotest.(check bool) "common neighbour" true (Hs.Fo_eval.eval_sentence rado s)

let test_mem_arbitrary_tuples () =
  let tri = Hs.Hsinstances.triangles () in
  let q =
    Rlogic.Parser.query
      "{(x, y) | x != y && !R1(x, y) && (exists z. R1(x, z) && R1(y, z))}"
  in
  (* Two non-adjacent vertices with a common neighbour: impossible across
     triangles. *)
  check (Alcotest.option Alcotest.bool) "across triangles" (Some false)
    (Hs.Fo_eval.mem tri q (t [ 0; 3 ]));
  (* Same triangle, distinct vertices are adjacent, so excluded. *)
  check (Alcotest.option Alcotest.bool) "same triangle" (Some false)
    (Hs.Fo_eval.mem tri q (t [ 0; 1 ]));
  let clique = Hs.Hsinstances.infinite_clique () in
  let q2 = Rlogic.Parser.query "{(x, y) | exists z. R1(x, z) && R1(z, y)}" in
  check (Alcotest.option Alcotest.bool) "clique 2-path, equal endpoints"
    (Some true)
    (Hs.Fo_eval.mem clique q2 (t [ 4; 4 ]));
  check (Alcotest.option Alcotest.bool) "clique 2-path" (Some true)
    (Hs.Fo_eval.mem clique q2 (t [ 4; 9 ]))

let test_eval_upto_agrees_with_qf () =
  (* For quantifier-free queries, reps-based evaluation must agree with
     direct L- evaluation on a window. *)
  let insts =
    [
      Hs.Hsinstances.triangles ();
      Hs.Hsinstances.mod_cliques 2;
      Hs.Hsinstances.rado ();
    ]
  in
  let q = Rlogic.Parser.query "{(x, y) | R1(x, y) && x != y}" in
  List.iter
    (fun inst ->
      check Test_support.tupleset_testable
        (Hs.Hsdb.name inst)
        (Rlogic.Qf_eval.eval_upto (Hs.Hsdb.db inst) q ~cutoff:5)
        (Hs.Fo_eval.eval_upto inst q ~cutoff:5))
    insts

let test_eval_reps_form () =
  let tri = Hs.Hsinstances.triangles () in
  let q = Rlogic.Parser.query "{(x, y) | R1(x, y)}" in
  let reps = Hs.Fo_eval.eval_reps tri q ~rank:2 in
  check Test_support.tupleset_testable "edge representatives"
    (Hs.Hsdb.reps tri 0) reps

(* -------------------------------------------------------------------- *)
(* Hintikka formulas and EF games between structures                    *)

let test_hintikka_characterizes_game () =
  let tri = Hs.Hsinstances.triangles () in
  let p3 =
    Hs.Hsinstances.disjoint_copies
      [ Hs.Hsinstances.undirected_path_component 3 ]
  in
  List.iter
    (fun r ->
      let f = Hs.Hintikka.sentence tri ~r in
      Alcotest.(check bool)
        (Printf.sprintf "sentence of depth %d true in its own structure" r)
        true
        (Hs.Fo_eval.eval_sentence tri f);
      Alcotest.(check bool)
        (Printf.sprintf "other structure satisfies it iff duplicator wins %d" r)
        (Hs.Elem.ef_game tri p3 ~r)
        (Hs.Fo_eval.eval_sentence p3 f))
    [ 0; 1; 2 ]

let test_hintikka_formula_on_paths () =
  let tri = Hs.Hsinstances.triangles () in
  let paths = Hs.Hsdb.paths tri 2 in
  let r = 1 in
  List.iter
    (fun u ->
      let f = Hs.Hintikka.formula tri ~path:u ~r in
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "phi^%d_%s at %s" r (Tuple.to_string u)
               (Tuple.to_string v))
            (Hs.Elem.ef_game_from tri u tri v ~r)
            (Hs.Fo_eval.holds tri ~path:v ~vars:[ "x1"; "x2" ] f))
        paths)
    paths

let test_ef_game_distinguishes () =
  let clique = Hs.Hsinstances.infinite_clique () in
  let empty = Hs.Hsinstances.empty_graph () in
  check (Alcotest.option Alcotest.int) "clique vs empty at round 2" (Some 2)
    (Hs.Elem.distinguishing_round clique empty);
  let m2 = Hs.Hsinstances.mod_cliques 2 in
  let m3 = Hs.Hsinstances.mod_cliques 3 in
  check (Alcotest.option Alcotest.int) "mod2 vs mod3 at round 3" (Some 3)
    (Hs.Elem.distinguishing_round m2 m3);
  check (Alcotest.option Alcotest.int) "triangles vs triangles" None
    (Hs.Elem.distinguishing_round ~cap:3 (Hs.Hsinstances.triangles ())
       (Hs.Hsinstances.triangles ()))

let test_separating_sentence () =
  let clique = Hs.Hsinstances.infinite_clique () in
  let empty = Hs.Hsinstances.empty_graph () in
  match Hs.Elem.separating_sentence clique empty with
  | None -> Alcotest.fail "expected a separating sentence"
  | Some s ->
      Alcotest.(check bool) "true in clique" true
        (Hs.Fo_eval.eval_sentence clique s);
      Alcotest.(check bool) "false in empty" false
        (Hs.Fo_eval.eval_sentence empty s)

(* -------------------------------------------------------------------- *)
(* Oracle accounting (Definition 3.9's oracle model)                    *)

let test_oracle_accounting () =
  let tri = Hs.Hsinstances.triangles () in
  Hs.Hsdb.reset_oracle_calls tri;
  let c0, e0 = Hs.Hsdb.oracle_calls tri in
  check Alcotest.int "children calls reset" 0 c0;
  check Alcotest.int "equiv calls reset" 0 e0;
  (* A representative lookup asks finitely many questions of both
     oracles. *)
  ignore (Hs.Hsdb.representative tri (t [ 4; 5 ]));
  let c1, e1 = Hs.Hsdb.oracle_calls tri in
  Alcotest.(check bool) "T_B oracle consulted" true (c1 > 0);
  Alcotest.(check bool) "≅_B oracle consulted" true (e1 > 0);
  (* Children answers are memoized: re-walking the same tree level adds
     no new T_B questions. *)
  ignore (Hs.Hsdb.paths tri 2);
  let c2, _ = Hs.Hsdb.oracle_calls tri in
  ignore (Hs.Hsdb.paths tri 2);
  let c3, _ = Hs.Hsdb.oracle_calls tri in
  check Alcotest.int "memoized" c2 c3

let test_rado_rank4_count () =
  (* |T^4| for the Rado graph = irreflexive symmetric diagrams of rank 4:
     Σ_m S(4,m)·2^C(m,2) = 1 + 7·2 + 6·8 + 1·64 = 127. *)
  let rado = Hs.Hsinstances.rado () in
  check Alcotest.int "rado T^4" 127 (Hs.Hsdb.class_count rado 4)

let qcheck_random_components =
  let open QCheck2 in
  (* Random connected components: a random spanning path plus random
     extra undirected edges. *)
  let gen_component =
    Gen.(
      int_range 2 4 >>= fun size ->
      list_size (int_bound 3) (pair (int_bound (size - 1)) (int_bound (size - 1)))
      >|= fun extra ->
      let path_edges =
        List.concat_map
          (fun i -> [ (i, i + 1); (i + 1, i) ])
          (Ints.range 0 (size - 1))
      in
      let extra_edges =
        List.concat_map
          (fun (x, y) -> if x <> y then [ (x, y); (y, x) ] else [])
          extra
      in
      Hs.Hsinstances.component ~vertices:size ~edges:(path_edges @ extra_edges)
        ())
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:25 ~name:"random component unions validate" gen_component
       (fun comp ->
         let inst = Hs.Hsinstances.disjoint_copies [ comp ] in
         Hs.Hsdb.validate ~max_rank:2 ~window:5 inst = []))

(* -------------------------------------------------------------------- *)
(* The Corollary 3.1 amalgam                                            *)

let test_amalgam_isomorphic_case () =
  let tri1 = Hs.Hsinstances.triangles () in
  let tri2 = Hs.Hsinstances.triangles () in
  let am, a, b =
    Hs.Elem.amalgam ~cross:(Some (Hs.Hsdb.equiv tri1)) tri1 tri2
  in
  (* B1 ≅ B2, so a ≅_B b. *)
  Alcotest.(check bool) "a ~ b" true (Hs.Hsdb.equiv am (t [ a ]) (t [ b ]));
  assert_valid ~max_rank:2 ~window:6 am;
  (* ... and the duplicator survives EF rounds from (a) vs (b). *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "a ≡_%d b" r)
        true
        (Hs.Ef.equiv_r am ~r (t [ a ]) (t [ b ])))
    [ 0; 1; 2 ]

let test_amalgam_non_isomorphic_case () =
  let clique = Hs.Hsinstances.infinite_clique () in
  let empty = Hs.Hsinstances.empty_graph () in
  let am, a, b = Hs.Elem.amalgam clique empty in
  Alcotest.(check bool) "a !~ b" false (Hs.Hsdb.equiv am (t [ a ]) (t [ b ]));
  assert_valid ~max_rank:2 ~window:6 am;
  (* Some finite round separates (a) from (b) — the Prop 3.5 direction
     applied inside the amalgam. *)
  let separated =
    List.exists
      (fun r -> not (Hs.Ef.equiv_r am ~r (t [ a ]) (t [ b ])))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "separated at some round" true separated

let test_amalgam_type_mismatch () =
  Alcotest.check_raises "types differ"
    (Invalid_argument "Elem.amalgam: database types differ") (fun () ->
      ignore
        (Hs.Elem.amalgam
           (Hs.Hsinstances.infinite_clique ())
           (Hs.Hsinstances.unary_finite_set ~members:[ 0 ])))

let test_amalgam_structure () =
  let tri1 = Hs.Hsinstances.triangles () in
  let am, a, b = Hs.Elem.amalgam tri1 (Hs.Hsinstances.infinite_clique ()) in
  let db = Hs.Hsdb.db am in
  (* Type (2, 2): S1 and E. *)
  check (Alcotest.array Alcotest.int) "type" [| 2; 2 |] (Hs.Hsdb.db_type am);
  (* E connects a to left codes, b to right codes. *)
  Alcotest.(check bool) "E(a, left0)" true (Rdb.Database.mem db 1 (t [ a; 2 ]));
  Alcotest.(check bool) "E(b, right0)" true (Rdb.Database.mem db 1 (t [ b; 3 ]));
  Alcotest.(check bool) "no E(a, right0)" false
    (Rdb.Database.mem db 1 (t [ a; 3 ]));
  (* S1 holds within sides only: triangles edge 0-1 is codes 2-4. *)
  Alcotest.(check bool) "left edge" true (Rdb.Database.mem db 0 (t [ 2; 4 ]));
  Alcotest.(check bool) "no cross edge" false
    (Rdb.Database.mem db 0 (t [ 2; 3 ]))

(* -------------------------------------------------------------------- *)
(* Properties                                                           *)

let qcheck_tests =
  let open QCheck2 in
  let tri = Hs.Hsinstances.triangles () in
  let rado = Hs.Hsinstances.rado () in
  let small_tuple = Gen.array_size (Gen.int_range 1 3) (Gen.int_bound 8) in
  Test_support.to_alcotest
    [
      Test.make ~count:100 ~name:"triangles: equiv refines local iso"
        Gen.(pair small_tuple small_tuple)
        (fun (u, v) ->
          (not (Hs.Hsdb.equiv tri u v))
          || Localiso.Liso.check_same (Hs.Hsdb.db tri) u v);
      Test.make ~count:100 ~name:"triangles: representative is equivalent"
        small_tuple
        (fun u ->
          let p = Hs.Hsdb.representative tri u in
          Hs.Hsdb.equiv tri u p && Hs.Hsdb.is_path tri p);
      Test.make ~count:100 ~name:"rado: equiv is exactly local iso (Prop 3.2)"
        Gen.(pair small_tuple small_tuple)
        (fun (u, v) ->
          Hs.Hsdb.equiv rado u v
          = Localiso.Liso.check_same (Hs.Hsdb.db rado) u v);
      Test.make ~count:60 ~name:"triangles: rel_mem matches raw relation"
        Gen.(pair (int_bound 8) (int_bound 8))
        (fun (x, y) ->
          Hs.Hsdb.rel_mem tri 0 [| x; y |]
          = Rdb.Database.mem (Hs.Hsdb.db tri) 0 [| x; y |]);
    ]

let () =
  Alcotest.run "hsdb"
    [
      ( "validate",
        [
          Alcotest.test_case "clique" `Quick test_validate_clique;
          Alcotest.test_case "empty" `Quick test_validate_empty;
          Alcotest.test_case "mod2" `Quick test_validate_mod2;
          Alcotest.test_case "mod3" `Quick test_validate_mod3;
          Alcotest.test_case "triangles" `Quick test_validate_triangles;
          Alcotest.test_case "rado" `Quick test_validate_rado;
          Alcotest.test_case "unary fcf" `Quick test_validate_unary;
          Alcotest.test_case "directed edges" `Quick
            test_validate_directed_edges;
          Alcotest.test_case "mixed components" `Quick
            test_validate_mixed_components;
        ] );
      ( "counts",
        [
          Alcotest.test_case "clique = Bell" `Quick test_clique_class_counts;
          Alcotest.test_case "unary" `Quick test_unary_class_counts;
          Alcotest.test_case "mod cliques" `Quick test_mod_class_counts;
          Alcotest.test_case "directed edge" `Quick test_directed_edge_classes;
        ] );
      ( "representation",
        [
          Alcotest.test_case "representative" `Quick test_representative;
          Alcotest.test_case "rel_mem" `Quick test_rel_mem_matches_db;
          Alcotest.test_case "reps are paths" `Quick test_reps_are_paths;
          Alcotest.test_case "stretch clique" `Quick test_stretch_clique;
          Alcotest.test_case "stretch invalid" `Quick test_stretch_invalid;
          Alcotest.test_case "line not hs (Prop 3.1)" `Quick
            test_line_not_hs_via_stretching;
          Alcotest.test_case "less-than equiv trivial" `Quick
            test_less_than_equiv_trivial;
        ] );
      ( "extended-instances",
        [
          Alcotest.test_case "random colored valid" `Quick
            test_random_colored_valid;
          Alcotest.test_case "random colored counts" `Quick
            test_random_colored_counts;
          Alcotest.test_case "bipartite vs mod2" `Quick
            test_bipartite_matches_mod2_tree;
          Alcotest.test_case "lines: EF strategy (Cor 3.1 contrast)" `Quick
            test_lines_strategy;
          Alcotest.test_case "lines: rdb and equivalence" `Quick
            test_lines_rdb_and_equiv;
          Alcotest.test_case "lines: equiv refines liso" `Quick
            test_lines_equiv_refines_liso;
        ] );
      ( "ef",
        [
          Alcotest.test_case "vnr vs direct game" `Slow test_vnr_vs_direct_game;
          Alcotest.test_case "down identity (Prop 3.7)" `Quick
            test_down_identity;
          Alcotest.test_case "r0 values" `Quick test_r0_values;
          Alcotest.test_case "v0 sanity" `Quick
            test_v0_matches_diagram_partition;
          Alcotest.test_case "coding tuple (clique)" `Quick
            test_coding_tuple_clique;
          Alcotest.test_case "coding tuple (triangles)" `Quick
            test_coding_tuple_triangles;
        ] );
      ( "fo_eval",
        [
          Alcotest.test_case "sentences" `Quick test_sentences_on_instances;
          Alcotest.test_case "rado extension sentence" `Quick
            test_rado_extension_sentence;
          Alcotest.test_case "membership" `Quick test_mem_arbitrary_tuples;
          Alcotest.test_case "eval_upto vs qf" `Quick
            test_eval_upto_agrees_with_qf;
          Alcotest.test_case "eval reps form" `Quick test_eval_reps_form;
        ] );
      ( "elem",
        [
          Alcotest.test_case "hintikka sentences" `Quick
            test_hintikka_characterizes_game;
          Alcotest.test_case "hintikka formulas" `Quick
            test_hintikka_formula_on_paths;
          Alcotest.test_case "distinguishing rounds" `Quick
            test_ef_game_distinguishes;
          Alcotest.test_case "separating sentence" `Quick
            test_separating_sentence;
        ] );
      ( "oracle-accounting",
        [
          Alcotest.test_case "counting and memoization" `Quick
            test_oracle_accounting;
          Alcotest.test_case "rado rank 4 = 127 classes" `Slow
            test_rado_rank4_count;
          qcheck_random_components;
        ] );
      ( "amalgam",
        [
          Alcotest.test_case "isomorphic case" `Quick
            test_amalgam_isomorphic_case;
          Alcotest.test_case "non-isomorphic case" `Quick
            test_amalgam_non_isomorphic_case;
          Alcotest.test_case "type mismatch" `Quick test_amalgam_type_mismatch;
          Alcotest.test_case "structure" `Quick test_amalgam_structure;
        ] );
      ("properties", qcheck_tests);
    ]
