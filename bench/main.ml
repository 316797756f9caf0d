(* The experiment harness.

   The paper has no numbered tables or figures (it is pure theory), so —
   per DESIGN.md — every theorem, proposition, worked example and proof
   construction becomes an experiment E1–E18, each regenerating the
   "row" the paper's text asserts.  This executable prints all the
   experiment tables and then times the core algorithms with Bechamel.

     dune exec bench/main.exe              -- tables + timings
     dune exec bench/main.exe -- tables    -- tables only
     dune exec bench/main.exe -- bench     -- timings only *)

open Prelude

let section id title =
  Format.printf "@.=== %s — %s ===@." id title

let row fmt = Format.printf fmt

(* ------------------------------------------------------------------ *)
(* E1: Proposition 2.2 — local isomorphism is decidable               *)

let e1 () =
  section "E1" "Prop 2.2: the local isomorphism test";
  let db_type = [| 2; 1 |] in
  let rng = Ints.Rng.make 17 in
  let random_db () =
    let rel arity =
      let tuples = ref Tupleset.empty in
      for _ = 1 to 5 do
        tuples :=
          Tupleset.add
            (Array.init arity (fun _ -> Ints.Rng.int rng 4))
            !tuples
      done;
      Rdb.Relation.of_tupleset ~arity !tuples
    in
    Rdb.Database.make [| rel 2; rel 1 |]
  in
  let trials = 300 in
  let agree = ref 0 in
  for _ = 1 to trials do
    let b1 = random_db () and b2 = random_db () in
    let u = Array.init 2 (fun _ -> Ints.Rng.int rng 4) in
    let v = Array.init 2 (fun _ -> Ints.Rng.int rng 4) in
    if
      Localiso.Liso.check b1 u b2 v
      = Localiso.Liso.check_bruteforce b1 u b2 v
    then incr agree
  done;
  row "  three-part test vs brute force: %d/%d agree@." !agree trials;
  row "  oracle cost per side (Σᵢ nᵃⁱ):@.";
  List.iter
    (fun n ->
      let predicted = Localiso.Liso.oracle_cost ~db_type ~rank:n in
      let b = random_db () in
      Rdb.Database.reset_oracle_calls b;
      let u = Array.init n (fun i -> i) in
      ignore (Localiso.Liso.check_same b u u);
      row "    rank %d: predicted %4d per side, measured %4d total@." n
        predicted
        (Rdb.Database.oracle_calls b))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E2: the §2 worked example — counting the classes of ≅ₗ             *)

let e2 () =
  section "E2" "§2 example: |C^n| (closed form vs enumeration)";
  row "  %-12s %4s %10s %10s@." "type" "rank" "formula" "enumerated";
  List.iter
    (fun (db_type, rank) ->
      let typ =
        "("
        ^ String.concat ","
            (List.map string_of_int (Array.to_list db_type))
        ^ ")"
      in
      row "  %-12s %4d %10d %10d%s@." typ rank
        (Localiso.Diagram.count ~db_type ~rank)
        (List.length (Localiso.Diagram.enumerate ~db_type ~rank ()))
        (if db_type = [| 2; 1 |] && rank = 2 then "   <- the paper's 68"
         else ""))
    [
      ([| 1 |], 1);
      ([| 1 |], 2);
      ([| 2 |], 1);
      ([| 2 |], 2);
      ([| 2 |], 3);
      ([| 2; 1 |], 1);
      ([| 2; 1 |], 2);
      ([| 3 |], 1);
      ([| 1; 1 |], 2);
    ]

(* ------------------------------------------------------------------ *)
(* E3: Theorem 2.1 — the completeness round trip                      *)

let e3 () =
  section "E3" "Thm 2.1: L⁻ completeness round trips";
  let reg = Localiso.Classes.make ~db_type:[| 2 |] ~rank:2 () in
  let rng = Ints.Rng.make 23 in
  let trials = 60 in
  let ok = ref 0 and sizes = ref 0 in
  for _ = 1 to trials do
    let indices =
      List.init (Ints.Rng.int rng 6) (fun _ ->
          Ints.Rng.int rng (Localiso.Classes.size reg))
    in
    let lgq = Localiso.Lgq.of_indices reg indices in
    if Core.Completeness.roundtrip_holds reg lgq then incr ok;
    match Core.Completeness.query_of_lgq lgq with
    | Rlogic.Ast.Query { body; _ } -> sizes := !sizes + Rlogic.Ast.size body
    | Rlogic.Ast.Undefined -> ()
  done;
  row "  random class sets: %d/%d round trips hold@." !ok trials;
  row "  average synthesized formula size: %d AST nodes@." (!sizes / trials);
  let q1 = Rlogic.Parser.query "{(x, y) | !(R1(x, y) || x = y)}" in
  let q2 = Rlogic.Parser.query "{(x, y) | !R1(x, y) && x != y}" in
  row "  De Morgan equivalence decided: %b@."
    (Core.Completeness.equivalent reg q1 q2)

(* ------------------------------------------------------------------ *)
(* E4: the §1 non-closure example                                      *)

let e4 () =
  section "E4" "§1: the projection of step-bounded halting escapes L⁻";
  let w = Rmachine.Nonclosure.find () in
  let y1, z1 = w.Rmachine.Nonclosure.halting in
  let y2, z2 = w.Rmachine.Nonclosure.looping in
  let db = Rmachine.Toy.halting_relation () in
  row "  halting pair (y,z) = (%d, %d): ∃x R(x,y,z) with x = %d@." y1 z1
    w.Rmachine.Nonclosure.halt_steps;
  row "  looping pair (y,z) = (%d, %d): no x up to %d@." y2 z2
    (10 * w.Rmachine.Nonclosure.halt_steps);
  row "  same ≅ₗ class: %b  — so no quantifier-free formula separates them@."
    (Localiso.Liso.check_same db [| y1; z1 |] [| y2; z2 |]);
  row "  witness verifies: %b@." (Rmachine.Nonclosure.verify w)

(* ------------------------------------------------------------------ *)
(* E5: Proposition 2.5 — the genericity refutation construction        *)

let e5 () =
  section "E5" "Prop 2.5: B₃/B₄ from an oracle machine's log";
  let decide db u =
    Rmachine.Oracle_rm.decider Rmachine.Oracle_rm.exists_forward_edge
      ~fuel:2000 db u
  in
  let b1 = Rdb.Instances.paper_b1 () and b2 = Rdb.Instances.paper_b2 () in
  match Core.Genericity.refute ~decide ~b1 ~u:[| 0 |] ~b2 ~v:[| 2 |] with
  | None -> row "  no certificate (unexpected)@."
  | Some cert ->
      row "  query: the §2 ∃-query, run as an oracle register machine@.";
      row "  B₃ answers %b, B₄ answers %b on isomorphic inputs@."
        cert.Core.Genericity.answer3 cert.Core.Genericity.answer4;
      row "  support size %d; certificate verifies: %b@."
        (List.length cert.Core.Genericity.support)
        (Core.Genericity.verify cert)

(* ------------------------------------------------------------------ *)
(* E6: Proposition 3.1 — stretching                                    *)

let e6 () =
  section "E6" "Prop 3.1: rank-1 classes of stretchings";
  row "  highly symmetric instances (stretch by one path node):@.";
  List.iter
    (fun inst ->
      let path = List.hd (Hs.Hsdb.paths inst 1) in
      let s = Hs.Hsdb.stretch inst ~by:path in
      row "    %-12s: %d rank-1 classes after stretching@."
        (Hs.Hsdb.name inst)
        (Hs.Hsdb.class_count s 1))
    [
      Hs.Hsinstances.infinite_clique ();
      Hs.Hsinstances.mod_cliques 3;
      Hs.Hsinstances.triangles ();
    ];
  row "  the line (not hs): distinct (0, x) classes among first k nodes:@.";
  List.iter
    (fun k ->
      let classes =
        List.fold_left
          (fun reps x ->
            if
              List.exists
                (fun y -> Hs.Hsinstances.line_equiv [| 0; x |] [| 0; y |])
                reps
            then reps
            else x :: reps)
          [] (Ints.range 0 k)
      in
      row "    k = %3d: %d classes (unbounded growth)@." k
        (List.length classes))
    [ 8; 16; 32; 64 ];
  row "  the grid (not hs, §3.1): marked-origin classes among first k nodes:@.";
  List.iter
    (fun k ->
      let classes =
        List.fold_left
          (fun reps x ->
            if List.exists (Hs.Hsinstances.grid_marked_equiv x) reps then reps
            else x :: reps)
          [] (Ints.range 0 k)
      in
      row "    k = %3d: %d classes (unbounded growth)@." k
        (List.length classes))
    [ 9; 25; 49; 100 ]

(* ------------------------------------------------------------------ *)
(* E7: Proposition 3.2 — random structures are highly symmetric        *)

let e7 () =
  section "E7" "Prop 3.2: on the Rado graph, ≅_B coincides with ≅ₗ";
  let rado = Hs.Hsinstances.rado () in
  let rng = Ints.Rng.make 41 in
  let trials = 400 in
  let agree = ref 0 in
  for _ = 1 to trials do
    let n = 1 + Ints.Rng.int rng 3 in
    let u = Array.init n (fun _ -> Ints.Rng.int rng 9) in
    let v = Array.init n (fun _ -> Ints.Rng.int rng 9) in
    if
      Hs.Hsdb.equiv rado u v
      = Localiso.Liso.check_same (Hs.Hsdb.db rado) u v
    then incr agree
  done;
  row "  sampled pairs where ≅_B = ≅ₗ: %d/%d@." !agree trials;
  row "  class counts match graph-diagram counts:@.";
  List.iter
    (fun n ->
      let keep d =
        let m = Localiso.Diagram.blocks d in
        let ok = ref true in
        for x = 0 to m - 1 do
          if Localiso.Diagram.atom d ~rel:0 [| x; x |] then ok := false;
          for y = 0 to m - 1 do
            if
              Localiso.Diagram.atom d ~rel:0 [| x; y |]
              <> Localiso.Diagram.atom d ~rel:0 [| y; x |]
            then ok := false
          done
        done;
        !ok
      in
      row "    rank %d: |T^n| = %d, graph diagrams = %d@." n
        (Hs.Hsdb.class_count rado n)
        (List.length
           (Localiso.Diagram.enumerate ~keep ~db_type:[| 2 |] ~rank:n ())))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* E8: Propositions 3.5/3.6 — the fixed r₀                             *)

let e8 () =
  section "E8" "Prop 3.6: least r with V^n_r all singletons";
  row "  %-14s %8s %8s@." "instance" "r0(n=1)" "r0(n=2)";
  List.iter
    (fun inst ->
      row "  %-14s %8d %8d@." (Hs.Hsdb.name inst)
        (Hs.Ef.r0 inst ~n:1)
        (Hs.Ef.r0 inst ~n:2))
    [
      Hs.Hsinstances.infinite_clique ();
      Hs.Hsinstances.mod_cliques 2;
      Hs.Hsinstances.triangles ();
      Hs.Hsinstances.disjoint_copies
        [ Hs.Hsinstances.undirected_path_component 3 ];
      Hs.Hsinstances.unary_finite_set ~members:[ 0; 1; 2 ];
    ]

(* ------------------------------------------------------------------ *)
(* E9: Proposition 3.7 / Corollary 3.3                                 *)

let e9 () =
  section "E9" "Prop 3.7: V^{n+1}_r ↓ = V^n_{r+1}";
  List.iter
    (fun inst ->
      List.iter
        (fun (n, r) ->
          let lhs = Hs.Ef.down inst ~n (Hs.Ef.vnr inst ~n:(n + 1) ~r) in
          let rhs = Hs.Ef.vnr inst ~n ~r:(r + 1) in
          row "  %-12s n=%d r=%d: %b@." (Hs.Hsdb.name inst) n r
            (Hs.Ef.same_partition lhs rhs))
        [ (1, 0); (1, 1); (2, 0); (2, 1) ])
    [
      Hs.Hsinstances.mod_cliques 2;
      Hs.Hsinstances.triangles ();
      Hs.Hsinstances.disjoint_copies
        [ Hs.Hsinstances.undirected_path_component 3 ];
    ]

(* ------------------------------------------------------------------ *)
(* E10: Theorem 3.1 — QL_hs computes what it should                    *)

let e10 () =
  section "E10" "Thm 3.1: QL_hs vs direct evaluation (windowed)";
  let cases =
    [
      ( Hs.Hsinstances.triangles (),
        Ql.Ql_ast.Comp (Ql.Ql_ast.Rel 0),
        "{(x, y) | !R1(x, y)}" );
      ( Hs.Hsinstances.triangles (),
        Ql.Ql_macros.union (Ql.Ql_ast.Rel 0) Ql.Ql_ast.E,
        "{(x, y) | R1(x, y) || x = y}" );
      ( Hs.Hsinstances.disjoint_copies
          [ Hs.Hsinstances.directed_edge_component ],
        Ql.Ql_ast.Swap (Ql.Ql_ast.Rel 0),
        "{(x, y) | R1(y, x)}" );
      ( Hs.Hsinstances.disjoint_copies
          [ Hs.Hsinstances.directed_edge_component ],
        Ql.Ql_ast.Down (Ql.Ql_ast.Rel 0),
        "{(y) | exists x. R1(x, y)}" );
      ( Hs.Hsinstances.rado (),
        Ql.Ql_macros.diff (Ql.Ql_ast.Comp (Ql.Ql_ast.Rel 0)) Ql.Ql_ast.E,
        "{(x, y) | !R1(x, y) && x != y}" );
    ]
  in
  List.iter
    (fun (inst, term, query) ->
      let value = Ql.Ql_hs.eval_term inst term in
      let got = Ql.Ql_hs.denotation inst value ~cutoff:5 in
      let expected =
        Hs.Fo_eval.eval_upto inst (Rlogic.Parser.query query) ~cutoff:5
      in
      row "  %-10s %-22s = %-28s  agree: %b@." (Hs.Hsdb.name inst)
        (Ql.Ql_ast.term_to_string term)
        query
        (Tupleset.equal got expected))
    cases

(* ------------------------------------------------------------------ *)
(* E11: counters in QL_hs                                              *)

let e11 () =
  section "E11" "Thm 3.1: counter power (numbers as ranks)";
  let clique = Hs.Hsinstances.infinite_clique () in
  List.iter
    (fun (label, program, expected_rank) ->
      match Ql.Ql_hs.run clique ~fuel:200 program with
      | Ql.Ql_interp.Halted store ->
          row "  %-24s rank(Y1) = %d (expected %d), nonempty = %b@." label
            store.(0).Ql.Ql_hs.rank expected_rank
            (not (Tupleset.is_empty store.(0).Ql.Ql_hs.reps))
      | _ -> row "  %-24s did not halt@." label)
    [
      ("zero", Ql.Ql_macros.counter_zero 0, 0);
      ( "0 + 3",
        Ql.Ql_macros.seq
          [ Ql.Ql_macros.counter_zero 0; Ql.Ql_macros.counter_add_const 0 3 ],
        3 );
      ( "0 + 3 - 1",
        Ql.Ql_macros.seq
          [
            Ql.Ql_macros.counter_zero 0;
            Ql.Ql_macros.counter_add_const 0 3;
            Ql.Ql_macros.counter_decr 0;
          ],
        2 );
    ];
  (* A genuine while loop (the |Y|=1 test of footnote 8). *)
  let p =
    Ql.Ql_macros.seq
      [
        Ql.Ql_ast.Assign (0, Ql.Ql_macros.truth);
        Ql.Ql_ast.While_single (0, Ql.Ql_ast.Assign (0, Ql.Ql_macros.falsity));
      ]
  in
  (match Ql.Ql_hs.run clique ~fuel:100 p with
  | Ql.Ql_interp.Halted store ->
      row "  while |Y|=1 loop halts with empty Y1: %b@."
        (Tupleset.is_empty store.(0).Ql.Ql_hs.reps)
  | _ -> row "  while |Y|=1 loop did not halt@.");
  let diverging = Ql.Ql_ast.While_empty (1, Ql.Ql_ast.Assign (0, Ql.Ql_ast.E)) in
  row "  diverging program times out: %b@."
    (Ql.Ql_hs.run clique ~fuel:50 diverging = Ql.Ql_interp.Timeout)

(* ------------------------------------------------------------------ *)
(* E12: Proposition 4.1 — Df from the tree                             *)

let e12 () =
  section "E12" "Prop 4.1: fcf ↔ hs conversions";
  let open Fincof in
  let fin rank lists = Fcf.finite ~rank (Tupleset.of_lists lists) in
  let cof rank lists = Fcf.cofinite ~rank (Tupleset.of_lists lists) in
  List.iter
    (fun (label, db) ->
      let hs = Fcfdb.to_hsdb db in
      let recovered = Fcfdb.df_from_tree hs in
      let shown =
        match recovered with
        | Some df -> "{" ^ String.concat "," (List.map string_of_int df) ^ "}"
        | None -> "none"
      in
      row "  %-18s Df = {%s}, recovered from tree: %s, match: %b@." label
        (String.concat "," (List.map string_of_int (Fcfdb.df db)))
        shown
        (recovered = Some (Fcfdb.df db)))
    [
      ("unary {0,1,2}", Fcfdb.make [ fin 1 [ [ 0 ]; [ 1 ]; [ 2 ] ] ]);
      ( "mixed",
        Fcfdb.make [ fin 1 [ [ 0 ]; [ 1 ] ]; cof 2 [ [ 2; 2 ] ] ] );
      ("empty Df", Fcfdb.make [ fin 2 [] ]);
      ("cofinite unary", Fcfdb.make [ cof 1 [ [ 4 ] ] ]);
    ]

(* ------------------------------------------------------------------ *)
(* E13: Proposition 4.2 — the fcf algebra                              *)

let e13 () =
  section "E13" "Prop 4.2: projections of finite/co-finite relations";
  let open Fincof in
  let cof rank lists = Fcf.cofinite ~rank (Tupleset.of_lists lists) in
  let c2 = cof 2 [ [ 0; 1 ]; [ 2; 2 ] ] in
  row "  (cofinite rank 2)↓ = %s  (full D¹: %b)@."
    (Format.asprintf "%a" Fcf.pp (Fcf.drop_first c2))
    (Fcf.equal (Fcf.drop_first c2) (Fcf.full ~rank:1));
  let c1 = cof 1 [ [ 7 ] ] in
  row "  (cofinite rank 1)↓ = %s  (finite, = D⁰)@."
    (Format.asprintf "%a" Fcf.pp (Fcf.drop_first c1));
  (* Random pointwise checks of the algebra. *)
  let rng = Ints.Rng.make 5 in
  let random_fcf () =
    let s = ref Tupleset.empty in
    for _ = 1 to Ints.Rng.int rng 4 do
      s := Tupleset.add [| Ints.Rng.int rng 5 |] !s
    done;
    if Ints.Rng.bool rng then Fcf.finite ~rank:1 !s
    else Fcf.cofinite ~rank:1 !s
  in
  let trials = 500 in
  let ok = ref 0 in
  for _ = 1 to trials do
    let a = random_fcf () and b = random_fcf () in
    let pointwise op sem =
      List.for_all
        (fun x ->
          Fcf.mem (op a b) [| x |] = sem (Fcf.mem a [| x |]) (Fcf.mem b [| x |]))
        (Ints.range 0 8)
    in
    if pointwise Fcf.inter ( && ) && pointwise Fcf.union ( || ) then incr ok
  done;
  row "  random ∩/∪ pointwise agreement: %d/%d@." !ok trials

(* ------------------------------------------------------------------ *)
(* E14: Proposition 4.3 — QL_f+                                        *)

let e14 () =
  section "E14" "Prop 4.3: QL_f+ vs the fcf algebra";
  let open Fincof in
  let fin rank lists = Fcf.finite ~rank (Tupleset.of_lists lists) in
  let cof rank lists = Fcf.cofinite ~rank (Tupleset.of_lists lists) in
  let db = Fcfdb.make [ fin 1 [ [ 0 ]; [ 1 ] ]; cof 2 [ [ 2; 2 ] ] ] in
  List.iter
    (fun (label, term, expected) ->
      let got = Qlf.eval_term db term in
      row "  %-26s %s  ok: %b@." label
        (Format.asprintf "%a" Fcf.pp got)
        (Fcf.equal got expected))
    [
      ("Rel1", Ql.Ql_ast.Rel 0, fin 1 [ [ 0 ]; [ 1 ] ]);
      ("¬Rel1", Ql.Ql_ast.Comp (Ql.Ql_ast.Rel 0), cof 1 [ [ 0 ]; [ 1 ] ]);
      ("Rel2↓ (Prop 4.2)", Ql.Ql_ast.Down (Ql.Ql_ast.Rel 1), Fcf.full ~rank:1);
      ( "Rel1↑ = Rel1 × Df",
        Ql.Ql_ast.Up (Ql.Ql_ast.Rel 0),
        fin 2 [ [ 0; 0 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 0 ]; [ 1; 1 ]; [ 1; 2 ] ] );
    ];
  (* |Y| < ∞ in action. *)
  let p =
    Ql.Ql_macros.seq
      [
        Ql.Ql_ast.Assign (0, Ql.Ql_ast.Rel 0);
        Ql.Ql_ast.While_finite
          (0, Ql.Ql_ast.Assign (0, Ql.Ql_ast.Comp (Ql.Ql_ast.Var 0)));
      ]
  in
  (match Qlf.output (Qlf.run db ~fuel:100 p) with
  | Some (_, cofinite) -> row "  while |Y|<∞ flips to co-finite: %b@." cofinite
  | None -> row "  program failed@.")

(* ------------------------------------------------------------------ *)
(* E15: Theorem 5.1 — generic machines                                 *)

let e15 () =
  section "E15" "Thm 5.1: GM_hs programs (spawn / collapse / oracle use)";
  let tri = Hs.Hsinstances.triangles () in
  let tri2 =
    let r1 =
      Rdb.Relation.make ~name:"E" ~arity:2 (fun u ->
          u.(0) <> u.(1) && u.(0) / 3 = u.(1) / 3)
    in
    let r2 =
      Rdb.Relation.make ~name:"SAME" ~arity:2 (fun u -> u.(0) / 3 = u.(1) / 3)
    in
    Hs.Hsdb.make ~name:"triangles2"
      ~db:(Rdb.Database.make ~name:"triangles2" [| r1; r2 |])
      ~children:(Hs.Hsdb.children tri)
      ~equiv:(Hs.Hsdb.equiv tri) ()
  in
  let report label inst spec ~reg expected =
    match Genmach.Gm.run spec inst ~fuel:300 with
    | None -> row "  %-22s ran out of fuel@." label
    | Some result ->
        let correct =
          match Genmach.Gm.output result ~reg with
          | Some got -> Tupleset.equal got expected
          | None -> false
        in
        row "  %-22s steps %3d, peak units %2d, collapses %2d, correct: %b@."
          label result.Genmach.Gm.steps result.Genmach.Gm.peak_units
          result.Genmach.Gm.collapses correct
  in
  let out2 = Genmach.Gm_programs.output_reg tri2 in
  let out1 = Genmach.Gm_programs.output_reg tri in
  report "load C2" tri2
    (Genmach.Gm_programs.load_relation ~out:out2 ~rel:1)
    ~reg:out2 (Hs.Hsdb.reps tri2 1);
  report "union C1 C2" tri2
    (Genmach.Gm_programs.union ~out:out2 ~rel1:0 ~rel2:1)
    ~reg:out2
    (Tupleset.union (Hs.Hsdb.reps tri2 0) (Hs.Hsdb.reps tri2 1));
  report "inter C1 C2 (≅ test)" tri2
    (Genmach.Gm_programs.inter_by_equiv ~out:out2 ~rel1:0 ~rel2:1)
    ~reg:out2
    (Tupleset.inter (Hs.Hsdb.reps tri2 0) (Hs.Hsdb.reps tri2 1));
  report "up C1 (offspring)" tri
    (Genmach.Gm_programs.up ~out:out1 ~rel:0)
    ~reg:out1
    (Ql.Ql_hs.eval_term tri (Ql.Ql_ast.Up (Ql.Ql_ast.Rel 0))).Ql.Ql_hs.reps;
  (* The full Theorem 5.1 loading protocol: probe rounds, collapse,
     every insertion order explored. *)
  report "full loading protocol" tri2
    (Genmach.Gm_programs.load_all ~out:out2 ~probe:(out2 + 1) ~rel:1)
    ~reg:out2 (Hs.Hsdb.reps tri2 1);
  (* Negation by probe register: GM_hs computes ¬Rel1. *)
  report "complement via probe" tri
    (Genmach.Gm_programs.complement ~out:out1 ~probe:(out1 + 1) ~rel:0)
    ~reg:out1
    (Ql.Ql_hs.eval_term tri (Ql.Ql_ast.Comp (Ql.Ql_ast.Rel 0))).Ql.Ql_hs.reps

(* ------------------------------------------------------------------ *)
(* E16: Theorem 6.1 — the gadget                                       *)

let e16 () =
  section "E16" "Thm 6.1: b ≅_B c iff G₁ ≅ G₂";
  let open Bptheory in
  let triangle =
    { Gadget.vertices = [ 0; 1; 2 ]; edges = [ (0, 1); (1, 2); (0, 2) ] }
  in
  let path3 = { Gadget.vertices = [ 0; 1; 2 ]; edges = [ (0, 1); (1, 2) ] } in
  let path3b = { Gadget.vertices = [ 7; 8; 9 ]; edges = [ (8, 7); (8, 9) ] } in
  let square =
    {
      Gadget.vertices = [ 0; 1; 2; 3 ];
      edges = [ (0, 1); (1, 2); (2, 3); (3, 0) ];
    }
  in
  let star4 =
    { Gadget.vertices = [ 0; 1; 2; 3 ]; edges = [ (0, 1); (0, 2); (0, 3) ] }
  in
  row "  %-22s %8s %8s %9s@." "pair" "G1≅G2" "b≅c" "agree";
  List.iter
    (fun (label, g1, g2) ->
      let gadget = Gadget.build ~g1 ~g2 in
      let iso = Gadget.graphs_isomorphic g1 g2 in
      let beq = Gadget.b_equiv_c gadget in
      row "  %-22s %8b %8b %9b@." label iso beq (iso = beq))
    [
      ("triangle/triangle", triangle, triangle);
      ("triangle/path3", triangle, path3);
      ("path3/path3'", path3, path3b);
      ("square/star4", square, star4);
      ("square/square", square, square);
    ];
  let g = Gadget.build ~g1:triangle ~g2:path3 in
  row "  separating relation {b} preserves automorphisms (non-iso case): %b@."
    (Gadget.preserves_automorphisms g (Gadget.separating_relation g))

(* ------------------------------------------------------------------ *)
(* E17: Theorem 6.3 — representatives vs naive evaluation              *)

let e17 () =
  section "E17"
    "Thm 6.3: FO evaluation over representatives vs domain cutoffs";
  let tri = Hs.Hsinstances.triangles () in
  let sentences =
    [
      ("triangles complete?", "forall x. forall y. x != y -> R1(x, y)");
      ("has an edge", "exists x. exists y. R1(x, y)");
      ( "every edge extends to a triangle",
        "forall x. forall y. R1(x, y) -> (exists z. R1(x, z) && R1(y, z))" );
      ( "some vertex dominates",
        "exists x. forall y. y != x -> R1(x, y)" );
    ]
  in
  let time f =
    let t0 = Sys.time () in
    let result = f () in
    (result, Sys.time () -. t0)
  in
  List.iter
    (fun (label, s) ->
      let f = Rlogic.Parser.formula s in
      let reps_answer, reps_time =
        time (fun () -> Hs.Fo_eval.eval_sentence tri f)
      in
      row "  %-32s reps: %b (%.4fs)@." label reps_answer reps_time;
      List.iter
        (fun cutoff ->
          let naive, naive_time =
            time (fun () ->
                Rlogic.Qf_eval.eval_bounded (Hs.Hsdb.db tri) ~cutoff ~env:[] f)
          in
          row "    naive cutoff %2d: %b (%.4fs)%s@." cutoff naive naive_time
            (if naive <> reps_answer then "   <- window artefact" else ""))
        [ 6; 12; 18 ])
    sentences;
  row
    "  (the reps-based answer is the truth in the infinite structure and@.\
    \   its cost does not grow with any cutoff)@."

(* ------------------------------------------------------------------ *)
(* E18: Corollary 3.1 — elementary equivalence                         *)

let e18 () =
  section "E18" "Cor 3.1: elementary equivalence ⇔ isomorphism (hs case)";
  let pairs =
    [
      (Hs.Hsinstances.infinite_clique (), Hs.Hsinstances.empty_graph ());
      (Hs.Hsinstances.mod_cliques 2, Hs.Hsinstances.mod_cliques 3);
      (Hs.Hsinstances.triangles (), Hs.Hsinstances.infinite_clique ());
      (Hs.Hsinstances.triangles (), Hs.Hsinstances.triangles ());
      (Hs.Hsinstances.mod_cliques 2, Hs.Hsinstances.mod_cliques 2);
    ]
  in
  List.iter
    (fun (t1, t2) ->
      (match Hs.Elem.distinguishing_round ~cap:4 t1 t2 with
      | Some r ->
          row "  %-10s vs %-10s: separated at EF round %d" (Hs.Hsdb.name t1)
            (Hs.Hsdb.name t2) r;
          (match Hs.Elem.separating_sentence ~cap:4 t1 t2 with
          | Some s ->
              row " (sentence, %d nodes, qr %d)@." (Rlogic.Ast.size s)
                (Rlogic.Ast.quantifier_rank s)
          | None -> row "@.")
      | None ->
          row "  %-10s vs %-10s: elementarily equivalent up to round 4@."
            (Hs.Hsdb.name t1) (Hs.Hsdb.name t2)))
    pairs


(* ------------------------------------------------------------------ *)
(* E19: the §3.2 counterexamples — non-hs structures where elementary  *)
(* equivalence does not decide isomorphism                             *)

let e19 () =
  section "E19"
    "§3.2: one line vs two lines — elementarily equivalent, not isomorphic";
  let one = { Hs.Lines.nlines = 1 } and two = { Hs.Lines.nlines = 2 } in
  List.iter
    (fun r ->
      row "  duplicator survives the %d-round EF game: %b@." r
        (Hs.Lines.strategy_wins ~a:one ~b:two ~r))
    [ 1; 2; 3 ];
  row "  isomorphic: %b (different numbers of connected components)@."
    (Hs.Lines.isomorphic one two);
  row
    "  contrast: for hs databases, Corollary 3.1 makes elementary@.\
    \   equivalence decide isomorphism (see E18)@."

(* ------------------------------------------------------------------ *)
(* E20: Prop 3.2 beyond graphs — a random structure of type (1,2)      *)

let e20 () =
  section "E20" "Prop 3.2 for type (1,2): the coloured random structure";
  let rc = Hs.Hsinstances.random_colored_graph () in
  row "  |T^1| = %d (two colours), |T^2| = %d@."
    (Hs.Hsdb.class_count rc 1) (Hs.Hsdb.class_count rc 2);
  let rng = Ints.Rng.make 99 in
  let trials = 300 in
  let agree = ref 0 in
  for _ = 1 to trials do
    let n = 1 + Ints.Rng.int rng 2 in
    let u = Array.init n (fun _ -> Ints.Rng.int rng 8) in
    let v = Array.init n (fun _ -> Ints.Rng.int rng 8) in
    if
      Hs.Hsdb.equiv rc u v
      = Localiso.Liso.check_same (Hs.Hsdb.db rc) u v
    then incr agree
  done;
  row "  sampled pairs where ≅_B = ≅ₗ: %d/%d@." !agree trials;
  List.iter
    (fun (label, s) ->
      row "  %-44s %b@." label
        (Hs.Fo_eval.eval_sentence rc (Rlogic.Parser.formula s)))
    [
      ( "every vertex has a neighbour of each colour",
        "forall x. (exists y. R2(x, y) && R1(y)) && (exists z. R2(x, z) && \
         !R1(z))" );
      ( "both colours are inhabited",
        "(exists x. R1(x)) && (exists y. !R1(y))" );
    ]

(* ------------------------------------------------------------------ *)
(* E21: ablations — algorithmic choices called out in DESIGN.md        *)

let e21 () =
  section "E21" "Ablations";
  let time label f =
    let t0 = Sys.time () in
    let iterations = ref 0 in
    while Sys.time () -. t0 < 0.15 do
      ignore (f ());
      incr iterations
    done;
    let per = (Sys.time () -. t0) /. float_of_int !iterations in
    row "  %-44s %10.1f us/op@." label (per *. 1e6)
  in
  (* 1. Partition refinement vs direct game recursion for V^n_r. *)
  let p3 =
    Hs.Hsinstances.disjoint_copies
      [ Hs.Hsinstances.undirected_path_component 3 ]
  in
  time "vnr via partition refinement (n=2, r=2)" (fun () ->
      Hs.Ef.vnr p3 ~n:2 ~r:2);
  time "equiv_r direct game, all T^2 pairs (r=2)" (fun () ->
      let paths = Hs.Hsdb.paths p3 2 in
      List.iter
        (fun u ->
          List.iter (fun v -> ignore (Hs.Ef.equiv_r p3 ~r:2 u v)) paths)
        paths);
  (* 2. The three-part liso test vs the brute-force restriction check. *)
  let db = Rdb.Instances.triangles () in
  time "liso three-part test (rank 3)" (fun () ->
      Localiso.Liso.check_same db [| 0; 1; 3 |] [| 3; 4; 0 |]);
  time "liso brute force (rank 3)" (fun () ->
      Localiso.Liso.check_bruteforce db [| 0; 1; 3 |] db [| 3; 4; 0 |]);
  (* 3. Extension dedup in the generic components builder: with dedup
     the tree stays one-representative-per-class; without it, counting
     raw candidates overstates the branching. *)
  let tri = Hs.Hsinstances.triangles () in
  let u = [| 0; 1 |] in
  let deduped = List.length (Hs.Hsdb.children tri u) in
  row "  children(0,1) in triangles: %d classes (raw candidates would be more)@."
    deduped

(* ------------------------------------------------------------------ *)
(* E22: the Corollary 3.1 amalgam, as a constructed hs database        *)

let e22 () =
  section "E22" "Cor 3.1 construction: the amalgam (D₁ ⊎ D₂ ⊎ {a, b}, E)";
  let tri = Hs.Hsinstances.triangles () in
  let am_iso, a1, b1 =
    Hs.Elem.amalgam ~cross:(Some (Hs.Hsdb.equiv tri)) tri
      (Hs.Hsinstances.triangles ())
  in
  row "  triangles + triangles: a ≅_B b = %b (B₁ ≅ B₂)@."
    (Hs.Hsdb.equiv am_iso [| a1 |] [| b1 |]);
  let am_diff, a2, b2 =
    Hs.Elem.amalgam (Hs.Hsinstances.infinite_clique ())
      (Hs.Hsinstances.empty_graph ())
  in
  row "  clique + empty:        a ≅_B b = %b (B₁ ≇ B₂)@."
    (Hs.Hsdb.equiv am_diff [| a2 |] [| b2 |]);
  let separating =
    List.find_opt
      (fun r -> not (Hs.Ef.equiv_r am_diff ~r [| a2 |] [| b2 |]))
      (Ints.range 0 4)
  in
  (match separating with
  | Some r -> row "  a and b separated inside the amalgam at EF round %d@." r
  | None -> row "  (no separating round found below 4)@.");
  row "  amalgam |T^1| = %d, |T^2| = %d (still highly symmetric)@."
    (Hs.Hsdb.class_count am_diff 1)
    (Hs.Hsdb.class_count am_diff 2)

(* ------------------------------------------------------------------ *)
(* E23: oracle complexity in the paper's own cost model               *)

let e23 () =
  section "E23"
    "Oracle complexity: questions to T_B / ≅_B / the relations (Defs 2.4, 3.9)";
  row "  %-14s %28s %10s %10s %10s@." "instance" "operation" "T_B" "≅_B" "R_i";
  let measure inst label op =
    Hs.Hsdb.reset_oracle_calls inst;
    Rdb.Database.reset_oracle_calls (Hs.Hsdb.db inst);
    op ();
    let c, e = Hs.Hsdb.oracle_calls inst in
    row "  %-14s %28s %10d %10d %10d@." (Hs.Hsdb.name inst) label c e
      (Rdb.Database.oracle_calls (Hs.Hsdb.db inst))
  in
  let sentence =
    Rlogic.Parser.formula
      "forall x. forall y. R1(x, y) -> (exists z. R1(x, z) && R1(y, z))"
  in
  List.iter
    (fun inst ->
      (* fresh instances so tree caches start cold *)
      measure inst "paths to rank 2" (fun () -> ignore (Hs.Hsdb.paths inst 2));
      measure inst "representative (rank 2)" (fun () ->
          ignore (Hs.Hsdb.representative inst [| 4; 5 |]));
      measure inst "rel_mem" (fun () -> ignore (Hs.Hsdb.rel_mem inst 0 [| 4; 5 |]));
      measure inst "FO sentence (qr 3)" (fun () ->
          ignore (Hs.Fo_eval.eval_sentence inst sentence)))
    [
      Hs.Hsinstances.triangles ();
      Hs.Hsinstances.mod_cliques 2;
      Hs.Hsinstances.rado ();
    ];
  row "  (T_B answers are memoized: repeated tree walks add no questions)@."

(* ------------------------------------------------------------------ *)
(* E24: the serving engine — memoized oracles and the worker pool      *)

let e24 () =
  section "E24"
    "lib/engine: oracle-call savings from the LRU, worker-pool batches";
  ignore (Engine_bench.run ~out:"BENCH_engine.json" ())

(* ------------------------------------------------------------------ *)
(* E25: resilience — budgets, deadlines, injected faults               *)

let e25 () =
  section "E25"
    "lib/engine resilience: guard overhead, budget/deadline trips, \
     retry under faults";
  ignore (Engine_bench.run_resilience ~out:"BENCH_resilience.json" ())

(* ------------------------------------------------------------------ *)
(* E26: parallel serving — work stealing and the shared memo layer     *)

let e26 () =
  section "E26"
    "lib/engine parallel serving: work-stealing dispatch, shared memo \
     layer, per-domain speedup";
  ignore (Engine_bench.run_parallel ~out:"BENCH_parallel.json" ())

let tables () =
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  e18 ();
  e19 ();
  e20 ();
  e21 ();
  e22 ();
  e23 ();
  e24 ();
  e25 ();
  e26 ()

(* ------------------------------------------------------------------ *)
(* Bechamel timing benches — one per experiment's core algorithm.      *)

let bench_tests () =
  let open Bechamel in
  let db_type = [| 2; 1 |] in
  let b = Rdb.Instances.paper_b1 () in
  let clique_db = Rdb.Instances.infinite_clique () in
  let reg2 = Localiso.Classes.make ~db_type:[| 2 |] ~rank:2 () in
  let full = Localiso.Lgq.full reg2 in
  let tri = Hs.Hsinstances.triangles () in
  let rado = Hs.Hsinstances.rado () in
  let unary = Hs.Hsinstances.unary_finite_set ~members:[ 0; 1; 2 ] in
  let extend_sentence =
    Rlogic.Parser.formula
      "forall x. forall y. R1(x, y) -> (exists z. R1(x, z) && R1(y, z))"
  in
  let comp_term =
    Ql.Ql_macros.diff (Ql.Ql_ast.Comp (Ql.Ql_ast.Rel 0)) Ql.Ql_ast.E
  in
  let fcf_db =
    Fincof.Fcfdb.make
      [
        Fincof.Fcf.finite ~rank:1 (Tupleset.of_lists [ [ 0 ]; [ 1 ] ]);
        Fincof.Fcf.cofinite ~rank:2 (Tupleset.of_lists [ [ 2; 2 ] ]);
      ]
  in
  let gadget =
    Bptheory.Gadget.build
      ~g1:{ Bptheory.Gadget.vertices = [ 0; 1; 2 ]; edges = [ (0, 1); (1, 2) ] }
      ~g2:{ Bptheory.Gadget.vertices = [ 0; 1; 2 ]; edges = [ (1, 0); (1, 2) ] }
  in
  let w = Rmachine.Nonclosure.find () in
  let lru = Oracle_cache.wrap (Rdb.Database.relation clique_db 0) in
  let lru_rel = Oracle_cache.relation lru in
  ignore (Rdb.Relation.mem lru_rel [| 1; 2 |]);
  let engine = Engine.create () in
  let engine_req =
    {
      Request.id = 0;
      payload =
        Request.Sentence
          {
            instance = "triangles";
            sentence = "exists x. exists y. R1(x, y)";
          };
      mode = None;
    }
  in
  ignore (Engine.handle engine engine_req);
  [
    Test.make ~name:"e1/liso_check"
      (Staged.stage (fun () ->
           ignore (Localiso.Liso.check_same clique_db [| 1; 2; 3 |] [| 4; 5; 6 |])));
    Test.make ~name:"e2/class_enum_68"
      (Staged.stage (fun () ->
           ignore (Localiso.Diagram.enumerate ~db_type ~rank:2 ())));
    Test.make ~name:"e3/lminus_synth"
      (Staged.stage (fun () ->
           ignore (Core.Completeness.query_of_lgq full)));
    Test.make ~name:"e4/nonclosure_atoms"
      (Staged.stage (fun () ->
           let y1, z1 = w.Rmachine.Nonclosure.halting in
           ignore (Rmachine.Toy.halts_within ~x:y1 ~y:y1 ~z:z1)));
    Test.make ~name:"e5/diagram_of_pair"
      (Staged.stage (fun () ->
           ignore (Localiso.Diagram.of_pair b [| 0; 1 |])));
    Test.make ~name:"e7/rado_children_rank3"
      (Staged.stage (fun () -> ignore (Hs.Hsdb.paths rado 3)));
    Test.make ~name:"e8/r0_triangles"
      (Staged.stage (fun () -> ignore (Hs.Ef.r0 tri ~n:2)));
    Test.make ~name:"e9/vnr_refinement"
      (Staged.stage (fun () -> ignore (Hs.Ef.vnr tri ~n:2 ~r:2)));
    Test.make ~name:"e10/qlhs_eval"
      (Staged.stage (fun () -> ignore (Ql.Ql_hs.eval_term tri comp_term)));
    Test.make ~name:"e12/df_from_tree"
      (Staged.stage (fun () ->
           ignore (Fincof.Fcfdb.df_from_tree (Fincof.Fcfdb.to_hsdb fcf_db))));
    Test.make ~name:"e13/fcf_ops"
      (Staged.stage (fun () ->
           let a = Fincof.Fcf.cofinite ~rank:1 (Tupleset.of_lists [ [ 1 ] ]) in
           let c = Fincof.Fcf.finite ~rank:1 (Tupleset.of_lists [ [ 0 ]; [ 2 ] ]) in
           ignore (Fincof.Fcf.union (Fincof.Fcf.inter a c) (Fincof.Fcf.complement a))));
    Test.make ~name:"e14/qlf_eval"
      (Staged.stage (fun () ->
           ignore (Fincof.Qlf.eval_term fcf_db (Ql.Ql_ast.Comp (Ql.Ql_ast.Rel 0)))));
    Test.make ~name:"e15/gm_load_run"
      (Staged.stage (fun () ->
           ignore
             (Genmach.Gm.run
                (Genmach.Gm_programs.load_relation
                   ~out:(Genmach.Gm_programs.output_reg tri)
                   ~rel:0)
                tri ~fuel:300)));
    Test.make ~name:"e16/gadget_equiv"
      (Staged.stage (fun () -> ignore (Bptheory.Gadget.b_equiv_c gadget)));
    Test.make ~name:"e17/fo_eval_reps"
      (Staged.stage (fun () ->
           ignore (Hs.Fo_eval.eval_sentence tri extend_sentence)));
    Test.make ~name:"e17/fo_eval_naive_c6"
      (Staged.stage (fun () ->
           ignore
             (Rlogic.Qf_eval.eval_bounded (Hs.Hsdb.db tri) ~cutoff:6 ~env:[]
                extend_sentence)));
    Test.make ~name:"e17/fo_eval_naive_c12"
      (Staged.stage (fun () ->
           ignore
             (Rlogic.Qf_eval.eval_bounded (Hs.Hsdb.db tri) ~cutoff:12 ~env:[]
                extend_sentence)));
    Test.make ~name:"e18/ef_game"
      (Staged.stage (fun () ->
           ignore
             (Hs.Elem.ef_game tri (Hs.Hsinstances.infinite_clique ()) ~r:3)));
    Test.make ~name:"e18/hintikka_r2"
      (Staged.stage (fun () -> ignore (Hs.Hintikka.sentence unary ~r:2)));
    Test.make ~name:"e15/full_loading_protocol"
      (Staged.stage (fun () ->
           let out = Genmach.Gm_programs.output_reg tri in
           ignore
             (Genmach.Gm.run
                (Genmach.Gm_programs.load_all ~out ~probe:(out + 1) ~rel:0)
                tri ~fuel:2000)));
    Test.make ~name:"e19/lines_ef_r3"
      (Staged.stage (fun () ->
           ignore
             (Hs.Lines.strategy_wins ~a:{ Hs.Lines.nlines = 1 }
                ~b:{ Hs.Lines.nlines = 2 } ~r:3)));
    Test.make ~name:"e24/lru_hit"
      (Staged.stage (fun () -> ignore (Rdb.Relation.mem lru_rel [| 1; 2 |])));
    Test.make ~name:"e24/engine_sentence"
      (Staged.stage (fun () -> ignore (Engine.handle engine engine_req)));
    Test.make ~name:"e22/amalgam_equiv"
      (Staged.stage
         (let am, a, b =
            Hs.Elem.amalgam
              (Hs.Hsinstances.infinite_clique ())
              (Hs.Hsinstances.empty_graph ())
          in
          fun () -> ignore (Hs.Hsdb.equiv am [| a |] [| b |])));
  ]

let run_benches () =
  let open Bechamel in
  Format.printf "@.=== Bechamel timings (ns/run, OLS on monotonic clock) ===@.";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"recdb" (bench_tests ()))
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let estimate =
          match Analyze.OLS.estimates result with
          | Some (t :: _) -> t
          | _ -> nan
        in
        (name, estimate) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      if ns < 1_000.0 then Format.printf "  %-36s %10.1f ns@." name ns
      else if ns < 1_000_000.0 then
        Format.printf "  %-36s %10.2f us@." name (ns /. 1_000.0)
      else Format.printf "  %-36s %10.2f ms@." name (ns /. 1_000_000.0))
    rows

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  if mode = "tables" || mode = "all" then tables ();
  if mode = "bench" || mode = "all" then run_benches ();
  Format.printf "@.done.@."
