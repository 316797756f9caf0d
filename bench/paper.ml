(* The paper experiments E1–E23.

   The paper has no numbered tables or figures (it is pure theory), so
   every theorem, proposition, worked example and proof construction
   becomes an experiment that regenerates what the text asserts.  Each
   [eN] returns one report field, an object keyed ["EN"], together with
   the violations of its gates: every discrete claim is gated at its
   exact value, and a violation names the report path of the leaf that
   broke it ([E2.(2,1)@2.formula = 67, expected 68]).  Only the
   descriptive leaves are ungated. *)

open Prelude

(* ------------------------------------------------------------------ *)
(* Report fields                                                        *)

(* One report leaf (or subtree) and the violations of its gates. *)
type field = (string * Json.t) * string list

let info key v : field = ((key, v), [])

let exact key show json got want : field =
  ( (key, json got),
    Bench_util.gate (got = want) "%s = %s, expected %s" key (show got)
      (show want) )

let int_is key = exact key string_of_int (fun i -> Json.Int i)
let bool_is key = exact key string_of_bool (fun b -> Json.Bool b)

(* An EF round, or [None] when no round up to the cap separates. *)
let round_is key =
  exact key
    (function Some r -> string_of_int r | None -> "none")
    (function Some r -> Json.Int r | None -> Json.Null)

(* Nest [fields] under [key]; their violations gain the [key.] prefix. *)
let group key (fields : field list) : field =
  let fields, vs = List.split fields in
  ((key, Json.Obj fields), List.concat_map (List.map (( ^ ) (key ^ "."))) vs)

let experiment id claim fields =
  group id (info "claim" (Json.String claim) :: fields)

let successes trials f =
  let ok = ref 0 in
  for _ = 1 to trials do
    if f () then incr ok
  done;
  !ok

let ints xs = Json.List (List.map (fun i -> Json.Int i) xs)

(* ------------------------------------------------------------------ *)
(* E1: Proposition 2.2 — local isomorphism is decidable               *)

let e1 () =
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
  let agree =
    successes trials (fun () ->
        let b1 = random_db () and b2 = random_db () in
        let u = Array.init 2 (fun _ -> Ints.Rng.int rng 4) in
        let v = Array.init 2 (fun _ -> Ints.Rng.int rng 4) in
        Localiso.Liso.check b1 u b2 v
        = Localiso.Liso.check_bruteforce b1 u b2 v)
  in
  (* Per side, the test asks every tuple of every relation over the n
     positions once: Σᵢ n^aᵢ = n² + n for type (2,1). *)
  let rank n =
    let predicted = Localiso.Liso.oracle_cost ~db_type ~rank:n in
    let b = random_db () in
    Rdb.Database.reset_oracle_calls b;
    let u = Array.init n (fun i -> i) in
    ignore (Localiso.Liso.check_same b u u);
    group (Printf.sprintf "rank%d" n)
      [
        int_is "predicted_per_side" predicted ((n * n) + n);
        int_is "measured_total" (Rdb.Database.oracle_calls b) (2 * predicted);
      ]
  in
  experiment "E1" "Prop 2.2: the local isomorphism test"
    ([ int_is "agree_with_bruteforce" agree trials ]
    @ List.map rank [ 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* E2: the §2 worked example — counting the classes of ≅ₗ             *)

let e2 () =
  let row (db_type, rank, classes) =
    let key =
      Printf.sprintf "(%s)@%d"
        (String.concat "," (List.map string_of_int (Array.to_list db_type)))
        rank
    in
    let formula = Localiso.Diagram.count ~db_type ~rank in
    group key
      [
        int_is "formula" formula classes;
        int_is "enumerated"
          (List.length (Localiso.Diagram.enumerate ~db_type ~rank ()))
          formula;
      ]
  in
  experiment "E2"
    "§2 example: |C^n| (closed form vs enumeration); (2,1)@2 is the paper's 68"
    (List.map row
       [
         ([| 1 |], 1, 2);
         ([| 1 |], 2, 6);
         ([| 2 |], 1, 2);
         ([| 2 |], 2, 18);
         ([| 2 |], 3, 562);
         ([| 2; 1 |], 1, 4);
         ([| 2; 1 |], 2, 68);
         ([| 3 |], 1, 2);
         ([| 1; 1 |], 2, 20);
       ])

(* ------------------------------------------------------------------ *)
(* E3: Theorem 2.1 — the completeness round trip                      *)

let e3 () =
  let reg = Localiso.Classes.make ~db_type:[| 2 |] ~rank:2 () in
  let rng = Ints.Rng.make 23 in
  let trials = 60 in
  let sizes = ref 0 in
  let ok =
    successes trials (fun () ->
        let indices =
          List.init (Ints.Rng.int rng 6) (fun _ ->
              Ints.Rng.int rng (Localiso.Classes.size reg))
        in
        let lgq = Localiso.Lgq.of_indices reg indices in
        (match Core.Completeness.query_of_lgq lgq with
        | Rlogic.Ast.Query { body; _ } ->
            sizes := !sizes + Rlogic.Ast.size body
        | Rlogic.Ast.Undefined -> ());
        Core.Completeness.roundtrip_holds reg lgq)
  in
  let q1 = Rlogic.Parser.query "{(x, y) | !(R1(x, y) || x = y)}" in
  let q2 = Rlogic.Parser.query "{(x, y) | !R1(x, y) && x != y}" in
  experiment "E3" "Thm 2.1: L⁻ completeness round trips"
    [
      int_is "round_trips" ok trials;
      info "avg_formula_nodes" (Json.Int (!sizes / trials));
      bool_is "de_morgan_equivalent" (Core.Completeness.equivalent reg q1 q2)
        true;
    ]

(* ------------------------------------------------------------------ *)
(* E4: the §1 non-closure example                                      *)

let e4 () =
  let w = Rmachine.Nonclosure.find () in
  let y1, z1 = w.Rmachine.Nonclosure.halting in
  let y2, z2 = w.Rmachine.Nonclosure.looping in
  let db = Rmachine.Toy.halting_relation () in
  experiment "E4" "§1: the projection of step-bounded halting escapes L⁻"
    [
      info "halting_pair" (ints [ y1; z1 ]);
      info "halt_steps" (Json.Int w.Rmachine.Nonclosure.halt_steps);
      info "looping_pair" (ints [ y2; z2 ]);
      info "looping_searched_to"
        (Json.Int (10 * w.Rmachine.Nonclosure.halt_steps));
      bool_is "same_liso_class"
        (Localiso.Liso.check_same db [| y1; z1 |] [| y2; z2 |])
        true;
      bool_is "witness_verifies" (Rmachine.Nonclosure.verify w) true;
    ]

(* ------------------------------------------------------------------ *)
(* E5: Proposition 2.5 — the genericity refutation construction        *)

let e5 () =
  let decide db u =
    Rmachine.Oracle_rm.decider Rmachine.Oracle_rm.exists_forward_edge
      ~fuel:2000 db u
  in
  let b1 = Rdb.Instances.paper_b1 () and b2 = Rdb.Instances.paper_b2 () in
  let cert = Core.Genericity.refute ~decide ~b1 ~u:[| 0 |] ~b2 ~v:[| 2 |] in
  experiment "E5"
    "Prop 2.5: B₃/B₄ from the §2 ∃-query run as an oracle register machine"
    (bool_is "certificate_found" (Option.is_some cert) true
    ::
    (match cert with
    | None -> []
    | Some cert ->
        [
          bool_is "b3_answer" cert.Core.Genericity.answer3 true;
          bool_is "b4_answer" cert.Core.Genericity.answer4 false;
          info "support_size"
            (Json.Int (List.length cert.Core.Genericity.support));
          bool_is "certificate_verifies" (Core.Genericity.verify cert) true;
        ]))

(* ------------------------------------------------------------------ *)
(* E6: Proposition 3.1 — stretching                                    *)

let e6 () =
  let stretched (inst, classes) =
    let path = List.hd (Hs.Hsdb.paths inst 1) in
    int_is (Hs.Hsdb.name inst)
      (Hs.Hsdb.class_count (Hs.Hsdb.stretch inst ~by:path) 1)
      classes
  in
  (* Distinct classes among the first k nodes, one representative kept
     per class. *)
  let classes_upto same (k, classes) =
    let reps =
      List.fold_left
        (fun reps x -> if List.exists (same x) reps then reps else x :: reps)
        [] (Ints.range 0 k)
    in
    int_is (Printf.sprintf "k%d" k) (List.length reps) classes
  in
  experiment "E6"
    "Prop 3.1: rank-1 classes of stretchings; the line and the grid grow \
     without bound"
    [
      group "stretched_hs"
        (List.map stretched
           [
             (Hs.Hsinstances.infinite_clique (), 2);
             (Hs.Hsinstances.mod_cliques 3, 3);
             (Hs.Hsinstances.triangles (), 3);
           ]);
      group "line_zero_x_classes"
        (List.map
           (classes_upto (fun x y ->
                Hs.Hsinstances.line_equiv [| 0; x |] [| 0; y |]))
           [ (8, 5); (16, 9); (32, 17); (64, 33) ]);
      group "grid_marked_classes"
        (List.map
           (classes_upto Hs.Hsinstances.grid_marked_equiv)
           [ (9, 4); (25, 8); (49, 12); (100, 20) ]);
    ]

(* ------------------------------------------------------------------ *)
(* E7: Proposition 3.2 — random structures are highly symmetric        *)

let e7 () =
  let rado = Hs.Hsinstances.rado () in
  let rng = Ints.Rng.make 41 in
  let trials = 400 in
  let agree =
    successes trials (fun () ->
        let n = 1 + Ints.Rng.int rng 3 in
        let u = Array.init n (fun _ -> Ints.Rng.int rng 9) in
        let v = Array.init n (fun _ -> Ints.Rng.int rng 9) in
        Hs.Hsdb.equiv rado u v = Localiso.Liso.check_same (Hs.Hsdb.db rado) u v)
  in
  (* Loop-free symmetric diagrams: the diagrams of a simple graph. *)
  let graph_diagram d =
    let m = Localiso.Diagram.blocks d in
    let edge x y = Localiso.Diagram.atom d ~rel:0 [| x; y |] in
    List.for_all
      (fun x ->
        (not (edge x x))
        && List.for_all (fun y -> edge x y = edge y x) (Ints.range 0 m))
      (Ints.range 0 m)
  in
  let rank (n, classes) =
    let tn = Hs.Hsdb.class_count rado n in
    group (Printf.sprintf "rank%d" n)
      [
        int_is "classes" tn classes;
        int_is "graph_diagrams"
          (List.length
             (Localiso.Diagram.enumerate ~keep:graph_diagram ~db_type:[| 2 |]
                ~rank:n ()))
          tn;
      ]
  in
  experiment "E7" "Prop 3.2: on the Rado graph, ≅_B coincides with ≅ₗ"
    (int_is "agree_with_liso" agree trials
    :: List.map rank [ (1, 1); (2, 3); (3, 15) ])

(* ------------------------------------------------------------------ *)
(* E8: Propositions 3.5/3.6 — the fixed r₀                             *)

let e8 () =
  experiment "E8" "Prop 3.6: least r with V^n_r all singletons"
    (List.map
       (fun (inst, r1, r2) ->
         group (Hs.Hsdb.name inst)
           [
             int_is "r0_n1" (Hs.Ef.r0 inst ~n:1) r1;
             int_is "r0_n2" (Hs.Ef.r0 inst ~n:2) r2;
           ])
       [
         (Hs.Hsinstances.infinite_clique (), 0, 0);
         (Hs.Hsinstances.mod_cliques 2, 0, 0);
         (Hs.Hsinstances.triangles (), 0, 0);
         ( Hs.Hsinstances.disjoint_copies
             [ Hs.Hsinstances.undirected_path_component 3 ],
           2,
           2 );
         (Hs.Hsinstances.unary_finite_set ~members:[ 0; 1; 2 ], 0, 0);
       ])

(* ------------------------------------------------------------------ *)
(* E9: Proposition 3.7 / Corollary 3.3                                 *)

let e9 () =
  experiment "E9" "Prop 3.7: V^{n+1}_r ↓ = V^n_{r+1}"
    (List.map
       (fun inst ->
         group (Hs.Hsdb.name inst)
           (List.map
              (fun (n, r) ->
                let lhs = Hs.Ef.down inst ~n (Hs.Ef.vnr inst ~n:(n + 1) ~r) in
                let rhs = Hs.Ef.vnr inst ~n ~r:(r + 1) in
                bool_is
                  (Printf.sprintf "n%d_r%d" n r)
                  (Hs.Ef.same_partition lhs rhs)
                  true)
              [ (1, 0); (1, 1); (2, 0); (2, 1) ]))
       [
         Hs.Hsinstances.mod_cliques 2;
         Hs.Hsinstances.triangles ();
         Hs.Hsinstances.disjoint_copies
           [ Hs.Hsinstances.undirected_path_component 3 ];
       ])

(* ------------------------------------------------------------------ *)
(* E10: Theorem 3.1 — QL_hs computes what it should                    *)

let e10 () =
  let arrows () =
    Hs.Hsinstances.disjoint_copies [ Hs.Hsinstances.directed_edge_component ]
  in
  experiment "E10" "Thm 3.1: QL_hs vs direct evaluation (windowed, cutoff 5)"
    (List.map
       (fun (key, inst, term, query) ->
         let value = Ql.Ql_hs.eval_term inst term in
         let got = Ql.Ql_hs.denotation inst value ~cutoff:5 in
         let expected =
           Hs.Fo_eval.eval_upto inst (Rlogic.Parser.query query) ~cutoff:5
         in
         group key
           [
             info "instance" (Json.String (Hs.Hsdb.name inst));
             info "term" (Json.String (Ql.Ql_ast.term_to_string term));
             info "query" (Json.String query);
             bool_is "agree" (Tupleset.equal got expected) true;
           ])
       [
         ( "complement",
           Hs.Hsinstances.triangles (),
           Ql.Ql_ast.Comp (Ql.Ql_ast.Rel 0),
           "{(x, y) | !R1(x, y)}" );
         ( "union_with_E",
           Hs.Hsinstances.triangles (),
           Ql.Ql_macros.union (Ql.Ql_ast.Rel 0) Ql.Ql_ast.E,
           "{(x, y) | R1(x, y) || x = y}" );
         ( "swap",
           arrows (),
           Ql.Ql_ast.Swap (Ql.Ql_ast.Rel 0),
           "{(x, y) | R1(y, x)}" );
         ( "projection",
           arrows (),
           Ql.Ql_ast.Down (Ql.Ql_ast.Rel 0),
           "{(y) | exists x. R1(x, y)}" );
         ( "difference",
           Hs.Hsinstances.rado (),
           Ql.Ql_macros.diff (Ql.Ql_ast.Comp (Ql.Ql_ast.Rel 0)) Ql.Ql_ast.E,
           "{(x, y) | !R1(x, y) && x != y}" );
       ])

(* ------------------------------------------------------------------ *)
(* E11: counters in QL_hs                                              *)

let e11 () =
  let clique = Hs.Hsinstances.infinite_clique () in
  let counter (key, program, expected_rank) =
    group key
      (match Ql.Ql_hs.run clique ~fuel:200 program with
      | Ql.Ql_interp.Halted store ->
          [
            int_is "rank" store.(0).Ql.Ql_hs.rank expected_rank;
            bool_is "nonempty"
              (not (Tupleset.is_empty store.(0).Ql.Ql_hs.reps))
              true;
          ]
      | _ -> [ bool_is "halted" false true ])
  in
  (* A genuine while loop (the |Y|=1 test of footnote 8). *)
  let single_loop =
    Ql.Ql_macros.seq
      [
        Ql.Ql_ast.Assign (0, Ql.Ql_macros.truth);
        Ql.Ql_ast.While_single (0, Ql.Ql_ast.Assign (0, Ql.Ql_macros.falsity));
      ]
  in
  let diverging =
    Ql.Ql_ast.While_empty (1, Ql.Ql_ast.Assign (0, Ql.Ql_ast.E))
  in
  experiment "E11" "Thm 3.1: counter power (numbers as ranks)"
    (List.map counter
       [
         ("zero", Ql.Ql_macros.counter_zero 0, 0);
         ( "plus3",
           Ql.Ql_macros.seq
             [
               Ql.Ql_macros.counter_zero 0; Ql.Ql_macros.counter_add_const 0 3;
             ],
           3 );
         ( "plus3_minus1",
           Ql.Ql_macros.seq
             [
               Ql.Ql_macros.counter_zero 0;
               Ql.Ql_macros.counter_add_const 0 3;
               Ql.Ql_macros.counter_decr 0;
             ],
           2 );
       ]
    @ [
        bool_is "while_single_halts_empty"
          (match Ql.Ql_hs.run clique ~fuel:100 single_loop with
          | Ql.Ql_interp.Halted store ->
              Tupleset.is_empty store.(0).Ql.Ql_hs.reps
          | _ -> false)
          true;
        bool_is "diverging_times_out"
          (Ql.Ql_hs.run clique ~fuel:50 diverging = Ql.Ql_interp.Timeout)
          true;
      ])

(* ------------------------------------------------------------------ *)
(* E12: Proposition 4.1 — Df from the tree                             *)

let fin rank lists = Fincof.Fcf.finite ~rank (Tupleset.of_lists lists)
let cof rank lists = Fincof.Fcf.cofinite ~rank (Tupleset.of_lists lists)

let e12 () =
  let open Fincof in
  experiment "E12" "Prop 4.1: fcf ↔ hs conversions; Df recovered from the tree"
    (List.map
       (fun (key, db) ->
         let df = Fcfdb.df db in
         group key
           [
             info "df" (ints df);
             bool_is "recovered_from_tree"
               (Fcfdb.df_from_tree (Fcfdb.to_hsdb db) = Some df)
               true;
           ])
       [
         ("unary012", Fcfdb.make [ fin 1 [ [ 0 ]; [ 1 ]; [ 2 ] ] ]);
         ("mixed", Fcfdb.make [ fin 1 [ [ 0 ]; [ 1 ] ]; cof 2 [ [ 2; 2 ] ] ]);
         ("empty_df", Fcfdb.make [ fin 2 [] ]);
         ("cofinite_unary", Fcfdb.make [ cof 1 [ [ 4 ] ] ]);
       ])

(* ------------------------------------------------------------------ *)
(* E13: Proposition 4.2 — the fcf algebra                              *)

let pp_fcf v = Json.String (Format.asprintf "%a" Fincof.Fcf.pp v)

let e13 () =
  let open Fincof in
  let down2 = Fcf.drop_first (cof 2 [ [ 0; 1 ]; [ 2; 2 ] ]) in
  let down1 = Fcf.drop_first (cof 1 [ [ 7 ] ]) in
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
  let pointwise =
    successes trials (fun () ->
        let a = random_fcf () and b = random_fcf () in
        let agrees op sem =
          List.for_all
            (fun x ->
              Fcf.mem (op a b) [| x |]
              = sem (Fcf.mem a [| x |]) (Fcf.mem b [| x |]))
            (Ints.range 0 8)
        in
        agrees Fcf.inter ( && ) && agrees Fcf.union ( || ))
  in
  experiment "E13" "Prop 4.2: projections of finite/co-finite relations"
    [
      info "cofinite_rank2_down" (pp_fcf down2);
      bool_is "cofinite_rank2_down_is_full_D1"
        (Fcf.equal down2 (Fcf.full ~rank:1))
        true;
      info "cofinite_rank1_down" (pp_fcf down1);
      bool_is "cofinite_rank1_down_is_finite_D0"
        (Fcf.is_finite_rel down1 && Fcf.equal down1 (Fcf.full ~rank:0))
        true;
      int_is "pointwise_inter_union_agree" pointwise trials;
    ]

(* ------------------------------------------------------------------ *)
(* E14: Proposition 4.3 — QL_f+                                        *)

let e14 () =
  let open Fincof in
  let db = Fcfdb.make [ fin 1 [ [ 0 ]; [ 1 ] ]; cof 2 [ [ 2; 2 ] ] ] in
  (* |Y| < ∞ in action. *)
  let flip =
    Ql.Ql_macros.seq
      [
        Ql.Ql_ast.Assign (0, Ql.Ql_ast.Rel 0);
        Ql.Ql_ast.While_finite
          (0, Ql.Ql_ast.Assign (0, Ql.Ql_ast.Comp (Ql.Ql_ast.Var 0)));
      ]
  in
  experiment "E14" "Prop 4.3: QL_f+ vs the fcf algebra"
    (List.map
       (fun (key, term, expected) ->
         let got = Qlf.eval_term db term in
         group key
           [
             info "value" (pp_fcf got);
             bool_is "ok" (Fcf.equal got expected) true;
           ])
       [
         ("rel1", Ql.Ql_ast.Rel 0, fin 1 [ [ 0 ]; [ 1 ] ]);
         ("not_rel1", Ql.Ql_ast.Comp (Ql.Ql_ast.Rel 0), cof 1 [ [ 0 ]; [ 1 ] ]);
         ("rel2_down", Ql.Ql_ast.Down (Ql.Ql_ast.Rel 1), Fcf.full ~rank:1);
         ( "rel1_up",
           Ql.Ql_ast.Up (Ql.Ql_ast.Rel 0),
           fin 2 [ [ 0; 0 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 0 ]; [ 1; 1 ]; [ 1; 2 ] ]
         );
       ]
    @ [
        bool_is "while_finite_flips_to_cofinite"
          (match Qlf.output (Qlf.run db ~fuel:100 flip) with
          | Some (_, cofinite) -> cofinite
          | None -> false)
          true;
      ])

(* ------------------------------------------------------------------ *)
(* E15: Theorem 5.1 — generic machines                                 *)

let e15 () =
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
  (* [spec ~out] is the program writing its answer to register [out],
     the first free one of the instance; [probe] registers follow it. *)
  let program (key, inst, spec, expected, (steps, peak, collapses)) =
    let reg = Genmach.Gm_programs.output_reg inst in
    group key
      (match Genmach.Gm.run (spec ~out:reg) inst ~fuel:300 with
      | None -> [ bool_is "halted" false true ]
      | Some result ->
          [
            int_is "steps" result.Genmach.Gm.steps steps;
            int_is "peak_units" result.Genmach.Gm.peak_units peak;
            int_is "collapses" result.Genmach.Gm.collapses collapses;
            bool_is "correct"
              (match Genmach.Gm.output result ~reg with
              | Some got -> Tupleset.equal got expected
              | None -> false)
              true;
          ])
  in
  let open Genmach.Gm_programs in
  let reps = Hs.Hsdb.reps in
  let ql inst term = (Ql.Ql_hs.eval_term inst term).Ql.Ql_hs.reps in
  experiment "E15" "Thm 5.1: GM_hs programs (spawn / collapse / oracle use)"
    (List.map program
       [
         ("load_C2", tri2, load_relation ~rel:1, reps tri2 1, (5, 2, 1));
         ( "union_C1_C2",
           tri2,
           union ~rel1:0 ~rel2:1,
           Tupleset.union (reps tri2 0) (reps tri2 1),
           (9, 2, 1) );
         ( "inter_C1_C2_by_equiv",
           tri2,
           inter_by_equiv ~rel1:0 ~rel2:1,
           Tupleset.inter (reps tri2 0) (reps tri2 1),
           (8, 2, 1) );
         ( "up_C1_offspring",
           tri,
           up ~rel:0,
           ql tri (Ql.Ql_ast.Up (Ql.Ql_ast.Rel 0)),
           (8, 4, 3) );
         (* The full Theorem 5.1 loading protocol: probe rounds,
            collapse, every insertion order explored. *)
         ( "full_loading_protocol",
           tri2,
           (fun ~out -> load_all ~out ~probe:(out + 1) ~rel:1),
           reps tri2 1,
           (40, 5, 8) );
         (* Negation by probe register: GM_hs computes ¬Rel1. *)
         ( "complement_via_probe",
           tri,
           (fun ~out -> complement ~out ~probe:(out + 1) ~rel:0),
           ql tri (Ql.Ql_ast.Comp (Ql.Ql_ast.Rel 0)),
           (13, 3, 2) );
       ])

(* ------------------------------------------------------------------ *)
(* E16: Theorem 6.1 — the gadget                                       *)

let e16 () =
  let open Bptheory in
  let graph vertices edges = { Gadget.vertices; edges } in
  let triangle = graph [ 0; 1; 2 ] [ (0, 1); (1, 2); (0, 2) ] in
  let path3 = graph [ 0; 1; 2 ] [ (0, 1); (1, 2) ] in
  let path3b = graph [ 7; 8; 9 ] [ (8, 7); (8, 9) ] in
  let square = graph [ 0; 1; 2; 3 ] [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let star4 = graph [ 0; 1; 2; 3 ] [ (0, 1); (0, 2); (0, 3) ] in
  let g = Gadget.build ~g1:triangle ~g2:path3 in
  experiment "E16" "Thm 6.1: b ≅_B c iff G₁ ≅ G₂"
    (List.map
       (fun (key, g1, g2, iso) ->
         let graphs_iso = Gadget.graphs_isomorphic g1 g2 in
         group key
           [
             bool_is "graphs_isomorphic" graphs_iso iso;
             bool_is "b_equiv_c" (Gadget.b_equiv_c (Gadget.build ~g1 ~g2))
               graphs_iso;
           ])
       [
         ("triangle/triangle", triangle, triangle, true);
         ("triangle/path3", triangle, path3, false);
         ("path3/path3'", path3, path3b, true);
         ("square/star4", square, star4, false);
         ("square/square", square, square, true);
       ]
    @ [
        bool_is "separating_relation_preserves_automorphisms"
          (Gadget.preserves_automorphisms g (Gadget.separating_relation g))
          true;
      ])

(* ------------------------------------------------------------------ *)
(* E17: Theorem 6.3 — representatives vs naive evaluation              *)

(* The cost of each evaluation is counted in Def. 3.9 questions, not
   timed: the representatives' cost is fixed by the sentence, the naive
   evaluator's grows with the cutoff. *)
let e17 () =
  let cutoffs = [ 6; 12; 18 ] in
  let sentence (key, text, truth, strict) =
    let f = Rlogic.Parser.formula text in
    (* a fresh instance, so the tree walk starts cold *)
    let tri = Hs.Hsinstances.triangles () in
    let db = Hs.Hsdb.db tri in
    Hs.Hsdb.reset_oracle_calls tri;
    Rdb.Database.reset_oracle_calls db;
    let reps = Hs.Fo_eval.eval_sentence tri f in
    let tb, equiv = Hs.Hsdb.oracle_calls tri in
    let reps_ri = Rdb.Database.oracle_calls db in
    let naive =
      List.map
        (fun cutoff ->
          Rdb.Database.reset_oracle_calls db;
          let answer = Rlogic.Qf_eval.eval_bounded db ~cutoff ~env:[] f in
          (cutoff, answer, Rdb.Database.oracle_calls db))
        cutoffs
    in
    let questions = List.map (fun (_, _, q) -> q) naive in
    let rec rising cmp = function
      | a :: (b :: _ as rest) -> cmp a b && rising cmp rest
      | _ -> true
    in
    group key
      ([
         info "sentence" (Json.String text);
         bool_is "reps_answer" reps truth;
         info "reps_tb_questions" (Json.Int tb);
         info "reps_equiv_questions" (Json.Int equiv);
         info "reps_ri_questions" (Json.Int reps_ri);
       ]
      @ List.map
          (fun (cutoff, answer, q) ->
            group
              (Printf.sprintf "naive_cutoff%d" cutoff)
              [
                bool_is "answer" answer reps;
                info "ri_questions" (Json.Int q);
              ])
          naive
      @ [ bool_is "naive_questions_never_fall" (rising ( <= ) questions) true ]
      @
      if strict then
        [ bool_is "naive_questions_grow" (rising ( < ) questions) true ]
      else [])
  in
  experiment "E17"
    "Thm 6.3: FO evaluation over representatives vs domain cutoffs 6/12/18 \
     (the representatives' questions do not depend on any cutoff)"
    (List.map sentence
       [
         ( "complete",
           "forall x. forall y. x != y -> R1(x, y)",
           false,
           false );
         ("has_edge", "exists x. exists y. R1(x, y)", true, false);
         ( "extension",
           "forall x. forall y. R1(x, y) -> (exists z. R1(x, z) && R1(y, z))",
           true,
           true );
         ( "dominating_vertex",
           "exists x. forall y. y != x -> R1(x, y)",
           false,
           false );
       ])

(* ------------------------------------------------------------------ *)
(* E18: Corollary 3.1 — elementary equivalence                         *)

let e18 () =
  experiment "E18"
    "Cor 3.1: elementary equivalence ⇔ isomorphism (hs case); rounds capped \
     at 4"
    (List.map
       (fun (t1, t2, round) ->
         let key = Hs.Hsdb.name t1 ^ "/" ^ Hs.Hsdb.name t2 in
         group key
           (round_is "separated_at_round"
              (Hs.Elem.distinguishing_round ~cap:4 t1 t2)
              round
           ::
           (match Hs.Elem.separating_sentence ~cap:4 t1 t2 with
           | Some s ->
               [
                 info "sentence_nodes" (Json.Int (Rlogic.Ast.size s));
                 info "sentence_qr" (Json.Int (Rlogic.Ast.quantifier_rank s));
               ]
           | None -> [])))
       [
         ( Hs.Hsinstances.infinite_clique (),
           Hs.Hsinstances.empty_graph (),
           Some 2 );
         (Hs.Hsinstances.mod_cliques 2, Hs.Hsinstances.mod_cliques 3, Some 3);
         ( Hs.Hsinstances.triangles (),
           Hs.Hsinstances.infinite_clique (),
           Some 2 );
         (Hs.Hsinstances.triangles (), Hs.Hsinstances.triangles (), None);
         (Hs.Hsinstances.mod_cliques 2, Hs.Hsinstances.mod_cliques 2, None);
       ])

(* ------------------------------------------------------------------ *)
(* E19: the §3.2 counterexamples — non-hs structures where elementary  *)
(* equivalence does not decide isomorphism                             *)

let e19 () =
  let one = { Hs.Lines.nlines = 1 } and two = { Hs.Lines.nlines = 2 } in
  experiment "E19"
    "§3.2: one line vs two lines — elementarily equivalent, not isomorphic"
    (List.map
       (fun r ->
         bool_is
           (Printf.sprintf "duplicator_survives_r%d" r)
           (Hs.Lines.strategy_wins ~a:one ~b:two ~r)
           true)
       [ 1; 2; 3 ]
    @ [ bool_is "isomorphic" (Hs.Lines.isomorphic one two) false ])

(* ------------------------------------------------------------------ *)
(* E20: Prop 3.2 beyond graphs — a random structure of type (1,2)      *)

let e20 () =
  let rc = Hs.Hsinstances.random_colored_graph () in
  let rng = Ints.Rng.make 99 in
  let trials = 300 in
  let agree =
    successes trials (fun () ->
        let n = 1 + Ints.Rng.int rng 2 in
        let u = Array.init n (fun _ -> Ints.Rng.int rng 8) in
        let v = Array.init n (fun _ -> Ints.Rng.int rng 8) in
        Hs.Hsdb.equiv rc u v = Localiso.Liso.check_same (Hs.Hsdb.db rc) u v)
  in
  experiment "E20" "Prop 3.2 for type (1,2): the coloured random structure"
    ([
       int_is "classes_rank1" (Hs.Hsdb.class_count rc 1) 2;
       int_is "classes_rank2" (Hs.Hsdb.class_count rc 2) 10;
       int_is "agree_with_liso" agree trials;
     ]
    @ List.map
        (fun (key, s) ->
          bool_is key
            (Hs.Fo_eval.eval_sentence rc (Rlogic.Parser.formula s))
            true)
        [
          ( "neighbour_of_each_colour",
            "forall x. (exists y. R2(x, y) && R1(y)) && (exists z. R2(x, z) \
             && !R1(z))" );
          ("both_colours_inhabited", "(exists x. R1(x)) && (exists y. !R1(y))");
        ])

(* ------------------------------------------------------------------ *)
(* E21: ablations — algorithmic choices called out in DESIGN.md        *)

let e21 () =
  let p3 =
    Hs.Hsinstances.disjoint_copies
      [ Hs.Hsinstances.undirected_path_component 3 ]
  in
  let db = Rdb.Instances.triangles () in
  (* 1. Partition refinement vs the direct game recursion for V^2_2:
     two paths share a class iff the game says they are ≡_2. *)
  let part = Hs.Ef.vnr p3 ~n:2 ~r:2 in
  let game_disagreements =
    let n = Array.length part.Hs.Ef.items in
    let bad = ref 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if
          part.Hs.Ef.cls.(i) = part.Hs.Ef.cls.(j)
          <> Hs.Ef.equiv_r p3 ~r:2 part.Hs.Ef.items.(i) part.Hs.Ef.items.(j)
        then incr bad
      done
    done;
    !bad
  in
  (* 2. The three-part liso test vs the brute-force restriction check,
     on (0,1,3) ≅ₗ (3,4,0) and on every rank-3 tuple over 0..4 against
     (3,4,0). *)
  let v = [| 3; 4; 0 |] in
  let liso_disagreements =
    List.length
      (List.filter
         (fun u ->
           Localiso.Liso.check_same db u v
           <> Localiso.Liso.check_bruteforce db u db v)
         ([| 0; 1; 3 |]
         :: Combinat.fold_cartesian
              (fun acc u -> Array.copy u :: acc)
              [] ~width:3 ~bound:5))
  in
  experiment "E21"
    "Ablations: partition refinement gives the direct game's classes, the \
     three-part liso test agrees with the brute-force check, and extension \
     dedup keeps one child per class"
    [
      info "vnr_classes_n2_r2" (Json.Int part.Hs.Ef.nclasses);
      int_is "vnr_vs_direct_game_disagreements_n2_r2" game_disagreements 0;
      bool_is "liso_013_340" (Localiso.Liso.check_same db [| 0; 1; 3 |] v)
        (Localiso.Liso.check_bruteforce db [| 0; 1; 3 |] db v);
      int_is "liso_three_part_vs_bruteforce_disagreements_rank3"
        liso_disagreements 0;
      (* 3. Extension dedup in the generic components builder keeps the
         tree at one representative per class. *)
      int_is "children_01_triangles"
        (List.length
           (Hs.Hsdb.children (Hs.Hsinstances.triangles ()) [| 0; 1 |]))
        4;
    ]

(* ------------------------------------------------------------------ *)
(* E22: the Corollary 3.1 amalgam, as a constructed hs database        *)

let e22 () =
  let tri = Hs.Hsinstances.triangles () in
  let am_iso, a1, b1 =
    Hs.Elem.amalgam ~cross:(Some (Hs.Hsdb.equiv tri)) tri
      (Hs.Hsinstances.triangles ())
  in
  let am_diff, a2, b2 =
    Hs.Elem.amalgam (Hs.Hsinstances.infinite_clique ())
      (Hs.Hsinstances.empty_graph ())
  in
  experiment "E22" "Cor 3.1 construction: the amalgam (D₁ ⊎ D₂ ⊎ {a, b}, E)"
    [
      bool_is "triangles_triangles_a_equiv_b"
        (Hs.Hsdb.equiv am_iso [| a1 |] [| b1 |])
        true;
      bool_is "clique_empty_a_equiv_b" (Hs.Hsdb.equiv am_diff [| a2 |] [| b2 |])
        false;
      round_is "clique_empty_separated_at_round"
        (List.find_opt
           (fun r -> not (Hs.Ef.equiv_r am_diff ~r [| a2 |] [| b2 |]))
           (Ints.range 0 4))
        (Some 2);
      int_is "clique_empty_classes_rank1" (Hs.Hsdb.class_count am_diff 1) 4;
      int_is "clique_empty_classes_rank2" (Hs.Hsdb.class_count am_diff 2) 18;
    ]

(* ------------------------------------------------------------------ *)
(* E23: oracle complexity in the paper's own cost model               *)

(* The committed baseline: (T_B, ≅_B, Rᵢ) questions per operation, on a
   fresh instance whose memo starts cold and warms operation by
   operation.  Any difference fails the report; a change that lowers a
   count edits this table. *)
let e23_baseline () =
  [
    ( Hs.Hsinstances.triangles (),
      [ (2, 0, 0); (0, 2, 0); (0, 1, 3); (1, 0, 8) ] );
    ( Hs.Hsinstances.mod_cliques 2,
      [ (2, 0, 0); (0, 3, 0); (0, 1, 3); (1, 0, 8) ] );
    (Hs.Hsinstances.rado (), [ (2, 0, 0); (0, 2, 8); (0, 1, 7); (1, 0, 12) ]);
  ]

let e23 () =
  let sentence =
    Rlogic.Parser.formula
      "forall x. forall y. R1(x, y) -> (exists z. R1(x, z) && R1(y, z))"
  in
  let operations =
    [
      ("paths_rank2", fun inst -> ignore (Hs.Hsdb.paths inst 2));
      ( "representative_rank2",
        fun inst -> ignore (Hs.Hsdb.representative inst [| 4; 5 |]) );
      ("rel_mem", fun inst -> ignore (Hs.Hsdb.rel_mem inst 0 [| 4; 5 |]));
      ( "fo_sentence_qr3",
        fun inst -> ignore (Hs.Fo_eval.eval_sentence inst sentence) );
    ]
  in
  let measure inst (key, op) (tb, equiv, ri) =
    Hs.Hsdb.reset_oracle_calls inst;
    Rdb.Database.reset_oracle_calls (Hs.Hsdb.db inst);
    op inst;
    let c, e = Hs.Hsdb.oracle_calls inst in
    group key
      [
        int_is "tb" c tb;
        int_is "equiv" e equiv;
        int_is "ri" (Rdb.Database.oracle_calls (Hs.Hsdb.db inst)) ri;
      ]
  in
  experiment "E23"
    "Oracle complexity: questions to T_B / ≅_B / the relations (Defs 2.4, \
     3.9); T_B answers are memoized, so repeated tree walks add none"
    (List.map
       (fun (inst, counts) ->
         group (Hs.Hsdb.name inst) (List.map2 (measure inst) operations counts))
       (e23_baseline ()))

(* ------------------------------------------------------------------ *)

let run () =
  let fields, violations =
    List.split
      (List.map
         (fun e -> e ())
         [
           e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13; e14; e15;
           e16; e17; e18; e19; e20; e21; e22; e23;
         ])
  in
  let violations = List.concat violations in
  ( Json.Obj
      ((("experiment", Json.String "E1-E23 paper") :: fields)
      @ [ ("violations", Bench_util.strings violations) ]),
    violations )
