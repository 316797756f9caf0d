(* ------------------------------------------------------------------ *)
(* The instance registry — the single source of truth for the names
   servable by engines and by the recdb CLI.                           *)

let builders : (string * (unit -> Hs.Hsdb.t)) list =
  [
    ("clique", fun () -> Hs.Hsinstances.infinite_clique ());
    ("empty", fun () -> Hs.Hsinstances.empty_graph ());
    ("mod2", fun () -> Hs.Hsinstances.mod_cliques 2);
    ("mod3", fun () -> Hs.Hsinstances.mod_cliques 3);
    ("triangles", fun () -> Hs.Hsinstances.triangles ());
    ( "paths3",
      fun () ->
        Hs.Hsinstances.disjoint_copies
          [ Hs.Hsinstances.undirected_path_component 3 ] );
    ( "arrows",
      fun () ->
        Hs.Hsinstances.disjoint_copies
          [ Hs.Hsinstances.directed_edge_component ] );
    ("rado", fun () -> Hs.Hsinstances.rado ());
    ("colored", fun () -> Hs.Hsinstances.random_colored_graph ());
    ("bipartite", fun () -> Hs.Hsinstances.complete_bipartite ());
    ("unary012", fun () -> Hs.Hsinstances.unary_finite_set ~members:[ 0; 1; 2 ]);
  ]

let instance_names () = List.map fst builders

let build_instance name =
  Option.map (fun build -> build ()) (List.assoc_opt name builders)

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)

type config = {
  limits : Resilience.limits;
  retry : Resilience.retry;
  faults : Faulty_oracle.config option;
  decls : (string * Incomplete.Decl.t) list;
      (* per-instance completeness declarations; instances without one
         are fully total and always answer exactly *)
  default_mode : Request.mode;
      (* applied to requests that carry no mode of their own *)
}

let default_config =
  {
    limits = Resilience.no_limits;
    retry = Resilience.default_retry;
    faults = None;
    decls = [];
    default_mode = Request.M_exact;
  }

(* The per-worker compiled tier: closures specialized against this
   entry's instrumented oracles, keyed by source text (RQL keys carry
   the planner mode).  Plan ASTs stay in Shared_memo — instance-free
   and shareable; the closures here are the per-entry specialization
   of those ASTs and are rebuilt in nanoseconds-to-microseconds on
   first use (counted by engine.plans_compiled / engine.compile_ns).
   Plain hashtables: an engine is single-threaded (see the mli),
   concurrency comes from Pool giving each domain its own engine. *)
type compiled_tier = {
  c_sentences : (string, unit -> bool) Hashtbl.t;
  c_queries : (string, Hs.Fo_compile.query) Hashtbl.t;
  c_programs : (string, Ql.Ql_hs.value Ql.Ql_compile.t) Hashtbl.t;
  c_rql : (string, Rql.Rql_compile.prepared) Hashtbl.t;
  c_members : (string, string) Hashtbl.t option;
      (* the member memo (see [relation]): present exactly when the
         entry has a shared memo *)
  c_algebra : Ql.Ql_hs.value Ql.Ql_interp.algebra Lazy.t;
      (* the QL_hs operation table, hoisted once per entry — building
         it is pure closure allocation, so per-entry vs per-run makes
         no ledger difference *)
}

type entry = {
  hs : Hs.Hsdb.t;  (* instance whose Rᵢ oracles go through the LRU *)
  base : Hs.Hsdb.t;  (* the raw instance: its counters are the ledger *)
  raw_db : Rdb.Database.t;  (* original relations: genuine questions *)
  caches : Oracle_cache.t array;
  ledger : Obs.Trace.ledger;
      (* read-only snapshot closure over exactly the counters [snapshot]
         reads, so traced span slices sum to the request's stats *)
  compiled : compiled_tier;
  decl : Incomplete.Decl.t option;
      (* completeness declaration, validated at construction *)
}

type t = {
  entries : (string * entry Lazy.t) list;
  config : config;
  shared : Shared_memo.t option;
  res : Resilience.t;
  faults : Faulty_oracle.t option;
  trace : Obs.Trace.t option;
  m_requests : Metrics.counter;
  m_errors : Metrics.counter;
  m_oracle_calls : Metrics.counter;
  m_cache_hits : Metrics.counter;
  m_latency : Metrics.histogram;
  m_retries : Metrics.counter;
  m_budget_hits : Metrics.counter;
  m_deadline_hits : Metrics.counter;
  m_fault_failures : Metrics.counter;
  (* per-mode and per-certificate-kind serving counters (exact-mode
     requests are m_requests minus the three mode counters) *)
  m_mode_certain : Metrics.counter;
  m_mode_possible : Metrics.counter;
  m_mode_approximate : Metrics.counter;
  m_cert_exact : Metrics.counter;
  m_cert_lower : Metrics.counter;
  m_cert_upper : Metrics.counter;
  m_cert_approx : Metrics.counter;
}

(* Per-relation LRU bound of every engine's oracle cache. *)
let cache_capacity = 4096

(* The oracle chain, innermost first: the raw instance (whose
   instrumented counters are this worker's Def. 3.9 ledger), the
   per-question guard (budget tick + fault hook, present only when
   resilience is configured), the cross-worker {!Shared_memo} (hits
   are not questions and skip the guard — the check fires only before
   a question that will actually be asked), and the per-worker
   LRU on top.  Without [shared] and without a guard this is PR 1's
   hot path, byte for byte. *)
let make_entry ~guarded ~res ~faults ~shared ~decl name build
    () =
  let base = build () in
  let raw_db = Hs.Hsdb.db base in
  (* A bad declaration is a construction failure, same as a bad builder:
     every request naming this instance gets the typed construction
     error rather than a silently-total instance. *)
  (match decl with
  | None -> ()
  | Some d -> (
      match Incomplete.Decl.validate d ~db_type:(Hs.Hsdb.db_type base) with
      | Ok () -> ()
      | Error msg ->
          failwith
            (Printf.sprintf "completeness declaration for %S: %s" name msg)));
  let pre oracle =
    Resilience.tick res;
    match faults with
    | None -> ()
    | Some fo -> Faulty_oracle.pre fo ~oracle
  in
  let guard_rel r =
    if not guarded then r
    else
      let oracle = Rdb.Relation.name r in
      Rdb.Relation.make ~name:oracle ~arity:(Rdb.Relation.arity r) (fun u ->
          pre oracle;
          Rdb.Relation.mem r u)
  in
  let relations = Rdb.Database.relations raw_db in
  let memo =
    Option.map
      (fun st -> Shared_memo.instance st ~name ~nrels:(Array.length relations))
      shared
  in
  let source_db =
    match memo with
    | None ->
        if not guarded then raw_db
        else
          Rdb.Database.make
            ~name:(Rdb.Database.name raw_db)
            ~domain:(Rdb.Database.domain raw_db)
            (Array.map guard_rel relations)
    | Some m ->
        Rdb.Database.make
          ~name:(Rdb.Database.name raw_db)
          ~domain:(Rdb.Database.domain raw_db)
          (Array.mapi
             (fun i r ->
               let g = guard_rel r in
               Rdb.Relation.make ~name:(Rdb.Relation.name r)
                 ~arity:(Rdb.Relation.arity r)
                 (fun u ->
                   Shared_memo.rel m i u ~compute:(fun () ->
                       Rdb.Relation.mem g u)))
             relations)
  in
  let cached_db, caches =
    Oracle_cache.wrap_db ~capacity:cache_capacity source_db
  in
  let children_fn, equiv_fn =
    match memo with
    | None ->
        if not guarded then (Hs.Hsdb.children base, Hs.Hsdb.equiv base)
        else
          ( (fun u ->
              pre "T_B";
              Hs.Hsdb.children base u),
            fun u v ->
              pre "equiv_B";
              Hs.Hsdb.equiv base u v )
    | Some m ->
        let children u =
          Shared_memo.children m u ~compute:(fun () ->
              if guarded then pre "T_B";
              Hs.Hsdb.children base u)
        in
        (* A private first-level ≅_B memo: Hsdb does not memoize equiv,
           so without it every probe of a warm worker would still take
           a shared stripe lock.  Private hits are not questions (the
           base counter, our ledger, is untouched). *)
        let equiv_local : ((Prelude.Tuple.t * Prelude.Tuple.t), bool) Hashtbl.t
            =
          Hashtbl.create 1024
        in
        let equiv u v =
          match Hashtbl.find_opt equiv_local (u, v) with
          | Some b -> b
          | None ->
              let b =
                Shared_memo.equiv m u v ~compute:(fun () ->
                    if guarded then pre "equiv_B";
                    Hs.Hsdb.equiv base u v)
              in
              Hashtbl.add equiv_local (Array.copy u, Array.copy v) b;
              b
        in
        (children, equiv)
  in
  let hs =
    Hs.Hsdb.make ~name:(Hs.Hsdb.name base) ~db:cached_db ~children:children_fn
      ~equiv:equiv_fn ()
  in
  (* The trace ledger reads the same counters [snapshot] reads — raw
     per-relation calls, the base instance's T_B/≅_B calls, cache hits —
     plus the cross-worker memo's hit count.  The first [nrels + 2]
     labels are Def. 3.9 questions; the last two are observations.
     Reading never asks anything, so tracing cannot change a served
     byte. *)
  let ledger =
    let nrels = Array.length relations in
    let labels =
      Array.append
        (Array.map (fun r -> "q.rel." ^ Rdb.Relation.name r) relations)
        [| "q.tb"; "q.equiv"; "cache_hits"; "shared_hits" |]
    in
    let read () =
      let a = Array.make (nrels + 4) 0 in
      Array.iteri (fun i r -> a.(i) <- Rdb.Relation.calls r) relations;
      let tb, eq = Hs.Hsdb.oracle_calls base in
      a.(nrels) <- tb;
      a.(nrels + 1) <- eq;
      a.(nrels + 2) <- (Oracle_cache.total_stats caches).Oracle_cache.hits;
      a.(nrels + 3) <-
        (match shared with None -> 0 | Some st -> Shared_memo.total_hits st);
      a
    in
    { Obs.Trace.labels; questions = nrels + 2; read }
  in
  let compiled =
    {
      c_sentences = Hashtbl.create 16;
      c_queries = Hashtbl.create 16;
      c_programs = Hashtbl.create 16;
      c_rql = Hashtbl.create 16;
      c_members = Option.map (fun _ -> Hashtbl.create 64) memo;
      c_algebra = lazy (Ql.Ql_hs.algebra hs);
    }
  in
  { hs; base; raw_db; caches; ledger; compiled; decl }

let create ?(config = default_config) ?shared ?trace () =
  let res = Resilience.create () in
  let faults = Option.map Faulty_oracle.make config.faults in
  (* Pay the per-question guard only when resilience is configured; a
     plain engine keeps PR 1's unguarded hot path (E25 measures the
     difference). *)
  let guarded =
    (not (Resilience.unlimited config.limits)) || Option.is_some faults
  in
  {
    entries =
      List.map
        (fun (name, build) ->
          ( name,
            Lazy.from_fun
              (make_entry ~guarded ~res ~faults ~shared
                 ~decl:(List.assoc_opt name config.decls)
                 name build) ))
        builders;
    config;
    shared;
    res;
    faults;
    trace;
    m_requests = Metrics.counter "engine.requests";
    m_errors = Metrics.counter "engine.errors";
    m_oracle_calls = Metrics.counter "engine.oracle_calls";
    m_cache_hits = Metrics.counter "engine.cache_hits";
    m_latency = Metrics.histogram "engine.latency";
    m_retries = Metrics.counter "engine.retries";
    m_budget_hits = Metrics.counter "engine.budget_hits";
    m_deadline_hits = Metrics.counter "engine.deadline_hits";
    m_fault_failures = Metrics.counter "engine.fault_failures";
    m_mode_certain = Metrics.counter "engine.mode_certain";
    m_mode_possible = Metrics.counter "engine.mode_possible";
    m_mode_approximate = Metrics.counter "engine.mode_approximate";
    m_cert_exact = Metrics.counter "engine.cert_exact";
    m_cert_lower = Metrics.counter "engine.cert_certain_lower";
    m_cert_upper = Metrics.counter "engine.cert_possible_upper";
    m_cert_approx = Metrics.counter "engine.cert_approximate";
  }

let cache_stats t =
  List.fold_left
    (fun acc (_, entry) ->
      if Lazy.is_val entry then
        let s = Oracle_cache.total_stats (Lazy.force entry).caches in
        Oracle_cache.
          {
            hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            evictions = acc.evictions + s.evictions;
          }
      else acc)
    Oracle_cache.{ hits = 0; misses = 0; evictions = 0 }
    t.entries

(* ------------------------------------------------------------------ *)
(* Request evaluation                                                  *)

(* Guard rails for the combinatorial operations (shared with parse-time
   validation through Request.Bounds): class enumeration and tree
   expansion are exponential in rank/arity, so a serving engine bounds
   them rather than letting one request starve the pool.  Requests
   built in OCaml bypass Request.of_json, so the checks run here too. *)
let max_depth = Request.Bounds.max_depth
let max_cutoff = Request.Bounds.max_cutoff

let eval_classes ~db_type ~rank =
  match Request.validate_payload (Request.Classes { db_type; rank }) with
  | Error e -> Error e
  | Ok () -> Ok (Request.Count (Localiso.Diagram.count ~db_type ~rank))

(* Compiled-plan memoization: parses are pure functions of the source
   text, so their results — including parse {e failures} — are shared
   across workers.  Key prefixes keep the three syntactic categories
   apart in the one plan table; the impossible-variant fallbacks just
   re-parse. *)
let parse_sentence shared s =
  let compute () =
    match Rlogic.Parser.formula s with
    | f -> Ok f
    | exception Rlogic.Parser.Error msg -> Error msg
  in
  match shared with
  | None -> compute ()
  | Some st -> (
      match
        Shared_memo.plan st ~key:("s:" ^ s) ~compute:(fun () ->
            Shared_memo.Sentence_plan (compute ()))
      with
      | Shared_memo.Sentence_plan r -> r
      | _ -> compute ())

let parse_query shared s =
  let compute () =
    match Rlogic.Parser.query s with
    | q -> Ok q
    | exception Rlogic.Parser.Error msg -> Error msg
  in
  match shared with
  | None -> compute ()
  | Some st -> (
      match
        Shared_memo.plan st ~key:("q:" ^ s) ~compute:(fun () ->
            Shared_memo.Query_plan (compute ()))
      with
      | Shared_memo.Query_plan r -> r
      | _ -> compute ())

let parse_program shared s =
  let compute () =
    match Ql.Ql_parser.program s with
    | p -> Ok p
    | exception Ql.Ql_parser.Error msg -> Error msg
  in
  match shared with
  | None -> compute ()
  | Some st -> (
      match
        Shared_memo.plan st ~key:("p:" ^ s) ~compute:(fun () ->
            Shared_memo.Program_plan (compute ()))
      with
      | Shared_memo.Program_plan r -> r
      | _ -> compute ())

(* RQL plans are cached under the planner mode and the normalized text,
   so whitespace and alpha-renaming variants share one plan and a naive
   plan can never answer for a cost-based one.  Every request parses
   its text; a parse error is returned, never cached.  Compile errors
   are cached as errors, never as successes.  The counters are registry
   singletons (shared by every engine in the process, like all
   "engine.*" metrics). *)
let m_rql_plan_norm_hits = Metrics.counter "engine.rql_plan_norm_hits"
let m_rql_plan_compiles = Metrics.counter "engine.rql_plan_compiles"

let rql_mode = function
  | Request.Plan_naive -> Rql.Rql_plan.Naive
  | Request.Plan_cost -> Rql.Rql_plan.Planned

(* Returns the plan (or static error) plus where it came from: "hit",
   "miss" or "off" (no shared memo). *)
let plan_rql shared ~mode text =
  match Rql.Rql_plan.parse text with
  | exception Rql.Rql_plan.Error msg -> (Error msg, "miss")
  | ast -> (
      let compile () =
        match
          Rql.Rql_plan.compile ~max_rank:Request.Bounds.max_rank ~max_cutoff
            ~max_depth ~mode ast
        with
        | p -> Ok p
        | exception Rql.Rql_plan.Error msg -> Error msg
      in
      match shared with
      | None -> (compile (), "off")
      | Some st -> (
          let mode_tag =
            match mode with
            | Rql.Rql_plan.Naive -> "n"
            | Rql.Rql_plan.Planned -> "c"
          in
          let computed = ref false in
          let cached =
            Shared_memo.plan st
              ~key:("rn:" ^ mode_tag ^ ":" ^ Rql.Rql_plan.normalize ast)
              ~compute:(fun () ->
                computed := true;
                Metrics.incr m_rql_plan_compiles;
                Shared_memo.Rql_plan (compile ()))
          in
          if not !computed then Metrics.incr m_rql_plan_norm_hits;
          let level = if !computed then "miss" else "hit" in
          match cached with
          | Shared_memo.Rql_plan r -> (r, level)
          | _ -> (compile (), level)))

(* Tracing shims: one branch when no ctx is attached or the current
   request is not sampled. *)
let span tr name ?(attrs = []) f =
  match tr with
  | Some c when Obs.Trace.active c ->
      Obs.Trace.with_span c name (fun () ->
          if attrs <> [] then Obs.Trace.annotate c attrs;
          f ())
  | _ -> f ()

(* The compiled tier's cost accounting: every specialization is counted
   and timed (registry singletons, exposed on /metrics and `recdb
   stats`), and runs under a "compile" span so first-request traces
   show where the time went instead of folding it into evaluation. *)
let m_plans_compiled = Metrics.counter "engine.plans_compiled"
let m_compile_ns = Metrics.counter "engine.compile_ns"

let compiled_of ~tr tbl key build =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c =
        span tr "compile" (fun () ->
            let t0 = Unix.gettimeofday () in
            let c = build () in
            Metrics.incr m_plans_compiled;
            Metrics.incr m_compile_ns
              ~by:(int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
            c)
      in
      Hashtbl.add tbl key c;
      c

let error_kind : Request.error -> string = function
  | Request.Parse_error _ -> "parse_error"
  | Request.Unknown_instance _ -> "unknown_instance"
  | Request.Not_a_sentence _ -> "not_a_sentence"
  | Request.Timeout _ -> "timeout"
  | Request.Ill_formed _ -> "ill_formed"
  | Request.Bad_request _ -> "bad_request"
  | Request.Budget_exceeded _ -> "budget_exceeded"
  | Request.Deadline_exceeded _ -> "deadline_exceeded"
  | Request.Oracle_unavailable _ -> "oracle_unavailable"
  | Request.Worker_crash _ -> "worker_crash"
  | Request.Overloaded _ -> "overloaded"

(* An [Ok] answer as the evaluation core holds it.  The typed outcome
   exists only where this call computed it; the bytes exist once the
   result memo or the member memo has them.  A miss encodes exactly
   once, and a hit never builds a tree: [handle] decodes hit bytes for
   its typed callers, [serve] writes them as they are. *)
type body =
  | Tree of Request.outcome  (* computed, no result memo: not encoded *)
  | Bytes of string  (* a result-memo or member-memo hit *)
  | Both of Request.outcome * string  (* a miss: computed, encoded once *)

let typed = function
  | Ok (Tree o | Both (o, _)) -> Ok o
  | Ok (Bytes b) -> Request.outcome_of_json b
  | Error e -> Error e

(* The member memo.  A relation answer's members below a cutoff, and
   the ≅_B pairs enumerating them probes, are a function of (probe
   discipline, rank, cutoff, reps in scan order) on the entry's
   instance (Hs.Hsdb.members), so the entry keeps each member list it
   enumerated as its encoded text and splices it into every later
   answer with the same key — an alpha-variant query, or an RQL query
   denoting the same classes.  A hit asks no question: the table exists
   only when the entry has a shared memo, whose private ≅_B level
   ([equiv_local] in [make_entry]) never evicts, so the probes a hit
   skips are exactly the ones this entry already memoized when it
   computed the key, and a memo hit is not a Def. 3.9 question.  Both
   halves of the probe order are in the key: the cost-based RQL planner
   probes a strict subset of the pairs a scan probes, and equal rep
   sets built differently (QL's set algebra, [Tupleset.of_list]) scan
   their members in different orders (Hs.Hsdb.scan_order).  An
   enumeration cut short by a budget, deadline or fault raises before
   the store, so only complete member lists are kept. *)
let m_member_hits = Metrics.counter "engine.member_memo_hits"
let m_member_misses = Metrics.counter "engine.member_memo_misses"

let relation entry ~probe ~rank ~reps ~cutoff =
  let reps_l = Prelude.Tupleset.elements reps in
  let enumerate () =
    Prelude.Tupleset.elements
      (Hs.Hsdb.members entry.hs ~probe ~rank ~reps ~cutoff)
  in
  match entry.compiled.c_members with
  | None -> Tree (Request.Rel { rank; reps = reps_l; members = enumerate () })
  | Some memo -> (
      let prefix = Request.rel_prefix ~rank ~reps:reps_l in
      let key =
        String.concat ""
          [
            (match probe with
            | Hs.Hsdb.Scan -> "s"
            | Hs.Hsdb.Mem_then_scan -> "m");
            string_of_int rank;
            ",";
            string_of_int cutoff;
            Request.tuples_bytes (Hs.Hsdb.scan_order reps);
          ]
      in
      match Hashtbl.find_opt memo key with
      | Some members ->
          Metrics.incr m_member_hits;
          Bytes (Request.rel_bytes ~prefix ~members)
      | None ->
          let members = enumerate () in
          let text = Request.tuples_bytes members in
          Metrics.incr m_member_misses;
          Hashtbl.add memo key text;
          Both
            ( Request.Rel { rank; reps = reps_l; members },
              Request.rel_bytes ~prefix ~members:text ))

(* Evaluation always runs through the closure-compiled tier.  The
   compilers consult the oracles at the same entry points in the same
   order as the tree-walk interpreters, so responses and the Def. 3.9
   ledger equal the interpreters' byte for byte — the parity properties
   in test_compile and the frozen interpreted golden file (E31) check
   it. *)
let eval_payload ~tr ~shared entry (payload : Request.payload) :
    (body, Request.error) result =
  let tree r = Result.map (fun o -> Tree o) r in
  match payload with
  | Request.Classes { db_type; rank } -> tree (eval_classes ~db_type ~rank)
  | Request.Sentence { sentence; _ } -> (
      match span tr "parse" (fun () -> parse_sentence shared sentence) with
      | Error msg -> Error (Request.Parse_error msg)
      | Ok f -> (
          match Rlogic.Ast.free_vars f with
          | [] ->
              let b =
                (compiled_of ~tr entry.compiled.c_sentences sentence
                   (fun () -> Hs.Fo_compile.sentence entry.hs f))
                  ()
              in
              Ok (Tree (Request.Bool b))
          | vars -> Error (Request.Not_a_sentence vars)))
  | Request.Query { query; cutoff; _ } -> (
      match span tr "parse" (fun () -> parse_query shared query) with
      | Error msg -> Error (Request.Parse_error msg)
      | Ok Rlogic.Ast.Undefined -> Ok (Tree Request.Undefined)
      | Ok (Rlogic.Ast.Query { vars; _ } as q) ->
          if cutoff < 0 || cutoff > max_cutoff then
            Error
              (Request.Bad_request
                 (Printf.sprintf "cutoff must be in 0..%d" max_cutoff))
          else
            let rank = List.length vars in
            let cq =
              compiled_of ~tr entry.compiled.c_queries query (fun () ->
                  Hs.Fo_compile.compile_query entry.hs q)
            in
            (* eval_upto's reps and members, then reps again: the order
               the frozen interpreted ledger asks in, which a budget
               trip makes visible *)
            let reps = Hs.Fo_compile.eval_reps cq ~rank in
            let body = relation entry ~probe:Hs.Hsdb.Scan ~rank ~reps ~cutoff in
            ignore (Hs.Fo_compile.eval_reps cq ~rank);
            Ok body)
  | Request.Tree { depth; _ } ->
      if depth < 1 || depth > max_depth then
        Error
          (Request.Bad_request
             (Printf.sprintf "depth must be in 1..%d" max_depth))
      else
        Ok
          (Tree
             (Request.Levels
                (List.map
                   (fun n -> Hs.Hsdb.paths entry.hs n)
                   (Prelude.Ints.range 1 (depth + 1)))))
  | Request.Program { program; fuel; cutoff; _ } -> (
      match span tr "parse" (fun () -> parse_program shared program) with
      | Error msg -> Error (Request.Parse_error msg)
      | Ok p ->
          if cutoff < 0 || cutoff > max_cutoff then
            Error
              (Request.Bad_request
                 (Printf.sprintf "cutoff must be in 0..%d" max_cutoff))
          else if fuel < 1 || fuel > Request.Bounds.max_fuel then
            Error
              (Request.Bad_request
                 (Printf.sprintf "fuel must be in 1..%d" Request.Bounds.max_fuel))
          else (
            let cp =
              compiled_of ~tr entry.compiled.c_programs program (fun () ->
                  Ql.Ql_compile.compile
                    ~algebra:(Lazy.force entry.compiled.c_algebra)
                    p)
            in
            match Ql.Ql_compile.run cp ~fuel with
            | Ql.Ql_interp.Halted store ->
                let { Ql.Ql_hs.rank; reps } = store.(0) in
                Ok (relation entry ~probe:Hs.Hsdb.Scan ~rank ~reps ~cutoff)
            | Ql.Ql_interp.Timeout -> Error (Request.Timeout fuel)
            | Ql.Ql_interp.Ill_formed msg -> Error (Request.Ill_formed msg)))
  | Request.Rql { instance; text; cutoff; planner } -> (
      (* The [mode <word>] prefix is serving-tier syntax, consumed by
         [Engine.handle]'s mode resolution before evaluation.  Strip it
         here too so every plan cache — normalized, compiled — is
         keyed by the bare query and shared across modes. *)
      let text =
        match Incomplete.Scan.split_mode text with
        | Some (_, rest) -> rest
        | None -> text
      in
      let mode = rql_mode planner in
      let planned =
        span tr "plan" (fun () ->
            let r, level = plan_rql shared ~mode text in
            (match tr with
            | Some c when Obs.Trace.active c ->
                Obs.Trace.annotate c
                  (("plan_cache", level)
                  ::
                  (match r with
                  | Ok p ->
                      [
                        ( "est_questions",
                          Printf.sprintf "%.1f" p.Rql.Rql_plan.est_planned );
                      ]
                  | Error _ -> []))
            | _ -> ());
            r)
      in
      match planned with
      | Error msg -> Error (Request.Parse_error msg)
      | Ok plan ->
          if cutoff < 0 || cutoff > max_cutoff then
            Error
              (Request.Bad_request
                 (Printf.sprintf "cutoff must be in 0..%d" max_cutoff))
          else (
            (* Cross-request definition sharing is a planner saving, so
               only cost-based plans get the memo hook; the naive
               baseline materializes every definition itself.  A hit
               returns a deterministic set and asks zero questions. *)
            let memo =
              match (shared, mode) with
              | Some st, Rql.Rql_plan.Planned ->
                  Some
                    (fun ~key ~compute ->
                      Shared_memo.rql_def st
                        ~key:(instance ^ "\000" ^ key)
                        ~compute)
              | _ -> None
            in
            let mode_tag =
              match mode with
              | Rql.Rql_plan.Naive -> "n:"
              | Rql.Rql_plan.Planned -> "c:"
            in
            (* prepare validates like the interpreter's first run; a
               validation error raises here, is never cached, and maps
               to the same Ill_formed below *)
            match
              Rql.Rql_compile.eval ?memo ~cutoff
                (compiled_of ~tr entry.compiled.c_rql (mode_tag ^ text)
                   (fun () -> Rql.Rql_compile.prepare entry.hs plan))
            with
            | Rql.Rql_compile.Answer (Rql.Rql_eval.Bool b) ->
                Ok (Tree (Request.Bool b))
            | Rql.Rql_compile.Answer (Rql.Rql_eval.Rel { rank; reps; members })
              ->
                Ok (Tree (Request.Rel { rank; reps; members }))
            | Rql.Rql_compile.Answer (Rql.Rql_eval.Levels levels) ->
                Ok (Tree (Request.Levels levels))
            | Rql.Rql_compile.Reps { rank; reps; cutoff; probe } ->
                Ok (relation entry ~probe ~rank ~reps ~cutoff)
            | exception Rql.Rql_eval.Error msg ->
                Error (Request.Ill_formed msg)))
  | Request.Stats ->
      (* Unreachable through [handle]: stats has no instance, so it is
         answered at the door before evaluation.  Kept total so a direct
         caller gets a typed error rather than a crash. *)
      Error (Request.Bad_request "stats is answered by the serving tier")

(* An evaluated answer with its completeness certificate.  [eval_*]
   produce it with the typed outcome; the result memo keeps it with the
   outcome's encoded bytes ([Shared_memo.result_value]). *)
type 'body certified = {
  value : ('body, Request.error) result;
  cert : Request.certificate;
}

(* ------------------------------------------------------------------ *)
(* Incompleteness-aware evaluation (certain / possible / approximate)  *)

(* Non-exact evaluation: three-valued Kleene for FO payloads, interval
   (lo, hi) for RQL.  The outcome {e and} its certificate are a
   deterministic function of (mode, payload) — the approximation budget
   is consult-denominated, so even its trip point ignores cache warmth
   — which is what lets the pair live in [Shared_memo] and in store
   snapshots under the mode-prefixed key. *)
let eval_incomplete ~tr ~shared entry ~(mode : Request.mode)
    (payload : Request.payload) : Request.outcome certified =
  let decl =
    (* unreachable None: [effective_mode] downgrades undeclared
       instances to exact before this is called *)
    match entry.decl with Some d -> d | None -> Incomplete.Decl.make [||]
  in
  let budget =
    match mode with
    | Request.M_approximate { budget } -> Incomplete.Budget.limited budget
    | _ -> Incomplete.Budget.unlimited ()
  in
  let ctx = Incomplete.Ctx.make ~hs:entry.hs ~decl ~budget in
  let exact value = { value; cert = Request.Cert_exact } in
  (* certain and approximate serve the lower bound, possible the upper *)
  let lower = mode <> Request.M_possible in
  let undetermined_cert rels =
    match mode with
    | Request.M_possible -> Request.Cert_possible_upper
    | Request.M_approximate _ when Incomplete.Budget.tripped budget ->
        Request.Cert_approximate
          {
            budget_spent = Incomplete.Budget.spent budget;
            open_rels = Incomplete.Decl.open_names decl rels;
          }
    | _ -> Request.Cert_certain_lower
  in
  match payload with
  | Request.Sentence { sentence; _ } -> (
      match span tr "parse" (fun () -> parse_sentence shared sentence) with
      | Error msg -> exact (Error (Request.Parse_error msg))
      | Ok f -> (
          match Rlogic.Ast.free_vars f with
          | [] -> (
              match
                span tr "eval3" (fun () ->
                    Incomplete.Kleene.eval_sentence ctx f)
              with
              | Incomplete.Tri.True, _ -> exact (Ok (Request.Bool true))
              | Incomplete.Tri.False, _ -> exact (Ok (Request.Bool false))
              | Incomplete.Tri.Unknown, _ ->
                  (* undetermined: certain answers "no completion is
                     guaranteed", possible answers "some completion
                     could" *)
                  {
                    value = Ok (Request.Bool (not lower));
                    cert = undetermined_cert (Incomplete.Scan.formula_rels f);
                  })
          | vars -> exact (Error (Request.Not_a_sentence vars))))
  | Request.Query { query; cutoff; _ } -> (
      match span tr "parse" (fun () -> parse_query shared query) with
      | Error msg -> exact (Error (Request.Parse_error msg))
      | Ok Rlogic.Ast.Undefined -> exact (Ok Request.Undefined)
      | Ok (Rlogic.Ast.Query { vars; _ } as q) ->
          if cutoff < 0 || cutoff > max_cutoff then
            exact
              (Error
                 (Request.Bad_request
                    (Printf.sprintf "cutoff must be in 0..%d" max_cutoff)))
          else (
            let rank = List.length vars in
            match
              span tr "eval3" (fun () ->
                  Incomplete.Kleene.eval_query ctx q ~rank ~cutoff)
            with
            | None -> exact (Ok Request.Undefined)
            | Some b ->
                let {
                  Incomplete.Kleene.reps_lo;
                  reps_hi;
                  members_lo;
                  members_hi;
                  tripped;
                  _;
                } =
                  b
                in
                let determined =
                  (not tripped)
                  && Prelude.Tupleset.equal reps_lo reps_hi
                  && Prelude.Tupleset.equal members_lo members_hi
                in
                let reps, members =
                  if lower then (reps_lo, members_lo)
                  else (reps_hi, members_hi)
                in
                let outcome =
                  Request.Rel
                    {
                      rank;
                      reps = Prelude.Tupleset.elements reps;
                      members = Prelude.Tupleset.elements members;
                    }
                in
                if determined then exact (Ok outcome)
                else
                  {
                    value = Ok outcome;
                    cert = undetermined_cert (Incomplete.Scan.query_rels q);
                  }))
  | Request.Program _ ->
      (* QL has complementation, which is not monotone in the open
         relations — a two-fixpoint interval story is unsound for it.
         [effective_mode] lets programs that avoid every open relation
         through on the exact path; the rest get a typed refusal. *)
      exact
        (Error
           (Request.Bad_request
              "op \"program\" is exact-only: QL complementation has no \
               sound certain/possible reading over open relations"))
  | Request.Rql { text; cutoff; planner; _ } -> (
      let text =
        match Incomplete.Scan.split_mode text with
        | Some (_, rest) -> rest
        | None -> text
      in
      let pmode = rql_mode planner in
      let planned =
        span tr "plan" (fun () ->
            let r, level = plan_rql shared ~mode:pmode text in
            (match tr with
            | Some c when Obs.Trace.active c ->
                Obs.Trace.annotate c [ ("plan_cache", level) ]
            | _ -> ());
            r)
      in
      match planned with
      | Error msg -> exact (Error (Request.Parse_error msg))
      | Ok plan ->
          if cutoff < 0 || cutoff > max_cutoff then
            exact
              (Error
                 (Request.Bad_request
                    (Printf.sprintf "cutoff must be in 0..%d" max_cutoff)))
          else (
            match
              span tr "eval3" (fun () ->
                  Incomplete.Interval.run ctx ~cutoff plan)
            with
            | exception Incomplete.Interval.Error msg ->
                exact (Error (Request.Ill_formed msg))
            | outcome, tripped -> (
                (* Certificate relations come from the {e surface} AST,
                   not the plan, so planner rewrites cannot change the
                   certificate. *)
                let rels () =
                  match Rql.Rql_plan.parse text with
                  | ast -> Incomplete.Scan.rql_ast_rels ast
                  | exception Rql.Rql_plan.Error _ -> []
                in
                match outcome with
                | Incomplete.Interval.Bool { lo; hi } ->
                    let b = if lower then lo else hi in
                    if (not tripped) && lo = hi then
                      exact (Ok (Request.Bool b))
                    else
                      {
                        value = Ok (Request.Bool b);
                        cert = undetermined_cert (rels ());
                      }
                | Incomplete.Interval.Rel
                    { rank; reps_lo; reps_hi; members_lo; members_hi } ->
                    let determined =
                      (not tripped) && reps_lo = reps_hi
                      && members_lo = members_hi
                    in
                    let reps, members =
                      if lower then (reps_lo, members_lo)
                      else (reps_hi, members_hi)
                    in
                    let outcome = Request.Rel { rank; reps; members } in
                    if determined then exact (Ok outcome)
                    else
                      {
                        value = Ok outcome;
                        cert = undetermined_cert (rels ());
                      }
                | Incomplete.Interval.Levels levels ->
                    if tripped then
                      {
                        value = Ok (Request.Levels levels);
                        cert = undetermined_cert (rels ());
                      }
                    else exact (Ok (Request.Levels levels)))))
  | Request.Classes _ | Request.Tree _ | Request.Stats ->
      (* never touch a relation: [effective_mode] routes these to the
         exact path; kept total for direct callers *)
      exact (typed (eval_payload ~tr ~shared entry payload))

(* Mode resolution, most-specific wins: the RQL [mode <word>] text
   prefix, then the request's wire mode, then the server default.  An
   approximate prefix with no budget of its own inherits the wire
   budget when the wire mode is approximate too. *)
let requested_mode t (req : Request.t) =
  let wire () =
    match req.Request.mode with
    | Some m -> m
    | None -> t.config.default_mode
  in
  match req.Request.payload with
  | Request.Rql { text; _ } -> (
      match Incomplete.Scan.split_mode text with
      | None -> Ok (wire ())
      | Some (word, _) -> (
          match word with
          | "exact" -> Ok Request.M_exact
          | "certain" -> Ok Request.M_certain
          | "possible" -> Ok Request.M_possible
          | "approximate" ->
              let budget =
                match req.Request.mode with
                | Some (Request.M_approximate { budget }) -> budget
                | _ -> Request.default_budget
              in
              Ok (Request.M_approximate { budget })
          | w ->
              Error
                (Request.Parse_error
                   (Printf.sprintf
                      "unknown mode %S (expected exact, certain, possible \
                       or approximate)"
                      w))))
  | _ -> Ok (wire ())

(* Downgrade a non-exact requested mode to exact when the payload
   cannot touch an open relation: no declaration, an all-total
   declaration, or a relation-mention set (scanned on the surface
   syntax, before any planner rewrite) disjoint from the open set.
   Downgraded requests take the exact path — unprefixed memo key,
   identical bytes, [exact] certificate for free.  Only non-exact
   requests pay the scan, so exact-path plan-cache metrics are
   untouched.  A payload that fails to parse scans as mentioning
   nothing and downgrades: the exact path reports the same parse error
   it always did, with an [exact] certificate. *)
let effective_mode t entry (req : Request.t) mode =
  match mode with
  | Request.M_exact -> Request.M_exact
  | _ -> (
      match entry.decl with
      | None -> Request.M_exact
      | Some decl when Incomplete.Decl.all_total decl -> Request.M_exact
      | Some decl ->
          let rels =
            match req.Request.payload with
            | Request.Sentence { sentence; _ } -> (
                match parse_sentence t.shared sentence with
                | Ok f -> Incomplete.Scan.formula_rels f
                | Error _ -> [])
            | Request.Query { query; _ } -> (
                match parse_query t.shared query with
                | Ok q -> Incomplete.Scan.query_rels q
                | Error _ -> [])
            | Request.Program { program; _ } -> (
                match parse_program t.shared program with
                | Ok p -> Incomplete.Scan.program_rels p
                | Error _ -> [])
            | Request.Rql { text; _ } -> (
                let text =
                  match Incomplete.Scan.split_mode text with
                  | Some (_, rest) -> rest
                  | None -> text
                in
                match Rql.Rql_plan.parse text with
                | ast -> Incomplete.Scan.rql_ast_rels ast
                | exception Rql.Rql_plan.Error _ -> [])
            | Request.Classes _ | Request.Tree _ | Request.Stats -> []
          in
          if Incomplete.Scan.touches_open decl rels then mode
          else Request.M_exact)

(* Non-exact modes get their own whole-request memo keyspace; exact
   keeps the historical unprefixed key, so pre-incompleteness store
   snapshots stay valid and every mode shares one copy of an exact
   answer. *)
let mode_key_prefix = function
  | Request.M_exact -> ""
  | Request.M_certain -> "m:c:"
  | Request.M_possible -> "m:p:"
  | Request.M_approximate { budget } -> Printf.sprintf "m:a:%d:" budget

(* Def. 3.9 accounting reads the {e base} instance's counters, not the
   wrapper's: the wrapper's T_B/≅_B counters tick on every consult of
   the memo chain, while the base's tick only when a question actually
   reaches the raw oracles.  For an unshared engine the two are equal
   (every wrapper miss is a base ask), so sequential stats are
   unchanged; for a shared engine only the base counters are honest. *)
let snapshot entry =
  let tb, eq = Hs.Hsdb.oracle_calls entry.base in
  ( Rdb.Database.oracle_calls entry.raw_db,
    tb,
    eq,
    (Oracle_cache.total_stats entry.caches).Oracle_cache.hits )

(* Open the root span (the sampling decision lives in [begin_request]):
   op/instance attrs, the entry's ledger when one is resolved, and a
   synthetic child for the pool queue wait that preceded this call —
   rendered at a negative offset, because it happened before the engine
   saw the request. *)
let trace_begin t (req : Request.t) ~instance ?mode entry_opt queued_s =
  match t.trace with
  | None -> ()
  | Some c -> (
      let ledger =
        match entry_opt with
        | Some e -> e.ledger
        | None -> Obs.Trace.null_ledger
      in
      Obs.Trace.begin_request c ~req_id:req.Request.id
        ~attrs:
          (("op", Request.op_name req.Request.payload)
          :: ((match instance with Some i -> [ ("instance", i) ] | None -> [])
             @ match mode with Some m -> [ ("mode", m) ] | None -> []))
        ledger;
      match queued_s with
      | Some q when Obs.Trace.active c ->
          Obs.Trace.synthetic c "queue" ~start_s:(-.q) ~dur_s:q ~attrs:[]
      | _ -> ())

(* The engine-wide Def. 3.9 ledger: per-oracle breakdown summed over
   every instance constructed so far.  Unforced entries have asked
   nothing, so skipping them keeps the sum exact. *)
let ledger_counts t =
  List.fold_left
    (fun (raw, tb, eq, hits) (_, entry) ->
      if Lazy.is_val entry then (
        let e = Lazy.force entry in
        let tb', eq' = Hs.Hsdb.oracle_calls e.base in
        ( raw + Rdb.Database.oracle_calls e.raw_db,
          tb + tb',
          eq + eq',
          hits + (Oracle_cache.total_stats e.caches).Oracle_cache.hits ))
      else (raw, tb, eq, hits))
    (0, 0, 0, 0) t.entries

(* The one evaluation core behind [handle] and [serve].  Every call is
   total: the budget/deadline guard turns unbounded evaluations into
   typed errors, transient oracle outages are retried with
   deterministic exponential backoff and surface as typed errors when
   they persist, and any other escaping exception becomes [Ill_formed]
   — a request can never kill its worker. *)
let answer ?queued_s t (req : Request.t) : body Request.reply =
  let t0 = Unix.gettimeofday () in
  let retries = ref 0 in
  let finish ?(cert = Request.Cert_exact) result entry_opt pre =
    let wall_s = Unix.gettimeofday () -. t0 in
    let stats =
      match (entry_opt, pre) with
      | Some entry, Some (o0, tb0, eq0, h0) ->
          let o1, tb1, eq1, h1 = snapshot entry in
          {
            Request.oracle_calls = o1 - o0;
            tb_calls = tb1 - tb0;
            equiv_calls = eq1 - eq0;
            cache_hits = h1 - h0;
            retries = !retries;
            wall_s;
          }
      | _ -> { Request.zero_stats with retries = !retries; wall_s }
    in
    (match t.trace with
    | Some c when Obs.Trace.active c ->
        Obs.Trace.end_request
          ~attrs:
            ((match result with
             | Ok _ -> [ ("status", "ok") ]
             | Error e -> [ ("status", "error"); ("error", error_kind e) ])
            @
            if !retries > 0 then [ ("retries", string_of_int !retries) ]
            else [])
          c
    | _ -> ());
    Metrics.incr t.m_requests;
    if Result.is_error result then Metrics.incr t.m_errors;
    Metrics.incr ~by:stats.Request.oracle_calls t.m_oracle_calls;
    Metrics.incr ~by:stats.Request.cache_hits t.m_cache_hits;
    (match cert with
    | Request.Cert_exact -> Metrics.incr t.m_cert_exact
    | Request.Cert_certain_lower -> Metrics.incr t.m_cert_lower
    | Request.Cert_possible_upper -> Metrics.incr t.m_cert_upper
    | Request.Cert_approximate _ -> Metrics.incr t.m_cert_approx);
    Metrics.observe t.m_latency wall_s;
    { Request.id = req.Request.id; result; cert; stats }
  in
  (* Typed-error outcomes of the guard are exact facts about the
     serving attempt, not about the instance's completions, so they
     always carry the [exact] certificate. *)
  let total_eval (eval : unit -> body certified) =
    Resilience.arm t.res t.config.limits;
    let err e = { value = Error e; cert = Request.Cert_exact } in
    let rec attempt n =
      match span t.trace "attempt" ~attrs:[ ("n", string_of_int n) ] eval with
      | result -> result
      | exception Resilience.Budget_hit { limit } ->
          Metrics.incr t.m_budget_hits;
          err (Request.Budget_exceeded { limit })
      | exception Resilience.Deadline_hit { deadline_s; _ } ->
          Metrics.incr t.m_deadline_hits;
          err (Request.Deadline_exceeded { deadline_s })
      | exception Faulty_oracle.Oracle_unavailable _
        when n < t.config.retry.max_retries -> (
          incr retries;
          Metrics.incr t.m_retries;
          if t.config.retry.backoff_s > 0.0 then
            span t.trace "backoff" ~attrs:[ ("n", string_of_int n) ] (fun () ->
                Unix.sleepf (t.config.retry.backoff_s *. Float.of_int (1 lsl n)));
          (* The backoff may have consumed the deadline; report that as
             a deadline hit rather than burning further attempts. *)
          match Resilience.check_deadline t.res with
          | () -> attempt (n + 1)
          | exception Resilience.Deadline_hit { deadline_s; _ } ->
              Metrics.incr t.m_deadline_hits;
              err (Request.Deadline_exceeded { deadline_s }))
      | exception Faulty_oracle.Oracle_unavailable { oracle; _ } ->
          Metrics.incr t.m_fault_failures;
          err (Request.Oracle_unavailable { oracle; attempts = n + 1 })
      | exception e -> err (Request.Ill_formed (Printexc.to_string e))
    in
    let result = attempt 0 in
    Resilience.disarm t.res;
    result
  in
  match Request.payload_instance req.Request.payload with
  | Some name when not (List.mem_assoc name t.entries) ->
      trace_begin t req ~instance:(Some name) None queued_s;
      finish (Error (Request.Unknown_instance name)) None None
  | instance ->
      let entry_opt =
        match instance with
        | Some name -> (
            (* Forcing the lazy entry constructs the instance; treat a
               construction failure as a request error, not a crash. *)
            match Lazy.force (List.assoc name t.entries) with
            | entry -> Some entry
            | exception _ -> None)
        | None -> None
      in
      if Option.is_some instance && Option.is_none entry_opt then begin
        trace_begin t req ~instance None queued_s;
        finish
          (Error (Request.Ill_formed "instance construction failed"))
          None None
      end
      else begin
        (* Mode resolution happens before the trace opens so the root
           span can carry the effective mode; the scans it may run ask
           no Def. 3.9 questions (parsing never touches an instance). *)
        let mode_r =
          match entry_opt with
          | None -> Ok Request.M_exact
          | Some entry -> (
              match requested_mode t req with
              | Error _ as e -> e
              | Ok m -> Ok (effective_mode t entry req m))
        in
        let mode_attr =
          match mode_r with
          | Ok Request.M_exact | Error _ -> None
          | Ok m -> Some (Request.mode_to_string m)
        in
        (* The trace opens after the lazy entry is forced, mirroring the
           [pre] snapshot below: construction-time oracle activity is
           charged to neither the stats nor the root span, so the two
           stay equal. *)
        trace_begin t req ~instance ?mode:mode_attr entry_opt queued_s;
        let pre = Option.map snapshot entry_opt in
        let rv =
          match (entry_opt, mode_r) with
          | _, Error e -> { value = Error e; cert = Request.Cert_exact }
          | Some entry, Ok mode ->
              (match mode with
              | Request.M_exact -> ()
              | Request.M_certain -> Metrics.incr t.m_mode_certain
              | Request.M_possible -> Metrics.incr t.m_mode_possible
              | Request.M_approximate _ -> Metrics.incr t.m_mode_approximate);
              (* Whole-request memo: everything but [stats] is a
                 deterministic function of (mode, payload) (the Request
                 wire-format contract), so a completed result can be
                 replayed for any worker.  Budget/deadline/fault aborts
                 raise {e through} the compute closure and are caught
                 by [total_eval] outside it — nondeterministic outcomes
                 are never stored. *)
              let compute () =
                match mode with
                | Request.M_exact ->
                    {
                      value =
                        eval_payload ~tr:t.trace ~shared:t.shared entry
                          req.Request.payload;
                      cert = Request.Cert_exact;
                    }
                | _ ->
                    let c =
                      eval_incomplete ~tr:t.trace ~shared:t.shared entry
                        ~mode req.Request.payload
                    in
                    { c with value = Result.map (fun o -> Tree o) c.value }
              in
              let eval () =
                match t.shared with
                | None -> compute ()
                | Some st ->
                    let key =
                      mode_key_prefix mode
                      ^ Json.to_string
                          (Request.to_json
                             (Request.make ~id:0 req.Request.payload))
                    in
                    (* A miss keeps its tree beside the bytes it stores,
                       so neither [handle] nor [serve] has to convert. *)
                    let fresh = ref None in
                    let compute () =
                      let c = compute () in
                      {
                        Shared_memo.value =
                          Result.map
                            (function
                              | Tree o ->
                                  fresh := Some o;
                                  Request.outcome_bytes o
                              | Both (o, b) ->
                                  fresh := Some o;
                                  b
                              | Bytes b -> b)
                            c.value;
                        cert = c.cert;
                      }
                    in
                    let stored = Shared_memo.result st ~key ~compute in
                    {
                      value =
                        Result.map
                          (fun b ->
                            match !fresh with
                            | Some o -> Both (o, b)
                            | None -> Bytes b)
                          stored.Shared_memo.value;
                      cert = stored.Shared_memo.cert;
                    }
              in
              total_eval eval
          | None, Ok _ -> (
              match req.Request.payload with
              | Request.Classes { db_type; rank } ->
                  total_eval (fun () ->
                      {
                        value =
                          Result.map
                            (fun o -> Tree o)
                            (eval_classes ~db_type ~rank);
                        cert = Request.Cert_exact;
                      })
              | Request.Stats ->
                  (* Answered at the door: reporting the ledger asks no
                     questions, so it bypasses budgets, retries and the
                     shared memo (the answer is not deterministic in the
                     payload). *)
                  let raw, tb, equiv, cache_hits = ledger_counts t in
                  {
                    value =
                      Ok
                        (Tree
                           (Request.Ledger_report
                              {
                                cluster =
                                  Request.ledger ~node:"engine" ~raw ~tb
                                    ~equiv ~cache_hits ();
                                shards = [];
                              }));
                    cert = Request.Cert_exact;
                  }
              | _ ->
                  (* unreachable: instance payloads resolved above *)
                  {
                    value = Error (Request.Ill_formed "no instance resolved");
                    cert = Request.Cert_exact;
                  })
        in
        finish ~cert:rv.cert rv.value entry_opt pre
      end

let handle ?queued_s t req : Request.response =
  let r = answer ?queued_s t req in
  { r with Request.result = typed r.Request.result }

let serve ?queued_s t req : Request.encoded =
  let r = answer ?queued_s t req in
  let result =
    match r.Request.result with
    | Ok (Bytes b | Both (_, b)) -> Ok b
    | Ok (Tree o) -> Ok (Request.outcome_bytes o)
    | Error e -> Error e
  in
  { r with Request.result }

let handle_all t reqs = List.map (handle t) reqs

let traces t =
  match t.trace with None -> [] | Some c -> Obs.Trace.traces c

let question_count t =
  let raw, tb, eq, _ = ledger_counts t in
  raw + tb + eq

let shared_stats t = Option.map Shared_memo.stats t.shared

let faults_injected t =
  match t.faults with None -> 0 | Some fo -> Faulty_oracle.faults_injected fo
