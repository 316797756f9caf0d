type cache_result = {
  repeats : int;
  uncached_oracle_calls : int;
  cached_oracle_calls : int;
  cache_hits : int;
  reduction : float;
}

type batch_run = {
  domains : int;
  skipped : bool;  (* more domains than cores: measuring would be noise *)
  wall_s : float;
  speedup : float;
  identical : bool;
}

type batch_result = {
  requests : int;
  recommended_domains : int;
  sequential_s : float;
  runs : batch_run list;
}

(* The E17 workload: Theorem 6.3's representative-based FO evaluation,
   four sentences on the triangles instance. *)
let e17_sentences =
  [
    "forall x. forall y. x != y -> R1(x, y)";
    "exists x. exists y. R1(x, y)";
    "forall x. forall y. R1(x, y) -> (exists z. R1(x, z) && R1(y, z))";
    "exists x. forall y. y != x -> R1(x, y)";
  ]

let cache_workload () =
  let repeats = 25 in
  (* Uncached: a fresh instance, atoms hit the raw oracles every time. *)
  let base =
    match Engine.build_instance "triangles" with
    | Some b -> b
    | None -> failwith "triangles not registered"
  in
  let formulas = List.map Rlogic.Parser.formula e17_sentences in
  Rdb.Database.reset_oracle_calls (Hs.Hsdb.db base);
  for _ = 1 to repeats do
    List.iter (fun f -> ignore (Hs.Fo_eval.eval_sentence base f)) formulas
  done;
  let uncached = Rdb.Database.oracle_calls (Hs.Hsdb.db base) in
  (* Cached: the same traffic as engine requests; raw questions are the
     LRU misses only. *)
  let engine = Engine.create () in
  let reqs =
    List.concat_map
      (fun _ ->
        List.map
          (fun sentence ->
            Request.make ~id:0
              (Request.Sentence { instance = "triangles"; sentence }))
          e17_sentences)
      (Prelude.Ints.range 0 repeats)
  in
  let responses = Engine.handle_all engine reqs in
  let cached =
    List.fold_left
      (fun acc r -> acc + r.Request.stats.Request.oracle_calls)
      0 responses
  in
  let hits =
    List.fold_left
      (fun acc r -> acc + r.Request.stats.Request.cache_hits)
      0 responses
  in
  {
    repeats;
    uncached_oracle_calls = uncached;
    cached_oracle_calls = cached;
    cache_hits = hits;
    reduction =
      (if cached = 0 then Float.infinity
       else float_of_int uncached /. float_of_int cached);
  }

(* ------------------------------------------------------------------ *)

(* All five instances are graphs (db type (2)), so the same sentences
   and queries are well-formed on each. *)
let batch_instances = [ "triangles"; "mod2"; "mod3"; "paths3"; "clique" ]

let batch_sentences =
  [
    "forall x. forall y. R1(x, y) -> (exists z. R1(x, z) && R1(y, z))";
    "exists x. forall y. y != x -> R1(x, y)";
    "forall x. exists y. forall z. exists w. R1(x, y) || z = w";
    "exists x. exists y. exists z. R1(x, y) && R1(y, z) && R1(x, z)";
  ]

(* Queries dominate the batch cost: eval_upto sweeps cutoff² concrete
   tuples through the ≅_B oracle, a few hundred µs each, which keeps
   the pool's per-job dispatch overhead well under 1%. *)
let batch_queries =
  [
    "{(x,y) | R1(x,y) && x != y}";
    "{(x,y) | exists z. R1(x,z) && R1(z,y)}";
    "{(x) | forall y. R1(x,y) -> (exists z. R1(y,z))}";
    "{(x,y) | R1(x,y) || R1(y,x)}";
  ]

let build_batch n =
  let ninst = List.length batch_instances in
  let nsent = List.length batch_sentences in
  let nquer = List.length batch_queries in
  List.map
    (fun i ->
      let instance = List.nth batch_instances (i mod ninst) in
      let payload =
        match i mod 10 with
        | 9 ->
            (* an instance-free CPU-bound request for variety *)
            Request.Classes { db_type = [| 2; 1 |]; rank = 2 }
        | 0 | 1 | 2 | 3 ->
            let sentence = List.nth batch_sentences (i / ninst mod nsent) in
            Request.Sentence { instance; sentence }
        | _ ->
            let query = List.nth batch_queries (i / ninst mod nquer) in
            Request.Query { instance; query; cutoff = 10 }
      in
      Request.make ~id:(i + 1) payload)
    (Prelude.Ints.range 0 n)

let results_fingerprint responses =
  String.concat "\n"
    (List.map
       (fun r -> Json.to_string (Request.response_to_json ~stats:false r))
       responses)

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let batch_workload ?(requests = 1000) () =
  let domains_list = [ 1; 2; 4 ] in
  let batch = build_batch requests in
  let recommended_domains = Domain.recommended_domain_count () in
  let sequential, sequential_s =
    time (fun () ->
        let engine = Engine.create () in
        Engine.handle_all engine batch)
  in
  let reference = results_fingerprint sequential in
  let runs =
    List.map
      (fun domains ->
        (* Honesty: more domains than cores measures scheduler thrash,
           not the pool — report the row as skipped instead of as a
           bogus "slowdown". *)
        if domains > recommended_domains then
          { domains; skipped = true; wall_s = 0.; speedup = 0.; identical = true }
        else begin
          let pool = Pool.create ~domains () in
          let responses, wall_s = time (fun () -> Pool.run_batch pool batch) in
          Pool.shutdown pool;
          {
            domains;
            skipped = false;
            wall_s;
            speedup = sequential_s /. wall_s;
            identical = String.equal reference (results_fingerprint responses);
          }
        end)
      domains_list
  in
  { requests; recommended_domains; sequential_s; runs }

(* ------------------------------------------------------------------ *)
(* E25: the resilience layer.  Three questions: what does the
   per-question budget guard cost on the E24 repeated-evaluation
   workload; do budgets/deadlines actually turn a pathologically
   expensive request into a fast typed error; and does bounded retry
   absorb injected faults without changing any answer. *)

type overhead_result = {
  o_requests : int;
  trials : int;
  plain_s : float;  (* best of [trials], unguarded engine *)
  guarded_s : float;  (* best of [trials], generous limits armed *)
  overhead_frac : float;  (* guarded_s /. plain_s -. 1. *)
}

type bound_probe = {
  bound : string;  (* "deadline" | "budget" *)
  configured : float;  (* seconds, or question quota *)
  error_kind : string;  (* the typed error actually returned *)
  probe_wall_s : float;
  questions_spent : int;  (* oracle + T_B + ≅_B questions at abort *)
  within_bound : bool;
}

type fault_result = {
  f_requests : int;
  seed : int;
  fault_period : int;
  faults_injected : int;
  retries : int;
  failures : int;  (* requests lost to Oracle_unavailable *)
  deterministic : bool;  (* non-faulted results byte-identical to clean *)
}

(* Generous enough that nothing trips: the guard runs, the limits
   never bind — this is the steady-state cost a budgeted production
   configuration pays on every question. *)
let generous_limits =
  Resilience.
    { max_oracle_calls = Some 1_000_000_000; deadline_s = Some 3600.0 }

let overhead_workload ?(o_requests = 2000) ?(trials = 3) () =
  let run_once config =
    (* fresh engine per run: memo tables cold, so every run asks the
       same (substantial) number of questions *)
    let reqs = build_batch o_requests in
    let engine = Engine.create ?config () in
    snd (time (fun () -> ignore (Engine.handle_all engine reqs)))
  in
  let best config =
    List.fold_left
      (fun acc _ -> Float.min acc (run_once config))
      Float.infinity
      (Prelude.Ints.range 0 trials)
  in
  let plain_s = best None in
  let guarded_s =
    best (Some { Engine.default_config with limits = generous_limits })
  in
  {
    o_requests;
    trials;
    plain_s;
    guarded_s;
    overhead_frac = (guarded_s /. plain_s) -. 1.0;
  }

(* The most expensive request the parse-time bounds still admit:
   expanding paths3's characteristic tree (|T¹| = 2, |T²| = 9) to the
   maximum depth asks thousands of T_B questions.  Nothing truly
   diverging is expressible any more — {!Request.Bounds} caps every
   scalar field precisely so that unboundedness can only arise from
   evaluation, where budgets and deadlines catch it; this request is
   the probe that shows they do. *)
let pathological_request =
  Request.make ~id:0 (Request.Tree { instance = "paths3"; depth = 6 })

let questions (s : Request.stats) =
  s.Request.oracle_calls + s.Request.tb_calls + s.Request.equiv_calls

let deadline_probe ?(deadline_s = 0.02) () =
  let config =
    {
      Engine.default_config with
      limits = { max_oracle_calls = None; deadline_s = Some deadline_s };
    }
  in
  let r = Engine.handle (Engine.create ~config ()) pathological_request in
  let kind =
    match r.Request.result with
    | Error (Request.Deadline_exceeded _) -> "deadline_exceeded"
    | Error e -> Request.error_to_string e
    | Ok _ -> "ok"
  in
  {
    bound = "deadline";
    configured = deadline_s;
    error_kind = kind;
    probe_wall_s = r.Request.stats.Request.wall_s;
    questions_spent = questions r.Request.stats;
    (* generous slack: the clock is probed every few questions, and a
       single question can be slow *)
    within_bound = r.Request.stats.Request.wall_s < (10.0 *. deadline_s) +. 1.0;
  }

let budget_probe ?(max_oracle_calls = 500) () =
  let config =
    {
      Engine.default_config with
      limits =
        { max_oracle_calls = Some max_oracle_calls; deadline_s = None };
    }
  in
  let r = Engine.handle (Engine.create ~config ()) pathological_request in
  let kind =
    match r.Request.result with
    | Error (Request.Budget_exceeded _) -> "budget_exceeded"
    | Error e -> Request.error_to_string e
    | Ok _ -> "ok"
  in
  {
    bound = "budget";
    configured = float_of_int max_oracle_calls;
    error_kind = kind;
    probe_wall_s = r.Request.stats.Request.wall_s;
    questions_spent = questions r.Request.stats;
    (* the cost ledger stays exact: never more questions than the quota *)
    within_bound = questions r.Request.stats <= max_oracle_calls;
  }

let fault_workload ?(requests = 200) ?(seed = 42) ?(fault_period = 150) () =
  let batch = build_batch requests in
  let clean = Engine.handle_all (Engine.create ()) batch in
  let reference =
    List.map
      (fun r -> Json.to_string (Request.response_to_json ~stats:false r))
      clean
  in
  let config =
    {
      Engine.default_config with
      retry = { Resilience.max_retries = 3; backoff_s = 0.0 };
      faults = Some (Faulty_oracle.config ~seed ~fault_period ());
    }
  in
  let engine = Engine.create ~config () in
  let responses = Engine.handle_all engine batch in
  let retries =
    List.fold_left
      (fun acc (r : Request.response) -> acc + r.stats.Request.retries)
      0 responses
  in
  let failures =
    List.length
      (List.filter
         (fun (r : Request.response) ->
           match r.result with
           | Error (Request.Oracle_unavailable _) -> true
           | _ -> false)
         responses)
  in
  let deterministic =
    List.for_all2
      (fun (r : Request.response) ref_line ->
        match r.result with
        | Error (Request.Oracle_unavailable _) -> true (* faulted: exempt *)
        | _ ->
            String.equal
              (Json.to_string (Request.response_to_json ~stats:false r))
              ref_line)
      responses reference
  in
  {
    f_requests = requests;
    seed;
    fault_period;
    faults_injected = Engine.faults_injected engine;
    retries;
    failures;
    deterministic;
  }

let resilience_to_json (o : overhead_result) (probes : bound_probe list)
    (f : fault_result) =
  Json.Obj
    [
      ( "overhead",
        Json.Obj
          [
            ("workload", Json.String "E24 mixed batch, fresh engine");
            ("requests", Json.Int o.o_requests);
            ("trials", Json.Int o.trials);
            ("plain_s", Json.Float o.plain_s);
            ("guarded_s", Json.Float o.guarded_s);
            ("overhead_frac", Json.Float o.overhead_frac);
          ] );
      ( "bounds",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("bound", Json.String p.bound);
                   ("configured", Json.Float p.configured);
                   ("error_kind", Json.String p.error_kind);
                   ("wall_s", Json.Float p.probe_wall_s);
                   ("questions_spent", Json.Int p.questions_spent);
                   ("within_bound", Json.Bool p.within_bound);
                 ])
             probes) );
      ( "faults",
        Json.Obj
          [
            ("requests", Json.Int f.f_requests);
            ("seed", Json.Int f.seed);
            ("fault_period", Json.Int f.fault_period);
            ("faults_injected", Json.Int f.faults_injected);
            ("retries", Json.Int f.retries);
            ("failures", Json.Int f.failures);
            ("deterministic", Json.Bool f.deterministic);
          ] );
    ]

let run_resilience ?out ?trials ?requests ?fault_requests () =
  Format.printf "resilience benchmark (E25):@.";
  let o = overhead_workload ?o_requests:requests ?trials () in
  Format.printf
    "  budget-check overhead on the E24 mixed batch (%d requests, best of \
     %d): plain %.4fs, guarded %.4fs — %+.2f%%@."
    o.o_requests o.trials o.plain_s o.guarded_s (100.0 *. o.overhead_frac);
  let d = deadline_probe () in
  Format.printf
    "  deadline %gms on tree(paths3,6): %s after %.0fms, %d questions \
     (within bound: %b)@."
    (d.configured *. 1000.) d.error_kind
    (d.probe_wall_s *. 1000.)
    d.questions_spent d.within_bound;
  let b = budget_probe () in
  Format.printf
    "  budget %.0f questions on tree(paths3,6): %s after %.0fms, %d questions \
     asked (ledger exact: %b)@."
    b.configured b.error_kind
    (b.probe_wall_s *. 1000.)
    b.questions_spent b.within_bound;
  let f = fault_workload ?requests:fault_requests () in
  Format.printf
    "  faults (seed %d, ~1/%d): %d injected over %d requests, %d retries, %d \
     lost, non-faulted results identical to clean run: %b@."
    f.seed f.fault_period f.faults_injected f.f_requests f.retries f.failures
    f.deterministic;
  Json.write_opt out (fun () -> resilience_to_json o [ d; b ] f);
  (* Gated: both bounds must trip with their typed error and the budget
     must never overspend; retries must not change a non-faulted byte.
     The guard overhead is reported, not judged. *)
  List.concat
    [
      (if d.error_kind = "deadline_exceeded" then []
       else
         [ Printf.sprintf "deadline probe returned %s, not deadline_exceeded"
             d.error_kind ]);
      (if b.error_kind = "budget_exceeded" then []
       else
         [ Printf.sprintf "budget probe returned %s, not budget_exceeded"
             b.error_kind ]);
      (if b.within_bound then []
       else
         [ Printf.sprintf "budget probe asked %d questions > quota %.0f"
             b.questions_spent b.configured ]);
      (if f.deterministic then []
       else [ "non-faulted responses differ from the clean run" ]);
    ]

(* ------------------------------------------------------------------ *)

let to_json (c : cache_result) (b : batch_result) =
  Json.Obj
    [
      ( "cache",
        Json.Obj
          [
            ("workload", Json.String "E17 x triangles");
            ("repeats", Json.Int c.repeats);
            ("uncached_oracle_calls", Json.Int c.uncached_oracle_calls);
            ("cached_oracle_calls", Json.Int c.cached_oracle_calls);
            ("cache_hits", Json.Int c.cache_hits);
            ("reduction_factor", Json.Float c.reduction);
          ] );
      ( "batch",
        Json.Obj
          [
            ("requests", Json.Int b.requests);
            ("recommended_domain_count", Json.Int b.recommended_domains);
            ("sequential_s", Json.Float b.sequential_s);
            ( "runs",
              Json.List
                (List.map
                   (fun r ->
                     if r.skipped then
                       Json.Obj
                         [
                           ("domains", Json.Int r.domains);
                           ("skipped", Json.String "insufficient cores");
                         ]
                     else
                       Json.Obj
                         [
                           ("domains", Json.Int r.domains);
                           ("wall_s", Json.Float r.wall_s);
                           ("speedup", Json.Float r.speedup);
                           ("identical", Json.Bool r.identical);
                         ])
                   b.runs) );
          ] );
    ]

let run ?out ?requests () =
  let c = cache_workload () in
  Format.printf
    "  cache (E17 workload, %d repeats): %d raw oracle calls uncached, %d \
     cached (%d hits) — %.1fx fewer@."
    c.repeats c.uncached_oracle_calls c.cached_oracle_calls c.cache_hits
    c.reduction;
  let b = batch_workload ?requests () in
  let cores = b.recommended_domains in
  Format.printf "  batch of %d requests (%d core%s): sequential %.3fs@."
    b.requests cores
    (if cores = 1 then "" else "s")
    b.sequential_s;
  List.iter
    (fun r ->
      if r.skipped then
        Format.printf "    %d domains: skipped (insufficient cores)@." r.domains
      else
        Format.printf
          "    %d domain%s: %.3fs (%.2fx vs sequential), byte-identical: %b@."
          r.domains
          (if r.domains = 1 then "" else "s")
          r.wall_s r.speedup r.identical)
    b.runs;
  if cores = 1 then
    Format.printf
      "    (single-core host: multi-domain rows are skipped; the 1-domain \
       pool run checks correctness and overhead)@.";
  Json.write_opt out (fun () -> to_json c b);
  List.filter_map
    (fun r ->
      if r.skipped || r.identical then None
      else
        Some
          (Printf.sprintf "%d domains: results differ from sequential"
             r.domains))
    b.runs

(* ------------------------------------------------------------------ *)
(* E26: parallel serving with the shared memo layer.  Three claims to
   check per domain count: (1) wall-clock speedup on a cache-cold and a
   cache-warm batch; (2) byte-identity of every pool response to the
   sequential reference; (3) Def. 3.9 honesty — total genuine oracle
   questions across all workers never exceed what one sequential engine
   asks for the same cold batch (sharing dedups, it never inflates). *)

type parallel_run = {
  p_domains : int;
  p_skipped : bool;
  cold_s : float;
  warm_s : float;
  cold_speedup : float;
  warm_speedup : float;
  p_identical : bool;  (* cold AND warm responses match sequential *)
  p_questions : int;  (* pool-wide genuine questions after the cold run *)
  questions_ok : bool;  (* p_questions <= sequential questions *)
  p_deaths : int;
}

type parallel_result = {
  p_requests : int;
  p_recommended : int;
  seq_cold_s : float;
  seq_warm_s : float;
  seq_questions : int;
  p_runs : parallel_run list;
}

let parallel_workload ?(requests = 600) () =
  let domains_list = [ 1; 2; 4; 8 ] in
  let batch = build_batch requests in
  let recommended = Domain.recommended_domain_count () in
  let engine = Engine.create () in
  let sequential, seq_cold_s = time (fun () -> Engine.handle_all engine batch) in
  let seq_questions = Engine.question_count engine in
  (* Same engine, second pass: the memo-warm serving regime. *)
  let _, seq_warm_s = time (fun () -> ignore (Engine.handle_all engine batch)) in
  let reference = results_fingerprint sequential in
  let p_runs =
    List.map
      (fun domains ->
        if domains > recommended then
          {
            p_domains = domains;
            p_skipped = true;
            cold_s = 0.;
            warm_s = 0.;
            cold_speedup = 0.;
            warm_speedup = 0.;
            p_identical = true;
            p_questions = 0;
            questions_ok = true;
            p_deaths = 0;
          }
        else begin
          let pool = Pool.create ~domains () in
          let cold, cold_s = time (fun () -> Pool.run_batch pool batch) in
          let p_questions = Pool.oracle_questions pool in
          let warm, warm_s = time (fun () -> Pool.run_batch pool batch) in
          let p_deaths = Pool.worker_deaths pool in
          Pool.shutdown pool;
          {
            p_domains = domains;
            p_skipped = false;
            cold_s;
            warm_s;
            cold_speedup = seq_cold_s /. cold_s;
            warm_speedup = seq_warm_s /. warm_s;
            p_identical =
              String.equal reference (results_fingerprint cold)
              && String.equal reference (results_fingerprint warm);
            p_questions;
            questions_ok = p_questions <= seq_questions;
            p_deaths;
          }
        end)
      domains_list
  in
  {
    p_requests = requests;
    p_recommended = recommended;
    seq_cold_s;
    seq_warm_s;
    seq_questions;
    p_runs;
  }

let parallel_to_json (p : parallel_result) =
  Json.Obj
    [
      ("requests", Json.Int p.p_requests);
      ("recommended_domain_count", Json.Int p.p_recommended);
      ( "sequential",
        Json.Obj
          [
            ("cold_s", Json.Float p.seq_cold_s);
            ("warm_s", Json.Float p.seq_warm_s);
            ("questions", Json.Int p.seq_questions);
          ] );
      ( "runs",
        Json.List
          (List.map
             (fun r ->
               if r.p_skipped then
                 Json.Obj
                   [
                     ("domains", Json.Int r.p_domains);
                     ("skipped", Json.String "insufficient cores");
                   ]
               else
                 Json.Obj
                   [
                     ("domains", Json.Int r.p_domains);
                     ("cold_s", Json.Float r.cold_s);
                     ("warm_s", Json.Float r.warm_s);
                     ("cold_speedup", Json.Float r.cold_speedup);
                     ("warm_speedup", Json.Float r.warm_speedup);
                     ("identical", Json.Bool r.p_identical);
                     ("questions", Json.Int r.p_questions);
                     ("questions_le_sequential", Json.Bool r.questions_ok);
                     ("worker_deaths", Json.Int r.p_deaths);
                   ])
             p.p_runs) );
    ]

let run_parallel ?out ?requests () =
  Format.printf "parallel serving benchmark (E26):@.";
  let p = parallel_workload ?requests () in
  Format.printf
    "  batch of %d requests, %d recommended domain%s: sequential cold %.3fs, \
     warm %.3fs, %d genuine questions@."
    p.p_requests p.p_recommended
    (if p.p_recommended = 1 then "" else "s")
    p.seq_cold_s p.seq_warm_s p.seq_questions;
  List.iter
    (fun r ->
      if r.p_skipped then
        Format.printf "    %d domains: skipped (insufficient cores)@."
          r.p_domains
      else
        Format.printf
          "    %d domain%s: cold %.3fs (%.2fx), warm %.3fs (%.2fx), \
           byte-identical: %b, questions %d (<= sequential: %b), worker \
           deaths: %d@."
          r.p_domains
          (if r.p_domains = 1 then "" else "s")
          r.cold_s r.cold_speedup r.warm_s r.warm_speedup r.p_identical
          r.p_questions r.questions_ok r.p_deaths)
    p.p_runs;
  Json.write_opt out (fun () -> parallel_to_json p);
  List.concat_map
    (fun r ->
      if r.p_skipped then []
      else
        (if r.p_identical then []
         else
           [ Printf.sprintf "%d domains: results differ from sequential"
               r.p_domains ])
        @ (if r.questions_ok then []
           else
             [ Printf.sprintf "%d domains: %d questions > sequential %d"
                 r.p_domains r.p_questions p.seq_questions ])
        @
        if r.p_deaths = 0 then []
        else
          [ Printf.sprintf "%d domains: %d worker death(s)" r.p_domains
              r.p_deaths ])
    p.p_runs

(* ------------------------------------------------------------------ *)
(* E28: the observability subsystem.  Three claims: (1) tracing is
   cheap — off costs nothing (it is the absence of a ctx), 1-in-64
   sampling and even full tracing stay within a few percent on the E24
   mixed batch; (2) tracing is inert — responses are byte-identical
   with tracing on, because span ledgers only *read* counters; (3) the
   ledger is exact — on every traced request the question slots of the
   span tree sum to precisely the response's stats, and a
   budget-tripped request's trace shows where every question went. *)

type obs_mode_run = {
  om_mode : string;  (* "off" | "sampled" | "full" *)
  om_wall_s : float;  (* best of trials *)
  om_overhead_frac : float;  (* vs off; 0. for off itself *)
  om_identical : bool;  (* responses byte-identical to the off run *)
  om_traced : int;  (* traces collected in the last trial *)
}

type obs_result = {
  ob_requests : int;
  ob_trials : int;
  ob_modes : obs_mode_run list;
  ledger_checked : int;  (* traced requests matched against stats *)
  ledger_exact : bool;  (* every one summed exactly *)
  budget_error : string;  (* error kind of the worked budget-trip probe *)
  budget_questions : int;  (* its trace's question total *)
  budget_trace : string;  (* the worked span tree, one-line JSON *)
  ob_violations : string list;
}

let obs_modes = [ "off"; "sampled"; "full" ]

let obs_workload ?(requests = 2000) ?(trials = 3) () =
  let batch = build_batch requests in
  let ctx_of mode () =
    match mode with
    | "off" -> None
    | "sampled" ->
        Some (Obs.Trace.make ~capacity:256 ~sampling:(Obs.Trace.Every 64) ())
    | _ ->
        (* full: ring sized to the batch so the ledger check sees every
           request, not just the last 256 *)
        Some (Obs.Trace.make ~capacity:requests ~sampling:Obs.Trace.All ())
  in
  let run_once mode =
    (* fresh engine per run: cold memo tables make the runs comparable *)
    let trace = ctx_of mode () in
    let engine = Engine.create ?trace () in
    let responses, wall_s = time (fun () -> Engine.handle_all engine batch) in
    (responses, wall_s, Engine.traces engine)
  in
  (* Best-of-trials wall clock per mode; responses/traces kept from the
     last trial (they are deterministic across trials anyway). *)
  let measure mode =
    List.fold_left
      (fun (w, _, _) _ ->
        let r, w', trs = run_once mode in
        (Float.min w w', r, trs))
      (Float.infinity, [], [])
      (Prelude.Ints.range 0 trials)
  in
  let runs = List.map (fun m -> (m, measure m)) obs_modes in
  let off_wall, off_responses, _ = List.assoc "off" runs in
  let reference = results_fingerprint off_responses in
  let modes =
    List.map
      (fun (m, (w, responses, traces)) ->
        {
          om_mode = m;
          om_wall_s = w;
          om_overhead_frac = (if m = "off" then 0.0 else (w /. off_wall) -. 1.0);
          om_identical = String.equal reference (results_fingerprint responses);
          om_traced = List.length traces;
        })
      runs
  in
  (* Ledger exactness, on the full run: every traced request's question
     slots sum to its response's stats. *)
  let _, full_responses, full_traces = List.assoc "full" runs in
  let stats_by_id = Hashtbl.create (List.length full_responses) in
  List.iter
    (fun (r : Request.response) ->
      Hashtbl.replace stats_by_id r.Request.id (questions r.Request.stats))
    full_responses;
  let checked = ref 0 and exact = ref true in
  List.iter
    (fun tr ->
      match Hashtbl.find_opt stats_by_id tr.Obs.Trace.req_id with
      | None -> ()
      | Some q ->
          incr checked;
          if Obs.Trace.trace_questions tr <> q then exact := false)
    full_traces;
  (* The worked example: a budget-tripped tree expansion, fully traced,
     so the Budget_exceeded error comes with an exact breakdown of
     where its quota went. *)
  let budget_error, budget_questions, budget_trace =
    let config =
      {
        Engine.default_config with
        limits =
          Resilience.{ max_oracle_calls = Some 200; deadline_s = None };
      }
    in
    let trace = Obs.Trace.make ~capacity:4 ~sampling:Obs.Trace.All () in
    let engine = Engine.create ~config ~trace () in
    let r = Engine.handle engine pathological_request in
    let kind =
      match r.Request.result with
      | Error (Request.Budget_exceeded _) -> "budget_exceeded"
      | Error e -> Request.error_to_string e
      | Ok _ -> "ok"
    in
    match Engine.traces engine with
    | tr :: _ ->
        (kind, Obs.Trace.trace_questions tr, Obs.Trace.to_json_string tr)
    | [] -> (kind, 0, "")
  in
  (* Acceptance: overheads under 5% (with an absolute-slack escape for
     sub-50ms smoke runs where one scheduler hiccup dwarfs the work),
     byte-identity in every mode, ledger exact, probe actually
     tripped. *)
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun m ->
      if m.om_mode <> "full" then begin
        let delta = m.om_wall_s -. off_wall in
        if m.om_overhead_frac >= 0.05 && delta >= 0.05 then
          violate "%s tracing overhead %.1f%% (>= 5%%, +%.3fs)" m.om_mode
            (100. *. m.om_overhead_frac) delta
      end;
      if not m.om_identical then
        violate "%s responses differ from untraced run" m.om_mode)
    modes;
  if not !exact then violate "a traced request's ledger did not sum to its stats";
  if !checked = 0 then violate "no traced request could be checked";
  if budget_error <> "budget_exceeded" then
    violate "budget probe returned %s, not budget_exceeded" budget_error;
  if budget_questions > 200 then
    violate "budget-tripped trace shows %d questions > quota 200"
      budget_questions;
  {
    ob_requests = requests;
    ob_trials = trials;
    ob_modes = modes;
    ledger_checked = !checked;
    ledger_exact = !exact;
    budget_error;
    budget_questions;
    budget_trace;
    ob_violations = List.rev !violations;
  }

let obs_to_json (r : obs_result) =
  Json.Obj
    [
      ("workload", Json.String "E24 mixed batch, sequential engine");
      ("requests", Json.Int r.ob_requests);
      ("trials", Json.Int r.ob_trials);
      ( "modes",
        Json.Obj
          (List.map
             (fun m ->
               ( m.om_mode,
                 Json.Obj
                   [
                     ("wall_s", Json.Float m.om_wall_s);
                     ("overhead_frac", Json.Float m.om_overhead_frac);
                     ("identical", Json.Bool m.om_identical);
                     ("traced", Json.Int m.om_traced);
                   ] ))
             r.ob_modes) );
      ( "ledger",
        Json.Obj
          [
            ("checked", Json.Int r.ledger_checked);
            ("exact", Json.Bool r.ledger_exact);
          ] );
      ( "budget_trip",
        Json.Obj
          [
            ("error", Json.String r.budget_error);
            ("questions", Json.Int r.budget_questions);
            ( "trace",
              match Json.parse r.budget_trace with
              | Ok j -> j
              | Error _ -> Json.String r.budget_trace );
          ] );
      ("violations", Json.List (List.map (fun s -> Json.String s) r.ob_violations));
    ]

let run_obs ?out ?requests ?trials () =
  Format.printf "observability benchmark (E28):@.";
  let r = obs_workload ?requests ?trials () in
  Format.printf "  E24 mixed batch, %d requests, best of %d:@." r.ob_requests
    r.ob_trials;
  List.iter
    (fun m ->
      Format.printf
        "    %-7s %.4fs  (%+.2f%% vs off), byte-identical: %b, traces: %d@."
        m.om_mode m.om_wall_s
        (100. *. m.om_overhead_frac)
        m.om_identical m.om_traced)
    r.ob_modes;
  Format.printf
    "  ledger slices: %d traced requests checked against stats, all exact: \
     %b@."
    r.ledger_checked r.ledger_exact;
  Format.printf
    "  budget trip (tree(paths3,6), quota 200): %s, trace accounts for %d \
     questions@."
    r.budget_error r.budget_questions;
  Json.write_opt out (fun () -> obs_to_json r);
  r.ob_violations

(* ------------------------------------------------------------------ *)
(* E29: the RQL front-end.  Three claims: (1) the cost-based planner
   asks measurably fewer Def. 3.9 questions than naive evaluation of
   the same queries; (2) a plan-cache-warm re-serve skips parsing and
   planning entirely (zero new plan-table misses) and, with the shared
   definition memo, asks zero new genuine questions; (3) every mode
   returns byte-identical answers — the planner may only shrink the
   ledger, never change a served byte. *)

let rql_instances = [ "triangles"; "mod2"; "paths3"; "arrows"; "bipartite" ]

(* Query targets carry no inline cutoff, so the request-level cutoff
   applies — the warm pass shrinks it by one, forcing a fresh
   whole-request evaluation whose member window is a subset of the cold
   pass's (hence answerable entirely from warm memos). *)
let rql_texts =
  [
    "fix conn(x, y) = R1(x, y) || exists z. (R1(x, z) && conn(z, y)); \
     query {(x, y) | conn(x, y)}";
    (* whitespace/alpha variant of the previous query: same normalized
       text, so the cold pass already shares its compiled plan *)
    "fix r(u,v)=R1(u,v)||exists w.(R1(u,w)&&r(w,v));query {(u,v)|r(u,v)}";
    "fix dead(x, y) = R1(x, y) || exists z. (R1(x, z) && dead(z, y)); \
     let live(x) = exists y. R1(x, y); query {(x) | live(x)}";
    "let e(x, y) = R1(x, y) || R1(y, x); let ee(x, y) = e(x, y); \
     sentence exists x. exists y. ee(x, y)";
    "fix p(x, y) = R1(x, y) || exists z. (R1(x, z) && p(z, y)); \
     fix q(u, v) = R1(u, v) || exists w. (R1(u, w) && q(w, v)); \
     sentence exists x. exists y. (p(x, y) && q(y, x))";
    "sentence forall x. forall y. (R1(x, y) -> exists z. R1(y, z))";
    "query {(x, y) | R1(x, y) && x != y}";
    "tree 2";
  ]

let build_rql_batch ?(cutoff = 4) ~planner n =
  let ninst = List.length rql_instances in
  let ntext = List.length rql_texts in
  List.map
    (fun i ->
      let instance = List.nth rql_instances (i mod ninst) in
      let text = List.nth rql_texts (i / ninst mod ntext) in
      Request.make ~id:(i + 1)
        (Request.Rql { instance; text; cutoff; planner }))
    (Prelude.Ints.range 0 n)

type rql_result = {
  r_requests : int;
  naive_questions : int;
  planned_questions : int;
  question_ratio : float;  (* naive / planned *)
  cold_plan_misses : int;
  cold_plan_hits : int;
  warm_plan_misses : int;  (* must be 0: nothing re-parsed or re-planned *)
  warm_plan_hits : int;
  warm_new_questions : int;  (* must be 0: answered from warm memos *)
  r_identical : bool;  (* naive = planned, cold and warm *)
  r_violations : string list;
}

let rql_workload ?(requests = 120) () =
  let serve () =
    let shared = Shared_memo.create () in
    let engine = Engine.create ~shared () in
    (engine, fun batch -> Engine.handle_all engine batch)
  in
  let naive_engine, naive_serve = serve () in
  let planned_engine, planned_serve = serve () in
  let cold_naive = build_rql_batch ~planner:Request.Plan_naive requests in
  let cold_planned = build_rql_batch ~planner:Request.Plan_cost requests in
  let warm_naive =
    build_rql_batch ~cutoff:3 ~planner:Request.Plan_naive requests
  in
  let warm_planned =
    build_rql_batch ~cutoff:3 ~planner:Request.Plan_cost requests
  in
  let rn = naive_serve cold_naive in
  let naive_questions = Engine.question_count naive_engine in
  let rp = planned_serve cold_planned in
  let planned_questions = Engine.question_count planned_engine in
  let plan_stats () =
    match Engine.shared_stats planned_engine with
    | Some s -> s.Shared_memo.plans
    | None -> { Shared_memo.hits = 0; misses = 0 }
  in
  let cold_plans = plan_stats () in
  let wn = naive_serve warm_naive in
  let wp = planned_serve warm_planned in
  let warm_plans = plan_stats () in
  let warm_new_questions =
    Engine.question_count planned_engine - planned_questions
  in
  let identical_cold =
    String.equal (results_fingerprint rn) (results_fingerprint rp)
  in
  let identical_warm =
    String.equal (results_fingerprint wn) (results_fingerprint wp)
  in
  let errors =
    List.filter
      (fun (r : Request.response) -> Stdlib.Result.is_error r.Request.result)
      (rn @ rp @ wn @ wp)
  in
  let question_ratio =
    if planned_questions = 0 then Float.infinity
    else float_of_int naive_questions /. float_of_int planned_questions
  in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  (match errors with
  | [] -> ()
  | (e : Request.response) :: _ ->
      violate "%d error responses in an all-valid workload (first: %s)"
        (List.length errors)
        (match e.Request.result with
        | Error err -> Request.error_to_string err
        | Ok _ -> assert false));
  if not identical_cold then
    violate "planned cold responses differ from naive";
  if not identical_warm then
    violate "planned warm responses differ from naive";
  if planned_questions >= naive_questions then
    violate "planner saved nothing: %d planned vs %d naive questions"
      planned_questions naive_questions;
  if warm_plans.Shared_memo.misses > cold_plans.Shared_memo.misses then
    violate "warm pass re-planned: %d new plan-table misses"
      (warm_plans.Shared_memo.misses - cold_plans.Shared_memo.misses);
  if warm_new_questions > 0 then
    violate "warm pass asked %d new genuine questions" warm_new_questions;
  {
    r_requests = requests;
    naive_questions;
    planned_questions;
    question_ratio;
    cold_plan_misses = cold_plans.Shared_memo.misses;
    cold_plan_hits = cold_plans.Shared_memo.hits;
    warm_plan_misses = warm_plans.Shared_memo.misses - cold_plans.Shared_memo.misses;
    warm_plan_hits = warm_plans.Shared_memo.hits - cold_plans.Shared_memo.hits;
    warm_new_questions;
    r_identical = identical_cold && identical_warm;
    r_violations = List.rev !violations;
  }

let rql_to_json (r : rql_result) =
  Json.Obj
    [
      ("workload", Json.String "mixed RQL batch over five instances");
      ("requests", Json.Int r.r_requests);
      ( "questions",
        Json.Obj
          [
            ("naive", Json.Int r.naive_questions);
            ("planned", Json.Int r.planned_questions);
            ("ratio", Json.Float r.question_ratio);
          ] );
      ( "plan_cache",
        Json.Obj
          [
            ("cold_misses", Json.Int r.cold_plan_misses);
            ("cold_hits", Json.Int r.cold_plan_hits);
            ("warm_misses", Json.Int r.warm_plan_misses);
            ("warm_hits", Json.Int r.warm_plan_hits);
            ("warm_new_questions", Json.Int r.warm_new_questions);
          ] );
      ("identical", Json.Bool r.r_identical);
      ( "violations",
        Json.List (List.map (fun s -> Json.String s) r.r_violations) );
    ]

let run_rql ?out ?requests () =
  Format.printf "RQL planner benchmark (E29):@.";
  let r = rql_workload ?requests () in
  Format.printf
    "  %d requests: naive asked %d questions, planned %d (%.2fx fewer)@."
    r.r_requests r.naive_questions r.planned_questions r.question_ratio;
  Format.printf
    "  plan cache: cold %d misses / %d hits; warm re-serve %d misses / %d \
     hits, %d new questions@."
    r.cold_plan_misses r.cold_plan_hits r.warm_plan_misses r.warm_plan_hits
    r.warm_new_questions;
  Format.printf "  naive and planned byte-identical: %b@." r.r_identical;
  Json.write_opt out (fun () -> rql_to_json r);
  r.r_violations

(* ------------------------------------------------------------------ *)
(* E31: the closure-compiled hot path.  Two layers of evidence.

   Raw-evaluator hot runs time an interpreter loop against its
   compiled counterpart.  The >= 5x gate sits on the two
   interpretation-dominated workloads of the paper's own experiments —
   deep Eq-heavy tree quantification (the E17 representative-based
   evaluator) and bounded-domain enumeration (the E9/E17 naive
   baseline) — where the tree walk itself (AST re-matching, assoc-list
   environments, per-binding allocation) is the cost being removed.
   The RQL and QL rows are reported ungated: their hot loops are
   dominated by work identical in both modes (≅-probe memo lookups and
   Tupleset membership for RQL fixpoints, whole-set algebra for QL),
   so compilation only removes the thin control walk around it — the
   measured ratio is evidence of overhead removed, not a gate.

   The golden check is the correctness half.  The engine has one
   evaluation path, the compiled one; the interpreted engine it
   replaced was run once on the golden sets below (a mixed batch of FO
   sentences and queries, class counts, QL programs and RQL fixpoints,
   plus budget- and deadline-tripped requests) and its output frozen
   in test/golden/compile_interp.jsonl.  A fresh, memo-private engine
   must reproduce every line: the response bytes (stats stripped) AND
   the Def. 3.9 ledger — oracle_calls, tb_calls, equiv_calls,
   cache_hits.  Compilation that changed either would be a wrong
   answer, not a speedup. *)

type hot_run = {
  h_name : string;
  h_gated : bool;  (* counts toward the >= 5x acceptance gate *)
  h_interp_s : float;  (* best of trials *)
  h_compiled_s : float;  (* best of trials, compile once outside *)
  h_speedup : float;
  h_identical : bool;  (* same outcome from both evaluators *)
}

type compile_result = {
  k_requests : int;
  k_min_speedup : float;
  k_hot : hot_run list;
  k_golden_s : float;  (* serving every golden set, compiled *)
  k_checked : int;  (* responses compared against the golden file *)
  k_golden_ok : bool;  (* every one reproduced the frozen line *)
  k_violations : string list;
}

(* Rank 4, triangles: each quantifier level iterates memoized
   [children] lists; the innermost body is a wide Eq/relation boolean
   so per-visit cost is interpretation, not oracle traffic. *)
let e31_fo_sentence =
  "forall x. exists y. forall z. exists w. \
   ((x = y || y = z || z = w || (x != w && R1(x, y))) && \
    (w = x || x != z || R1(z, w) || (y = w && x = z)) && \
    (y != z || x = w || R1(y, z) || w != x) && \
    (x = w || w != y || R1(x, z) || (z = y && y != x)))"

(* Bounded-domain sweep: three nested quantifiers over {0..cutoff-1},
   cutoff^3 visits of a wide boolean body. *)
let e31_qf_sentence =
  "forall x. exists y. forall z. \
   ((x = y || y = z || R1(x, y) || z != x) && \
    (y != z || R1(x, z) || x = z || z = y) && \
    (z = x || R1(y, z) || x != y || y = z))"

let e31_rql_text =
  "fix p(x, y) = R1(x, y) || exists z. (R1(x, z) && p(z, y)); \
   query {(x, y) | p(x, y)}"

let e31_ql_program = "Y1 <- E; Y2 <- Y1^; Y3 <- Y2!%; Y4 <- ~(Rel1 & Y3)"

let best_of trials f =
  let best = ref Float.infinity in
  for _ = 1 to trials do
    let _, s = time f in
    if s < !best then best := s
  done;
  !best

let hot_run ~name ~gated ~trials ~interp ~compiled ~equal =
  (* Warm both paths first: the instance memos (children lists, tree
     levels) fill on the first evaluation and are shared state — both
     timed loops must run against the same warm tables. *)
  let a = interp () and b = compiled () in
  let h_interp_s = best_of trials interp in
  let h_compiled_s = best_of trials compiled in
  {
    h_name = name;
    h_gated = gated;
    h_interp_s;
    h_compiled_s;
    h_speedup =
      (if h_compiled_s > 0. then h_interp_s /. h_compiled_s
       else Float.infinity);
    h_identical = equal a b;
  }

let fo_hot_run ~repeats ~trials =
  let t =
    match Engine.build_instance "triangles" with
    | Some t -> t
    | None -> failwith "triangles not registered"
  in
  let f = Rlogic.Parser.formula e31_fo_sentence in
  let interp () =
    let r = ref false in
    for _ = 1 to repeats do
      r := Hs.Fo_eval.eval_sentence t f
    done;
    !r
  in
  let body = Hs.Fo_compile.sentence t f in
  let compiled () =
    let r = ref false in
    for _ = 1 to repeats do
      r := body ()
    done;
    !r
  in
  hot_run ~name:"fo_deep" ~gated:true ~trials ~interp ~compiled
    ~equal:Bool.equal

let qf_hot_run ~repeats ~trials ~cutoff =
  let db =
    match Engine.build_instance "triangles" with
    | Some t -> Hs.Hsdb.db t
    | None -> failwith "triangles not registered"
  in
  let f = Rlogic.Parser.formula e31_qf_sentence in
  let interp () =
    let r = ref false in
    for _ = 1 to repeats do
      r := Rlogic.Qf_eval.eval_bounded db ~cutoff ~env:[] f
    done;
    !r
  in
  let cf = Rlogic.Qf_compile.compile_bounded db ~cutoff ~vars:[] f in
  let compiled () =
    let r = ref false in
    for _ = 1 to repeats do
      r := cf Prelude.Tuple.empty
    done;
    !r
  in
  hot_run ~name:"qf_bounded" ~gated:true ~trials ~interp ~compiled
    ~equal:Bool.equal

let rql_hot_run ~repeats ~trials =
  let t =
    match Engine.build_instance "paths3" with
    | Some t -> t
    | None -> failwith "paths3 not registered"
  in
  (* Naive mode: every fixpoint round re-tests the full path set
     through the definition body — the interpretation-heaviest RQL
     schedule, identical in both modes. *)
  let plan = Rql.Rql_plan.plan_of_text ~mode:Rql.Rql_plan.Naive e31_rql_text in
  let interp () =
    let r = ref (Rql.Rql_eval.Bool false) in
    for _ = 1 to repeats do
      r := Rql.Rql_eval.run ~cutoff:6 t plan
    done;
    !r
  in
  let pr = Rql.Rql_compile.prepare t plan in
  let compiled () =
    let r = ref (Rql.Rql_eval.Bool false) in
    for _ = 1 to repeats do
      r := Rql.Rql_compile.run ~cutoff:6 pr
    done;
    !r
  in
  (* Ungated: naive derived-atom probes are ≅-scans against warm memo
     tables — hashtable traffic identical in both modes dominates. *)
  hot_run ~name:"rql_fixpoint" ~gated:false ~trials ~interp ~compiled
    ~equal:(fun a b -> a = b)

let ql_hot_run ~repeats ~trials ~fuel =
  let t =
    match Engine.build_instance "triangles" with
    | Some t -> t
    | None -> failwith "triangles not registered"
  in
  let p = Ql.Ql_parser.program e31_ql_program in
  let interp () =
    let r = ref Ql.Ql_interp.Timeout in
    for _ = 1 to repeats do
      r := Ql.Ql_hs.run t ~fuel p
    done;
    !r
  in
  let cp = Ql.Ql_compile.compile ~algebra:(Ql.Ql_hs.algebra t) p in
  let compiled () =
    let r = ref Ql.Ql_interp.Timeout in
    for _ = 1 to repeats do
      r := Ql.Ql_compile.run cp ~fuel
    done;
    !r
  in
  let equal a b =
    match (a, b) with
    | Ql.Ql_interp.Halted u, Ql.Ql_interp.Halted v ->
        Array.length u = Array.length v
        && Array.for_all2 Ql.Ql_hs.equal_value u v
    | Ql.Ql_interp.Timeout, Ql.Ql_interp.Timeout -> true
    | Ql.Ql_interp.Ill_formed a, Ql.Ql_interp.Ill_formed b ->
        String.equal a b
    | _ -> false
  in
  (* Ungated: QL cost is Tupleset algebra — the identical set closures
     run in both modes, compilation only removes the control walk. *)
  hot_run ~name:"ql_program" ~gated:false ~trials ~interp ~compiled ~equal

let e31_ql_batch_programs =
  [
    "Y1 <- ~(Rel1 & E)";
    "Y1 <- E; Y2 <- Y1^; Y3 <- Y2!%";
    "Y1 <- Rel1; while |Y2| = 0 do { Y2 <- E^ }";
  ]

let build_compile_batch n =
  (* The mixed E24 batch, every seventh request replaced by an RQL
     fixpoint and every eleventh by a QL program, so all four compiled
     evaluators serve inside one batch checked against the golden file. *)
  let nprog = List.length e31_ql_batch_programs in
  let nrql = List.length rql_texts in
  List.map
    (fun (r : Request.t) ->
      let i = r.Request.id in
      let instance = List.nth batch_instances (i mod List.length batch_instances) in
      if i mod 11 = 5 then
        { r with
          Request.payload =
            Request.Program
              {
                instance;
                program = List.nth e31_ql_batch_programs (i / 11 mod nprog);
                fuel = 1000;
                cutoff = 4;
              } }
      else if i mod 7 = 3 then
        { r with
          Request.payload =
            Request.Rql
              {
                instance = List.nth rql_instances (i mod List.length rql_instances);
                text = List.nth rql_texts (i / 7 mod nrql);
                cutoff = 4;
                planner = Request.Plan_cost;
              } }
      else r)
    (build_batch n)

(* The golden sets: inputs the interpreted engine was frozen on.  Each
   is served by a fresh engine under its own limits — "budget" trips a
   200-question quota mid-evaluation, "deadline" a 0 s deadline at the
   first guard tick — so the typed errors and their exact cost-so-far
   are part of the reference too. *)
let golden_trips =
  [
    Request.make ~id:1 (Request.Tree { instance = "paths3"; depth = 6 });
    Request.make ~id:2
      (Request.Query
         {
           instance = "triangles";
           query = "{(x, y) | exists z. R1(x, z) && R1(z, y)}";
           cutoff = 10;
         });
  ]

let golden_mixed =
  List.concat_map
    (fun (i, instance) ->
      [
        Request.make
          ~id:((10 * i) + 1)
          (Request.Sentence
             { instance; sentence = "exists x. forall y. y != x -> R1(x, y)" });
        Request.make
          ~id:((10 * i) + 2)
          (Request.Program
             { instance; program = "Y1 <- ~(Rel1 & E)"; fuel = 1000; cutoff = 4 });
        Request.make
          ~id:((10 * i) + 3)
          (Request.Rql { instance; text = e31_rql_text; cutoff = 4;
                         planner = Request.Plan_cost });
      ])
    [ (1, "triangles"); (2, "mod2") ]

let golden_e31_requests = 200

let golden_input ~e31 = function
  | "mixed" -> (Resilience.no_limits, golden_mixed)
  | "budget" ->
      ({ Resilience.max_oracle_calls = Some 200; deadline_s = None },
       golden_trips)
  | "deadline" ->
      ({ Resilience.max_oracle_calls = None; deadline_s = Some 0.0 },
       golden_trips)
  | "e31" -> (Resilience.no_limits, build_compile_batch e31)
  | set -> invalid_arg ("Engine_bench: no golden set " ^ set)

let golden_line set (r : Request.response) =
  let s = r.Request.stats in
  Json.to_string
    (Json.Obj
       [
         ("set", Json.String set);
         ("response", Request.response_to_json ~stats:false r);
         ("oracle_calls", Json.Int s.Request.oracle_calls);
         ("tb_calls", Json.Int s.Request.tb_calls);
         ("equiv_calls", Json.Int s.Request.equiv_calls);
         ("cache_hits", Json.Int s.Request.cache_hits);
       ])

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

(* Serve one golden set and diff it line by line against the frozen
   file; the e31 set may be cut to a prefix (a fresh sequential engine
   serves a prefix exactly as it serves the start of the whole batch).
   Returns the number of responses served and the differences. *)
let golden_diff ~path ?(e31 = golden_e31_requests) set =
  match read_lines path with
  | exception Sys_error e -> (0, [ "cannot read the golden file: " ^ e ])
  | lines -> (
      let tag = Printf.sprintf {|{"set":%S,|} set in
      let expected = List.filter (String.starts_with ~prefix:tag) lines in
      let expected =
        if set = "e31" then List.filteri (fun i _ -> i < e31) expected
        else expected
      in
      let limits, batch = golden_input ~e31 set in
      let engine =
        Engine.create ~config:{ Engine.default_config with limits } ()
      in
      let observed =
        List.map (golden_line set) (Engine.handle_all engine batch)
      in
      let n = List.length observed in
      if List.length expected <> n then
        ( n,
          [
            Printf.sprintf "golden %s: %d responses served, the file has %d"
              set n (List.length expected);
          ] )
      else
        match
          List.filter
            (fun (e, o) -> not (String.equal e o))
            (List.combine expected observed)
        with
        | [] -> (n, [])
        | (e, o) :: rest ->
            ( n,
              [
                Printf.sprintf
                  "golden %s: %d of %d responses differ; first:\n\
                  \  expected %s\n\
                  \  got      %s"
                  set (1 + List.length rest) n e o;
              ] ))

let golden_sets = [ "mixed"; "budget"; "deadline"; "e31" ]

let check_golden ~path set = snd (golden_diff ~path set)

(* The acceptance gate for the interpretation-bound hot loops. *)
let min_speedup = 5.0

let compile_workload ~golden ?(requests = golden_e31_requests) () =
  let trials = 3 in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let hot =
    [
      fo_hot_run ~repeats:2000 ~trials;
      qf_hot_run ~repeats:40 ~trials ~cutoff:12;
      rql_hot_run ~repeats:25 ~trials;
      ql_hot_run ~repeats:300 ~trials ~fuel:1000;
    ]
  in
  List.iter
    (fun h ->
      if not h.h_identical then
        violate "%s: compiled outcome differs from interpreted" h.h_name;
      if h.h_gated && h.h_speedup < min_speedup then
        violate "%s: speedup %.2fx < %.1fx gate (%.4fs vs %.4fs)" h.h_name
          h.h_speedup min_speedup h.h_interp_s h.h_compiled_s)
    hot;
  let diffs, k_golden_s =
    time (fun () ->
        List.map (golden_diff ~path:golden ~e31:requests) golden_sets)
  in
  let k_checked = List.fold_left (fun acc (n, _) -> acc + n) 0 diffs in
  List.iter (fun (_, vs) -> List.iter (violate "%s") vs) diffs;
  {
    k_requests = requests;
    k_min_speedup = min_speedup;
    k_hot = hot;
    k_golden_s;
    k_checked;
    k_golden_ok = List.for_all (fun (_, vs) -> vs = []) diffs;
    k_violations = List.rev !violations;
  }

let compile_to_json (k : compile_result) =
  Json.Obj
    [
      ("workload", Json.String "compiled vs interpreted evaluation");
      ("requests", Json.Int k.k_requests);
      ("min_speedup", Json.Float k.k_min_speedup);
      ( "hot_runs",
        Json.List
          (List.map
             (fun h ->
               Json.Obj
                 [
                   ("name", Json.String h.h_name);
                   ("gated", Json.Bool h.h_gated);
                   ("interpreted_s", Json.Float h.h_interp_s);
                   ("compiled_s", Json.Float h.h_compiled_s);
                   ("speedup", Json.Float h.h_speedup);
                   ("identical", Json.Bool h.h_identical);
                 ])
             k.k_hot) );
      ( "golden",
        Json.Obj
          [
            ("compiled_s", Json.Float k.k_golden_s);
            ("checked", Json.Int k.k_checked);
            ("identical", Json.Bool k.k_golden_ok);
          ] );
      ( "violations",
        Json.List (List.map (fun s -> Json.String s) k.k_violations) );
    ]

let run_compile ?out ~golden ?requests () =
  Format.printf "Compiled-evaluation benchmark (E31):@.";
  let k = compile_workload ~golden ?requests () in
  List.iter
    (fun h ->
      Format.printf "  %-12s %8.4fs interpreted  %8.4fs compiled  %6.2fx%s%s@."
        h.h_name h.h_interp_s h.h_compiled_s h.h_speedup
        (if h.h_gated then "  [gated]" else "")
        (if h.h_identical then "" else "  MISMATCH"))
    k.k_hot;
  Format.printf
    "  golden sets (e31 batch of %d requests): %d responses served \
     compiled in %.3fs, checked against the frozen interpreted output@."
    k.k_requests k.k_checked k.k_golden_s;
  Json.write_opt out (fun () -> compile_to_json k);
  k.k_violations
