type t = {
  listener : Listener.t;
  pool : Pool.t;
  store : Store.t option;
      (* owned: loaded before the pool existed, closed (final snapshot)
         on drain after the pool has quiesced *)
  admission : Admission.t;
  conns : Conn.group;
  drained : bool Atomic.t;
  expo : Expo_server.t option;  (* the /metrics side-channel listener *)
  expo_source : Obs.Expo.source;
      (* this server's gauges in the process-wide exposition registry;
         unregistered on drain (tests start many servers per process) *)
}

let start ?(host = "127.0.0.1") ?(port = 0) ?domains ?(window = 64)
    ?(per_conn_window = 16) ?(max_line = Frame.default_max_line)
    ?(stats = true) ?engine_config ?tracing ?metrics_port ?store_dir
    ?snapshot_interval_s () =
  Frame.ignore_sigpipe ();
  (* Durability, when asked for: the snapshot is loaded into a memo
     layer *before* any worker exists, so the pool's first request
     already hits warm tables, and the journal's pending requests are
     re-executed before the listener opens (their original clients are
     gone; re-execution warms the memo and completes the journal). *)
  let store_opened =
    Option.map
      (fun dir ->
        let memo = Shared_memo.create () in
        let store, report =
          Store.open_store ?snapshot_interval_s ~dir memo
        in
        (store, report, memo))
      store_dir
  in
  let pool =
    let shared = Option.map (fun (_, _, memo) -> memo) store_opened in
    Pool.create ?domains ?engine_config ?tracing ?shared ()
  in
  let store =
    match store_opened with
    | None -> None
    | Some (store, report, _) ->
        (match report.Store.pending with
        | [] -> ()
        | pending ->
            let requests, seqs =
              List.fold_left
                (fun (reqs, seqs) (seq, line) ->
                  match Request.of_line line with
                  | Ok req -> (req :: reqs, seq :: seqs)
                  | Error _ ->
                      (* journaled by us, so this should be impossible;
                         drop rather than refuse to boot *)
                      Store.journal_complete store seq;
                      (reqs, seqs))
                ([], []) pending
            in
            let requests = List.rev requests and seqs = List.rev seqs in
            if requests <> [] then begin
              ignore (Pool.run_batch pool requests);
              List.iter (Store.journal_complete store) seqs;
              Store.replayed store (List.length requests)
            end);
        Some store
  in
  let admission = Admission.create ~window in
  let listener =
    try Listener.bind ~host ~port
    with e ->
      Pool.shutdown ~timeout_s:5.0 pool;
      raise e
  in
  (* This server's live gauges, contributed to the process-wide
     exposition registry alongside the Metrics counters/histograms the
     serving layers already record. *)
  let expo_source =
    Obs.Expo.register "server" (fun () ->
        let cs = Pool.cache_stats pool in
        let g name help value =
          Obs.Expo.Gauge { name; help; value = float_of_int value }
        in
        [
          g "admission_window" "global in-flight admission bound"
            (Admission.window admission);
          g "admission_inflight" "requests currently admitted"
            (Admission.inflight admission);
          g "admission_high_water" "max concurrently admitted so far"
            (Admission.high_water admission);
          Obs.Expo.Counter
            {
              name = "admission_admitted";
              help = "requests admitted";
              value = Admission.admitted admission;
            };
          Obs.Expo.Counter
            {
              name = "admission_shed";
              help = "requests shed at the admission door";
              value = Admission.shed admission;
            };
          g "pool_size" "worker slots" (Pool.size pool);
          g "pool_oracle_questions"
            "Def. 3.9 questions asked across all worker engines"
            (Pool.oracle_questions pool);
          g "pool_cache_hits" "per-worker LRU hits" cs.Oracle_cache.hits;
          g "pool_cache_misses" "per-worker LRU misses" cs.Oracle_cache.misses;
          g "pool_cache_evictions" "per-worker LRU evictions"
            cs.Oracle_cache.evictions;
        ]
        @
        (* Plan-cache and definition-memo gauges (the RQL front-end's
           shared tables). *)
        let ss = Pool.shared_stats pool in
        [
          g "pool_plan_cache_hits"
            "compiled-plan memo hits (raw text or normalized text)"
            ss.Shared_memo.plans.Shared_memo.hits;
          g "pool_plan_cache_misses" "compiled-plan memo misses"
            ss.Shared_memo.plans.Shared_memo.misses;
          g "pool_rql_def_hits"
            "materialized RQL definitions reused across requests"
            ss.Shared_memo.rql_defs.Shared_memo.hits;
          g "pool_rql_def_misses" "RQL definitions materialized"
            ss.Shared_memo.rql_defs.Shared_memo.misses;
        ])
  in
  let expo =
    match metrics_port with
    | None -> None
    | Some mp -> (
        let routes =
          let metrics () =
            ("text/plain; version=0.0.4", Obs.Expo.render_all ())
          in
          let traces () =
            ( "application/json",
              String.concat ""
                (List.map
                   (fun tr -> Obs.Trace.to_json_string tr ^ "\n")
                   (Pool.traces pool)) )
          in
          [ ("/metrics", metrics); ("/", metrics); ("/traces", traces) ]
        in
        try Some (Expo_server.start ~host ~port:mp ~routes ())
        with e ->
          Obs.Expo.unregister expo_source;
          Listener.stop listener;
          Pool.shutdown ~timeout_s:5.0 pool;
          raise e)
  in
  (* Admission happens here, at the door: a shed is answered at once,
     asks zero questions and touches neither the pool nor the journal,
     so wrapping only the admitted path journals exactly the admitted
     requests. *)
  let evaluate =
    match store with
    | None -> Pool.submit pool
    | Some store ->
        fun req k ->
          let line = Json.to_string (Request.to_json req) in
          let seq = Store.journal_admit store ~line in
          Pool.submit pool req (fun resp ->
              Store.journal_complete store seq;
              k resp)
  in
  let node = Printf.sprintf "%s:%d" host (Listener.port listener) in
  let m_bad_frames = Metrics.counter "server.bad_frames" in
  let answer (req : Request.t) = Conn.answer ~stats ~id:req.Request.id in
  let submit (req : Request.t) reply =
    if not (Admission.try_admit admission) then begin
      Metrics.incr m_bad_frames;
      reply
        (answer req
           (Error (Request.Overloaded { limit = Admission.window admission })))
    end
    else
      match req.Request.payload with
      | Request.Stats ->
          (* Answered at the serving door, not evaluated: the pool-wide
             ledger asks zero questions, bypasses the journal (replaying
             a stats report would be meaningless) and reflects this
             whole process — exactly what the cluster router sums. *)
          let raw, tb, equiv, cache_hits = Pool.ledger_counts pool in
          let cluster =
            Request.ledger ~node ~raw ~tb ~equiv ~cache_hits
              ~served:(Admission.admitted admission)
              ~sheds:(Admission.shed admission) ()
          in
          reply
            (answer req (Ok (Request.Ledger_report { cluster; shards = [] })));
          Admission.release admission
      | _ ->
          evaluate req (fun resp ->
              (* runs on a pool worker: [reply] never blocks, then the
                 in-flight slot comes free *)
              reply (Request.reply_line ~stats resp);
              Admission.release admission)
  in
  let conns = Conn.group () in
  Listener.run listener
    (Conn.serve { Conn.submit; stats; max_line; per_conn_window } conns);
  {
    listener;
    pool;
    store;
    admission;
    conns;
    drained = Atomic.make false;
    expo;
    expo_source;
  }

let port t = Listener.port t.listener
let metrics_port t = Option.map Expo_server.port t.expo
let admission t = t.admission
let pool t = t.pool
let store t = t.store
let connections t = Conn.accepted t.conns

let drain ?(timeout_s = 30.0) t =
  if Atomic.exchange t.drained true then `Clean
  else begin
    (* 0. Retire the observability side-channel: stop the /metrics
       listener and pull this server's gauges out of the process-wide
       registry (the next server to start registers its own). *)
    Option.iter Expo_server.stop t.expo;
    Obs.Expo.unregister t.expo_source;
    (* 1. Stop accepting, then 2. half-close every connection: admitted
       requests keep running and their responses are still written;
       stragglers at the deadline are aborted. *)
    Listener.stop t.listener;
    let outcome = Conn.drain ~timeout_s t.conns in
    Pool.shutdown ~timeout_s:5.0 t.pool;
    (* 3. Final durability flush, after the pool has quiesced so the
       snapshot sees every completed answer.  [Store.close] bounds the
       flush so drain still terminates on a hung disk. *)
    Option.iter Store.close t.store;
    outcome
  end
