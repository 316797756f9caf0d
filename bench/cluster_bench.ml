(* E32: sharded serving behind the consistent-hash router.

   Five claims, each a row:

   - {b routed}: a 200+-request mixed workload answered through the
     router is byte-identical (modulo response order, normalized by
     id) to the sequential in-process reference, and the merged
     cluster ledger's genuine questions are <= the sequential
     baseline's — the E26 containment invariant surviving process
     boundaries.

   - {b direct}: the identical loadgen workload driven router-less
     (multi-endpoint mode, one connection per shard slot) completes
     with zero lost/zero errors; the routed-vs-direct p50 and
     throughput deltas isolate the router's own hop as a reported
     overhead percentage.

   - {b hedge}: with one shard SIGSTOPped mid-run, a hedging router
     beats a non-hedging router's p99 on the same injection, hedges
     visibly fire, and the duplicate questions the losing shard asked
     appear in the merged ledger (the run is on a warm cluster, so
     {e every} new question is a hedge duplicate).

   - {b crash}: kill -9 one shard mid-load; the supervisor respawns it
     on the same port, in-flight requests fail over to ring siblings,
     the load completes with zero errors and zero lost requests, and a
     fresh pass is again byte-identical — the router process never
     dies (SIGPIPE is ignored; a dead shard is a typed error).

   - {b stats}: the stats op through the router parses as a ledger
     report carrying one row per shard plus the cluster sum.

   The workload is {!Workload.mixed_with_rql} (the store-smoke
   mix), so routing keys cover both instance-scoped and op-scoped
   payloads. *)

type result = {
  c_shards : int;
  c_requests : int;
  c_seq_questions : int;
  c_rows : Bench_util.row list;
  c_violations : string list;  (** empty = all acceptance checks pass *)
}

let total (l : Request.ledger) = l.Request.l_questions

let to_json (r : result) =
  Json.Obj
    [
      ("bench", Json.String "cluster");
      ("shards", Json.Int r.c_shards);
      ("requests", Json.Int r.c_requests);
      ("seq_questions", Json.Int r.c_seq_questions);
      ("rows", Json.List (List.map Bench_util.row_to_json r.c_rows));
      ( "violations",
        Json.List (List.map (fun v -> Json.String v) r.c_violations) );
    ]

let run ?out ?(requests = 240) ~exe () =
  let shards = 3 in
  Frame.ignore_sigpipe ();
  let dir = "_cluster_bench" in
  Proc.rm_rf dir;
  let violations = ref [] in
  let violation fmt =
    Format.kasprintf (fun s -> violations := s :: !violations) fmt
  in
  let rows = ref [] in
  let row name requests wall detail =
    rows :=
      {
        Bench_util.b_name = name;
        b_requests = requests;
        b_wall_s = wall;
        b_detail = detail;
      }
      :: !rows
  in
  (* --- sequential reference: bytes and the question baseline -------- *)
  let batch = Workload.mixed_with_rql requests in
  let lines = List.map (fun r -> Json.to_string (Request.to_json r)) batch in
  let seq_engine = Engine.create () in
  let reference =
    Proc.sort_by_id
      (List.map Bench_util.bytes (Engine.handle_all seq_engine batch))
  in
  let seq_raw, seq_tb, seq_eq, _ = Engine.ledger_counts seq_engine in
  let seq_questions = seq_raw + seq_tb + seq_eq in
  (* --- cluster up: n shards, two front doors over the same ring ----- *)
  match
    Shard_sup.start ~dir ~extra_args:[ "-j"; "1"; "--no-stats" ] ~exe
      ~n:shards ()
  with
  | Error e -> [ "supervisor failed to start: " ^ e ]
  | Ok sup ->
      let endpoints = Shard_sup.endpoints sup in
      (* plain router: rows routed/crash/stats *)
      let router =
        Router.start ~stats:false ~window:64 ~queue_timeout_s:10.0
          ~shards:endpoints ()
      in
      (* hedging router over the same shards: row hedge *)
      let hedger =
        Router.start ~stats:false ~window:64 ~queue_timeout_s:10.0
          ~hedge_after_s:0.05 ~shards:endpoints ()
      in
      let send_sorted port =
        match Proc.send_and_collect ~port lines with
        | Ok resp -> Proc.sort_by_id resp
        | Error e ->
            violation "workload send failed: %s" e;
            []
      in
      (* upstream managers connect asynchronously after Router.start;
         admit no traffic before every shard is reachable, or the first
         requests race the connects into spurious oracle_unavailable *)
      let wait_ready name r =
        let deadline = Unix.gettimeofday () +. 10.0 in
        let rec wait () =
          if (Router.counters r).Router.shards_up >= shards then ()
          else if Unix.gettimeofday () > deadline then
            violation "%s router never reached %d shards" name shards
          else begin
            Unix.sleepf 0.02;
            wait ()
          end
        in
        wait ()
      in
      wait_ready "plain" router;
      wait_ready "hedging" hedger;
      (* --- row 1: routed byte-identity + ledger containment --------- *)
      Format.eprintf "bench cluster: row routed...@.";
      let routed, routed_wall =
        Bench_util.time (fun () -> send_sorted (Router.port router))
      in
      if routed <> reference then begin
        violation "routed responses differ from the sequential reference";
        List.iteri
          (fun i (a, b) ->
            if i < 3 && not (String.equal a b) then
              Format.eprintf "  direct: %s@.  routed: %s@." a b)
          (try List.combine reference routed with Invalid_argument _ -> [])
      end;
      let merged0, shard_ledgers0 = Router.merged_ledger router in
      let cluster_q = total merged0 in
      if List.length shard_ledgers0 <> shards then
        violation "ledger merge reached %d of %d shards"
          (List.length shard_ledgers0) shards;
      if cluster_q > seq_questions then
        violation "cluster asked %d questions, sequential %d (<= required)"
          cluster_q seq_questions;
      row "routed" (List.length lines) routed_wall
        [
          ("identical", Json.Bool (routed = reference));
          ("cluster_questions", Json.Int cluster_q);
          ("seq_questions", Json.Int seq_questions);
          ( "per_shard_questions",
            Json.List
              (List.map (fun l -> Json.Int (total l)) shard_ledgers0) );
        ];
      (* --- row 2: router overhead, isolated --------------------------
         The same loadgen workload driven twice with identical knobs:
         once through the router's front door, once router-less with
         the generator's multi-endpoint mode dialing the shards
         directly (connection [c] -> shard [c mod n]).  Shards are
         complete engines, so any shard answers any request — the ring
         buys memo locality, not correctness — which makes the direct
         drive a legal baseline and the throughput/latency gap the
         router's own hop.  Lost or error responses on the direct path
         are violations; the overhead itself is reported, not judged. *)
      Format.eprintf "bench cluster: row direct...@.";
      let n = List.length lines in
      let routed_load =
        Loadgen.run ~port:(Router.port router) ~connections:4 ~requests:n
          ~pipeline:4 ()
      in
      let direct_load =
        Loadgen.run ~port:(Router.port router) ~endpoints ~connections:4
          ~requests:n ~pipeline:4 ()
      in
      if direct_load.Loadgen.lost > 0 then
        violation "direct drive lost %d requests" direct_load.Loadgen.lost;
      if direct_load.Loadgen.errors > 0 then
        violation "direct drive got %d error responses"
          direct_load.Loadgen.errors;
      let overhead_pct =
        if direct_load.Loadgen.p50_s > 0.0 then
          (routed_load.Loadgen.p50_s -. direct_load.Loadgen.p50_s)
          /. direct_load.Loadgen.p50_s *. 100.0
        else 0.0
      in
      row "direct"
        (routed_load.Loadgen.sent + direct_load.Loadgen.sent)
        (routed_load.Loadgen.wall_s +. direct_load.Loadgen.wall_s)
        [
          ("routed_p50_s", Json.Float routed_load.Loadgen.p50_s);
          ("direct_p50_s", Json.Float direct_load.Loadgen.p50_s);
          ( "routed_throughput_rps",
            Json.Float routed_load.Loadgen.throughput );
          ( "direct_throughput_rps",
            Json.Float direct_load.Loadgen.throughput );
          ("router_overhead_pct", Json.Float overhead_pct);
          ("direct_lost", Json.Int direct_load.Loadgen.lost);
          ("direct_errors", Json.Int direct_load.Loadgen.errors);
        ];
      (* --- row 3: hedged tail latency under a SIGSTOPped shard ------ *)
      let slow_shard =
        (* stall the shard that owns the most workload keys.  Ring
           nodes are named host:port over ephemeral ports, so which
           shard owns which instance varies run to run — a fixed
           index can land on a shard that owns nothing, and a stopped
           idle shard stalls no request and fires no hedge.  The
           routed row's per-shard ledgers are collected in upstream
           order, which is supervisor index order, so the argmax is
           the right index to stop. *)
        let _, _, best =
          List.fold_left
            (fun (i, best_q, best_i) l ->
              let q = total l in
              if q > best_q then (i + 1, q, i) else (i + 1, best_q, best_i))
            (0, -1, 0) shard_ledgers0
        in
        best
      in
      let stall_run port =
        (* stop the shard BEFORE the load: a warm cluster answers the
           whole run in milliseconds, so a delayed stop would land
           after the last response.  Stopped up front, every request
           owned by the busiest shard stalls until SIGCONT — the plain
           router waits the full 0.6s, the hedger escapes after 50ms *)
        Shard_sup.kill sup slow_shard Sys.sigstop;
        let resume =
          Thread.create
            (fun () ->
              Unix.sleepf 0.6;
              Shard_sup.kill sup slow_shard Sys.sigcont)
            ()
        in
        let report =
          Loadgen.run ~port ~connections:4 ~requests:(List.length lines)
            ~pipeline:4 ()
        in
        Thread.join resume;
        report
      in
      Format.eprintf "bench cluster: row hedge (plain door)...@.";
      let plain_report = stall_run (Router.port router) in
      (* the plain run warmed every question its workload asks; from
         here to the post-hedge sample, every new question in the
         merged ledger is a hedge duplicate a losing shard really
         asked *)
      let q_before_hedge = total (fst (Router.merged_ledger router)) in
      Format.eprintf "bench cluster: row hedge (hedging door)...@.";
      let hedged_report = stall_run (Router.port hedger) in
      let hcounters = Router.counters hedger in
      let q_after_hedge = total (fst (Router.merged_ledger router)) in
      let duplicates = q_after_hedge - q_before_hedge in
      if hcounters.Router.hedges_fired = 0 then
        violation "slow shard fired no hedges";
      if hedged_report.Loadgen.answered <> hedged_report.Loadgen.sent then
        violation "hedged run lost %d requests"
          (hedged_report.Loadgen.sent - hedged_report.Loadgen.answered);
      if
        plain_report.Loadgen.answered = plain_report.Loadgen.sent
        && hedged_report.Loadgen.p99_s >= plain_report.Loadgen.p99_s
      then
        violation "hedged p99 %.3fs not below plain p99 %.3fs"
          hedged_report.Loadgen.p99_s plain_report.Loadgen.p99_s;
      row "hedge"
        (plain_report.Loadgen.sent + hedged_report.Loadgen.sent)
        (plain_report.Loadgen.wall_s +. hedged_report.Loadgen.wall_s)
        [
          ("plain_p99_s", Json.Float plain_report.Loadgen.p99_s);
          ("hedged_p99_s", Json.Float hedged_report.Loadgen.p99_s);
          ("hedges_fired", Json.Int hcounters.Router.hedges_fired);
          ("hedge_wins", Json.Int hcounters.Router.hedge_wins);
          ("duplicate_questions", Json.Int duplicates);
        ];
      (* --- row 4: kill -9 mid-load, supervisor respawn, failover ---- *)
      Format.eprintf "bench cluster: row crash...@.";
      let respawns_before = Shard_sup.respawns sup in
      (* kill synchronously, before the load: a warm cluster answers
         the whole run in milliseconds, so a delayed kill would land
         after the last response and the row would measure nothing.
         Killed up front, the load runs against a 2/3 cluster while
         the supervisor respawns — failover has to absorb it live *)
      Shard_sup.kill sup 1 Sys.sigkill;
      let crash_report =
        Loadgen.run ~port:(Router.port router) ~connections:4
          ~requests:(List.length lines) ~pipeline:4 ()
      in
      (* recovery = the supervisor actually respawned (not just "nobody
         has noticed the corpse yet") and both views see a full fleet *)
      let deadline = Unix.gettimeofday () +. 15.0 in
      let rec wait_recovered () =
        let c = Router.counters router in
        if
          Shard_sup.respawns sup > respawns_before
          && Shard_sup.shards_up sup = shards
          && c.Router.shards_up = shards
        then true
        else if Unix.gettimeofday () > deadline then false
        else begin
          Unix.sleepf 0.05;
          wait_recovered ()
        end
      in
      let recovered = wait_recovered () in
      if not recovered then violation "cluster did not recover within 15s";
      if Shard_sup.respawns sup <= respawns_before then
        violation "supervisor recorded no respawn after kill -9";
      if crash_report.Loadgen.lost > 0 then
        violation "%d requests lost across the crash"
          crash_report.Loadgen.lost;
      if crash_report.Loadgen.errors > 0 then
        violation "%d error responses across the crash (failover should \
                   absorb a single shard death)"
          crash_report.Loadgen.errors;
      (* the respawned shard is cold: a fresh identity pass proves the
         cluster still answers exactly like the sequential engine *)
      let after_crash = send_sorted (Router.port router) in
      if after_crash <> reference then
        violation "post-recovery responses differ from the reference";
      row "crash" crash_report.Loadgen.sent crash_report.Loadgen.wall_s
        [
          ("respawns", Json.Int (Shard_sup.respawns sup - respawns_before));
          ("lost", Json.Int crash_report.Loadgen.lost);
          ("errors", Json.Int crash_report.Loadgen.errors);
          ("recovered", Json.Bool recovered);
          ("post_recovery_identical", Json.Bool (after_crash = reference));
        ];
      (* --- row 5: the stats op through the front door --------------- *)
      Format.eprintf "bench cluster: row stats...@.";
      let stats_ok =
        match
          Proc.send_and_collect ~port:(Router.port router)
            [ {|{"id":7,"op":"stats"}|} ]
        with
        | Ok [ line ] -> (
            match Ledger_merge.of_response_line line with
            | Some l -> total l >= cluster_q
            | None -> false)
        | Ok _ | Error _ -> false
      in
      if not stats_ok then
        violation "stats op through the router did not answer a ledger";
      row "stats" 1 0.0 [ ("ledger_parsed", Json.Bool stats_ok) ];
      (* --- teardown -------------------------------------------------- *)
      ignore (Router.drain ~timeout_s:10.0 router);
      ignore (Router.drain ~timeout_s:10.0 hedger);
      Shard_sup.stop sup;
      let result =
        {
          c_shards = shards;
          c_requests = List.length lines;
          c_seq_questions = seq_questions;
          c_rows = List.rev !rows;
          c_violations = List.rev !violations;
        }
      in
      Format.printf
        "bench cluster: %d requests over %d shards; cluster %d questions, \
         sequential %d; hedges %d (wins %d, %d duplicate questions); \
         respawns %d@."
        result.c_requests shards cluster_q seq_questions
        hcounters.Router.hedges_fired hcounters.Router.hedge_wins duplicates
        (Shard_sup.respawns sup);
      if result.c_violations = [] then Proc.rm_rf dir
      else Format.eprintf "bench cluster: shard logs kept in %s@." dir;
      Bench_util.write_opt out (fun () -> to_json result);
      result.c_violations
