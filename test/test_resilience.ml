(* The resilience layer: budgets, deadlines, crash containment.  The
   central claims under test:

   - a configured budget/deadline turns an expensive evaluation into a
     typed error, and the question ledger never exceeds the quota (the
     aborting check fires before the over-budget question is asked);
   - Engine.handle is total — bad payloads and arbitrary exceptions
     come back as typed [Error] results;
   - an evaluation aborted mid-flight stores nothing, so under seeded
     budgets every response that did not trip, and an unlimited replay
     on the same shared memo, are byte-identical to a clean sequential
     run (the seeded chaos test);
   - a worker crash fails only its own request; the rest of the batch
     completes, identically. *)

let check = Alcotest.check

let heavy depth =
  Request.make ~id:1 (Request.Tree { instance = "paths3"; depth })

let questions (s : Request.stats) =
  s.Request.oracle_calls + s.Request.tb_calls + s.Request.equiv_calls

let fingerprint (r : Request.response) =
  Json.to_string (Request.response_to_json ~stats:false r)

(* ------------------------------------------------------------------ *)
(* Budgets and deadlines                                               *)

let test_budget_trips () =
  let limit = 100 in
  let config =
    {
      Engine.default_config with
      limits = { Resilience.max_oracle_calls = Some limit; deadline_s = None };
    }
  in
  let r = Engine.handle (Engine.create ~config ()) (heavy 5) in
  (match r.Request.result with
  | Error (Request.Budget_exceeded { limit = l }) ->
      check Alcotest.int "error reports the configured limit" limit l
  | Error e -> Alcotest.failf "unexpected %s" (Request.error_to_string e)
  | Ok _ -> Alcotest.fail "tree(paths3,5) finished under 100 questions?");
  let spent = questions r.Request.stats in
  check Alcotest.bool "ledger is positive" true (spent > 0);
  (* Defs. 2.4/3.9: the abort happens before the over-budget question
     is asked, so the cost-so-far never exceeds the quota. *)
  check Alcotest.bool "ledger never exceeds the quota" true (spent <= limit)

let test_budget_generous_is_invisible () =
  (* A budget nothing trips under must not change the answer. *)
  let config =
    {
      Engine.default_config with
      limits =
        { Resilience.max_oracle_calls = Some 1_000_000; deadline_s = None };
    }
  in
  let plain = Engine.handle (Engine.create ()) (heavy 3) in
  let guarded = Engine.handle (Engine.create ~config ()) (heavy 3) in
  check Alcotest.string "same result through the guard" (fingerprint plain)
    (fingerprint guarded)

let test_deadline_trips () =
  let deadline_s = 0.01 in
  let config =
    {
      Engine.default_config with
      limits = { Resilience.max_oracle_calls = None; deadline_s = Some deadline_s };
    }
  in
  let t0 = Unix.gettimeofday () in
  let r = Engine.handle (Engine.create ~config ()) (heavy 6) in
  let wall = Unix.gettimeofday () -. t0 in
  (match r.Request.result with
  | Error (Request.Deadline_exceeded { deadline_s = d }) ->
      check (Alcotest.float 1e-9) "error reports the configured deadline"
        deadline_s d
  | Error e -> Alcotest.failf "unexpected %s" (Request.error_to_string e)
  | Ok _ -> Alcotest.fail "tree(paths3,6) finished under 10ms?");
  (* generous slack: the clock is probed every few questions and CI
     boxes stall, but ~100ms of real work must not run to completion *)
  check Alcotest.bool "aborted near the deadline" true (wall < 5.0)

let test_parse_time_validation () =
  let expect_bad line =
    match Request.of_line line with
    | Error (Request.Bad_request _) -> ()
    | Error e ->
        Alcotest.failf "%s: expected bad_request, got %s" line
          (Request.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: accepted" line
  in
  expect_bad
    {|{"id":1,"op":"program","instance":"mod2","program":"Y1 <- Rel1","fuel":0}|};
  expect_bad
    {|{"id":1,"op":"program","instance":"mod2","program":"Y1 <- Rel1","fuel":-5}|};
  expect_bad {|{"id":1,"op":"tree","instance":"mod2","depth":99}|};
  expect_bad
    {|{"id":1,"op":"query","instance":"mod2","query":"{(x) | R1(x,x)}","cutoff":100000}|};
  expect_bad {|{"id":1,"op":"classes","type":[2,1],"rank":40}|};
  (match Request.of_line "this is not json" with
  | Error (Request.Parse_error _) -> ()
  | Error e ->
      Alcotest.failf "expected parse_error, got %s"
        (Request.error_to_string e)
  | Ok _ -> Alcotest.fail "garbage accepted");
  (* in-range values still decode *)
  match
    Request.of_line {|{"id":1,"op":"tree","instance":"mod2","depth":3}|}
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid request rejected: %s" (Request.error_to_string e)

let test_handle_is_total () =
  (* Bad scalar fields on a hand-built request (bypassing of_json's
     validation) still come back as a typed error, not an exception. *)
  let e = Engine.create () in
  let r =
    Engine.handle e
      (Request.make ~id:7
         (Request.Program
            { instance = "mod2"; program = "Y1 <- Rel1"; fuel = 0; cutoff = 4 }))
  in
  match r.Request.result with
  | Error (Request.Bad_request _) -> ()
  | Error e' -> Alcotest.failf "unexpected %s" (Request.error_to_string e')
  | Ok _ -> Alcotest.fail "zero fuel accepted"

(* ------------------------------------------------------------------ *)
(* Chaos: seeded budgets and a deadline                                *)

let chaos_batch = Workload.mixed 40

let chaos_reference =
  lazy (List.map fingerprint (Engine.handle_all (Engine.create ()) chaos_batch))

let test_chaos_seeds () =
  (* 20 seeds, each a question quota drawn from the seed, then one
     seeded deadline: a 3-domain pool on one shared memo serves the
     batch under it.  Which requests trip depends on the interleaving;
     that every other response, and an unlimited replay on the same
     memo, equals the clean sequential run does not — an aborted
     evaluation never stores a result or a member list. *)
  let reference = Lazy.force chaos_reference in
  let run seed limits =
    (* No lost wakeups: a storm of tiny follow-up batches — one signal
       each — must all complete (a lost signal hangs right here), and
       shutdown must then reap every worker cleanly. *)
    let storm pool =
      for k = 1 to 5 do
        let tiny = [ List.nth chaos_batch (k mod List.length chaos_batch) ] in
        check Alcotest.int
          (Printf.sprintf "seed %d: tiny batch %d served" seed k)
          1
          (List.length (Pool.run_batch pool tiny))
      done;
      match Pool.shutdown_result ~timeout_s:30.0 pool with
      | `Clean -> ()
      | `Timed_out n ->
          Alcotest.failf "seed %d: %d workers stuck at shutdown (lost wakeup?)"
            seed n
    in
    let a =
      Engine_bench.abort_check ~on_pool:storm ~reference limits chaos_batch
    in
    let holds what ok =
      check Alcotest.bool (Printf.sprintf "seed %d: %s" seed what) true ok
    in
    holds "untripped responses identical to the clean run" a.served_identical;
    holds "no response over the quota" a.within_quota;
    holds "unlimited replay identical to the clean run" a.replay_identical;
    a.Engine_bench.aborted
  in
  let aborted =
    List.fold_left ( + ) 0
      (List.map
         (fun seed ->
           run seed
             {
               Resilience.max_oracle_calls =
                 Some (Engine_bench.seeded_quota seed);
               deadline_s = None;
             })
         (Prelude.Ints.range 1 21))
  in
  check Alcotest.bool "the seeded budgets tripped" true (aborted > 0);
  (* A deadline trips where the clock says, so its seed fixes only the
     bound, and only the invariant is asserted. *)
  let deadline_s =
    0.0001 +. Random.State.float (Random.State.make [| 0 |]) 0.0005
  in
  ignore
    (run 0 { Resilience.max_oracle_calls = None; deadline_s = Some deadline_s })

(* ------------------------------------------------------------------ *)
(* Crash containment                                                   *)

(* Killing the serving worker on every [every]th id of [batch] fails
   exactly those requests with a typed worker_crash, one death each,
   and changes no other byte.  The mixed-100 rows are the sparse and
   the respawn-churn (every other request) configurations. *)
let test_crash_containment () =
  List.iter
    (fun (domains, every, batch, reference) ->
      let name = Printf.sprintf "%d domains, every %d" domains every in
      let pool =
        Pool.create ~domains ~crash_on:(fun r -> r.Request.id mod every = 0) ()
      in
      let responses = Pool.run_batch pool batch in
      let deaths = Pool.worker_deaths pool in
      Pool.shutdown pool;
      check Alcotest.int (name ^ ": one response per request")
        (List.length batch) (List.length responses);
      let crashed = ref 0 in
      List.iteri
        (fun i (r : Request.response) ->
          check Alcotest.int (name ^ ": in order") (i + 1) r.Request.id;
          if r.Request.id mod every = 0 then begin
            incr crashed;
            match r.Request.result with
            | Error (Request.Worker_crash _) -> ()
            | _ ->
                Alcotest.failf "%s: request %d should have died with the worker"
                  name r.Request.id
          end
          else
            check Alcotest.string
              (Printf.sprintf "%s: request %d survived its neighbours' crashes"
                 name (i + 1))
              (List.nth reference i) (fingerprint r))
        responses;
      check Alcotest.bool (name ^ ": crashes actually happened") true
        (!crashed > 0);
      check Alcotest.int (name ^ ": one worker death per crashed request")
        !crashed deaths)
    (let mixed = Workload.mixed 100 in
     let mixed_reference =
       List.map fingerprint (Engine.handle_all (Engine.create ()) mixed)
     in
     [
       (3, 7, chaos_batch, Lazy.force chaos_reference);
       (3, 20, mixed, mixed_reference);
       (2, 2, mixed, mixed_reference);
     ])

let test_last_worker_death_drains_queue () =
  (* Respawns disabled: once the last worker dies the queue is stranded
     unless the dying worker fails it — every request must still get a
     response, and so must a batch submitted after every worker is
     gone.  One domain dies on request 7; two domains die on every
     request from 7 on, so both may die at once.  The batches run under
     a 10 s deadline, so a stranded batch fails instead of hanging. *)
  let batch = Workload.mixed 21 in
  let drains ~domains ~crash_on =
    let pool = Pool.create ~domains ~max_respawns:0 ~crash_on () in
    let result = Atomic.make None in
    let client =
      Domain.spawn (fun () ->
          let responses = Pool.run_batch pool batch in
          let late = Pool.run_batch pool [ List.hd batch ] in
          Atomic.set result (Some (responses, late)))
    in
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec await () =
      match Atomic.get result with
      | Some answers ->
          Domain.join client;
          answers
      | None when Unix.gettimeofday () > deadline ->
          Alcotest.failf "%d domains: batch stranded after a worker death"
            domains
      | None ->
          Unix.sleepf 0.005;
          await ()
    in
    let responses, late = await () in
    Pool.shutdown pool;
    check Alcotest.int "every request answered" (List.length batch)
      (List.length responses);
    List.iter
      (fun (r : Request.response) ->
        if r.Request.id >= 7 then
          match r.Request.result with
          | Error (Request.Worker_crash _) -> ()
          | _ ->
              Alcotest.failf
                "%d domains: request %d should carry worker_crash (no worker \
                 left)"
                domains r.Request.id)
      responses;
    match late with
    | [ { Request.result = Error (Request.Worker_crash _); _ } ] -> ()
    | _ -> Alcotest.failf "%d domains: a batch after the last death" domains
  in
  drains ~domains:1 ~crash_on:(fun r -> r.Request.id = 7);
  drains ~domains:2 ~crash_on:(fun r -> r.Request.id >= 7)

let test_shutdown_timeout () =
  (* Park a worker on a ~100ms request, then shut down with a 5ms
     budget: shutdown must give up and report the stuck worker rather
     than hang. *)
  let pool = Pool.create ~domains:1 () in
  let batch_domain =
    Domain.spawn (fun () -> Pool.run_batch pool [ heavy 6 ])
  in
  Unix.sleepf 0.02 (* let the worker pick the job up *);
  (match Pool.shutdown_result ~timeout_s:0.005 pool with
  | `Timed_out n -> check Alcotest.int "one worker still busy" 1 n
  | `Clean -> () (* possible on a very fast box; nothing to assert *));
  let responses = Domain.join batch_domain in
  check Alcotest.int "the batch still completes" 1 (List.length responses);
  match Pool.shutdown_result ~timeout_s:5.0 pool with
  | `Clean -> ()
  | `Timed_out n -> Alcotest.failf "%d workers stuck after their job ended" n

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "budget trips with an exact ledger" `Quick
            test_budget_trips;
          Alcotest.test_case "a generous budget changes nothing" `Quick
            test_budget_generous_is_invisible;
        ] );
      ( "deadline",
        [ Alcotest.test_case "deadline trips promptly" `Quick test_deadline_trips ] );
      ( "validation",
        [
          Alcotest.test_case "out-of-range fields rejected at parse time"
            `Quick test_parse_time_validation;
          Alcotest.test_case "handle is total" `Quick test_handle_is_total;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "seeded aborts are never stored" `Slow
            test_chaos_seeds;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crashes fail only their own request" `Quick
            test_crash_containment;
          Alcotest.test_case "last worker death drains the queue" `Quick
            test_last_worker_death_drains_queue;
          Alcotest.test_case "shutdown timeout reports a stuck worker"
            `Quick test_shutdown_timeout;
        ] );
    ]
