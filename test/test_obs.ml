(* lib/obs unit tests: ring wraparound under concurrent writers, the
   histogram's bounded-relative-error contract (QCheck), span-tree
   nesting with exact ledger slices over fake counters, the golden
   exposition format, and the engine-level guarantee that a traced
   request's question slots sum to its response's stats. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)

let test_ring_basic () =
  let r = Obs.Ring.create 4 in
  check Alcotest.int "capacity" 4 (Obs.Ring.capacity r);
  check Alcotest.(list int) "empty" [] (Obs.Ring.snapshot r);
  List.iter (Obs.Ring.push r) [ 1; 2; 3 ];
  check Alcotest.(list int) "oldest first" [ 1; 2; 3 ] (Obs.Ring.snapshot r);
  List.iter (Obs.Ring.push r) [ 4; 5; 6 ];
  check Alcotest.(list int) "overwrites oldest" [ 3; 4; 5; 6 ]
    (Obs.Ring.snapshot r);
  check Alcotest.int "written counts every push" 6 (Obs.Ring.written r);
  Alcotest.check_raises "capacity < 1 rejected"
    (Invalid_argument "Ring.create: capacity < 1") (fun () ->
      ignore (Obs.Ring.create 0))

let test_ring_concurrent () =
  (* 4 domains x 1000 pushes into a 16-slot ring: nothing crashes, the
     write counter is exact, and the surviving values are all genuine
     pushed values (snapshot taken after the dust settles). *)
  let r = Obs.Ring.create 16 in
  let per_domain = 1000 in
  let writers = 4 in
  let domains =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Obs.Ring.push r ((w * per_domain) + i)
            done))
  in
  List.iter Domain.join domains;
  check Alcotest.int "every push counted" (writers * per_domain)
    (Obs.Ring.written r);
  let snap = Obs.Ring.snapshot r in
  check Alcotest.int "snapshot fills the ring" 16 (List.length snap);
  List.iter
    (fun v ->
      if v < 0 || v >= writers * per_domain then
        Alcotest.failf "snapshot leaked a non-pushed value %d" v)
    snap

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)

let exact_rank_statistic values q =
  (* The definition quantile promises to track: the value at rank
     ⌈q·n⌉ of the sorted sample (rank 1 for q = 0). *)
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  List.nth sorted (rank - 1)

let test_histogram_quantile_error =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~name:"quantile within alpha relative error" ~count:200
       Gen.(
         pair
           (list_size (int_range 1 200)
              (map (fun x -> exp x) (float_range (-18.0) 9.0)))
           (float_range 0.0 1.0))
       (fun (values, q) ->
         let h = Obs.Histogram.create () in
         List.iter (Obs.Histogram.observe h) values;
         let est = Obs.Histogram.quantile h q in
         let exact = exact_rank_statistic values q in
         (* the bucket guarantee, with float slack on the boundary *)
         Float.abs (est -. exact)
         <= (Obs.Histogram.alpha h *. 1.0001 *. exact) +. 1e-12))

let test_histogram_edges () =
  let h = Obs.Histogram.create () in
  check Alcotest.bool "empty quantile is nan" true
    (Float.is_nan (Obs.Histogram.quantile h 0.5));
  Obs.Histogram.observe h (-1.0);
  Obs.Histogram.observe h Float.nan;
  check Alcotest.int "negatives and nan clamp, still counted" 2
    (Obs.Histogram.count h);
  check (Alcotest.float 1e-9) "clamped to zero" 0.0
    (Obs.Histogram.quantile h 1.0);
  Obs.Histogram.observe h 1e9;
  check Alcotest.bool "overflow clamps to max_value" true
    (Obs.Histogram.quantile h 1.0 <= 1e4 *. 1.01);
  Obs.Histogram.reset h;
  check Alcotest.int "reset empties" 0 (Obs.Histogram.count h);
  check (Alcotest.float 1e-9) "reset zeroes the sum" 0.0
    (Obs.Histogram.sum_s h)

let test_histogram_count_below () =
  let h = Obs.Histogram.create () in
  for i = 1 to 100 do
    Obs.Histogram.observe h (float_of_int i /. 1000.0) (* 1ms .. 100ms *)
  done;
  let below = Obs.Histogram.count_below h 0.050 in
  (* boundary error: 50 +- alpha-wide bucket *)
  check Alcotest.bool "cumulative count near the boundary" true
    (below >= 48 && below <= 52);
  check Alcotest.int "everything below the top" 100
    (Obs.Histogram.count_below h 1.0);
  check Alcotest.int "nothing below zero-ish" 0
    (Obs.Histogram.count_below h 1e-8)

(* ------------------------------------------------------------------ *)
(* Trace: span nesting and ledger exactness over fake counters         *)

let fake_ledger counters ~questions =
  {
    Obs.Trace.labels = Array.init (Array.length counters) (fun i ->
        Printf.sprintf "c%d" i);
    questions;
    read = (fun () -> Array.copy counters);
  }

let test_trace_nesting_and_ledger () =
  (* Counters c0,c1 are "questions", c2 is an observation.  Bump them
     at known points and check every span's self slice. *)
  let counters = [| 0; 0; 0 |] in
  let t = Obs.Trace.make ~sampling:Obs.Trace.All () in
  Obs.Trace.begin_request t ~req_id:7
    ~attrs:[ ("op", "test") ]
    (fake_ledger counters ~questions:2);
  counters.(0) <- 1;
  (* 1 question in the root before any child *)
  Obs.Trace.enter t "outer";
  counters.(0) <- 3;
  (* 2 questions in outer before inner *)
  Obs.Trace.with_span t "inner" (fun () ->
      counters.(1) <- 5;
      counters.(2) <- 1 (* 5 questions + 1 observation in inner *));
  counters.(1) <- 7;
  (* 2 more questions in outer after inner *)
  Obs.Trace.leave t;
  Obs.Trace.end_request t;
  match Obs.Trace.traces t with
  | [ tr ] ->
      check Alcotest.int "req_id" 7 tr.Obs.Trace.req_id;
      let root = tr.Obs.Trace.root in
      check Alcotest.string "root span" "request" root.Obs.Trace.name;
      check Alcotest.(list string) "one child"
        [ "outer" ]
        (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name)
           root.Obs.Trace.children);
      let outer = List.hd root.Obs.Trace.children in
      check Alcotest.(list string) "nested child"
        [ "inner" ]
        (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name)
           outer.Obs.Trace.children);
      let inner = List.hd outer.Obs.Trace.children in
      check Alcotest.(array int) "root self slice" [| 1; 0; 0 |]
        root.Obs.Trace.self;
      check Alcotest.(array int) "outer self slice" [| 2; 2; 0 |]
        outer.Obs.Trace.self;
      check Alcotest.(array int) "inner self slice" [| 0; 5; 1 |]
        inner.Obs.Trace.self;
      (* the headline guarantee: question slots sum to the root delta *)
      check Alcotest.int "questions sum exactly" (3 + 7)
        (Obs.Trace.trace_questions tr);
      check Alcotest.int "observation slots excluded" 10
        (Obs.Trace.trace_questions tr)
  | trs -> Alcotest.failf "expected 1 trace, got %d" (List.length trs)

let test_trace_sampling () =
  let counters = [| 0 |] in
  let ledger = fake_ledger counters ~questions:1 in
  let run sampling n =
    let t = Obs.Trace.make ~sampling () in
    for i = 1 to n do
      Obs.Trace.begin_request t ~req_id:i ledger;
      Obs.Trace.end_request t
    done;
    List.length (Obs.Trace.traces t)
  in
  check Alcotest.int "Off samples nothing" 0 (run Obs.Trace.Off 10);
  check Alcotest.int "All samples everything" 10 (run Obs.Trace.All 10);
  check Alcotest.int "Every 3 samples 1 in 3" 4 (run (Obs.Trace.Every 3) 12);
  let t = Obs.Trace.make ~sampling:Obs.Trace.Off () in
  check Alcotest.bool "Off is not enabled" false (Obs.Trace.enabled t);
  Obs.Trace.begin_request t ~req_id:1 ledger;
  check Alcotest.bool "Off never activates" false (Obs.Trace.active t)

let test_trace_exception_recovery () =
  (* An exception escaping a with_span must re-raise, mark the span,
     and leave the ctx consistent enough for end_request to close the
     tree. *)
  let counters = [| 0 |] in
  let t = Obs.Trace.make ~sampling:Obs.Trace.All () in
  Obs.Trace.begin_request t ~req_id:1 (fake_ledger counters ~questions:1);
  (try
     Obs.Trace.with_span t "doomed" (fun () ->
         counters.(0) <- 4;
         failwith "boom")
   with Failure _ -> ());
  Obs.Trace.end_request t;
  match Obs.Trace.traces t with
  | [ tr ] ->
      let doomed = List.hd tr.Obs.Trace.root.Obs.Trace.children in
      check Alcotest.string "span survived" "doomed" doomed.Obs.Trace.name;
      check Alcotest.bool "raise recorded" true
        (List.mem_assoc "raised" doomed.Obs.Trace.attrs);
      check Alcotest.int "ledger still exact" 4
        (Obs.Trace.trace_questions tr)
  | trs -> Alcotest.failf "expected 1 trace, got %d" (List.length trs)

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)

let test_expo_golden () =
  (* The golden render: fixed inputs, exact expected text.  The
     histogram is left empty so its bucket lines are all zeros and the
     expectation stays legible. *)
  let h = Obs.Histogram.create () in
  let rendered =
    Obs.Expo.render
      [
        Obs.Expo.Counter
          { name = "server.requests"; help = "requests served"; value = 42 };
        Obs.Expo.Gauge
          { name = "pool size"; help = "worker slots"; value = 3.0 };
        Obs.Expo.Histo { name = "rtt"; help = "round trips"; h };
      ]
  in
  let bucket_lines =
    List.map
      (fun le -> Printf.sprintf "rtt_seconds_bucket{le=\"%g\"} 0" le)
      Obs.Expo.le_bounds
  in
  let expected =
    String.concat "\n"
      ([
         "# HELP server_requests_total requests served";
         "# TYPE server_requests_total counter";
         "server_requests_total 42";
         "# HELP pool_size worker slots";
         "# TYPE pool_size gauge";
         "pool_size 3";
         "# HELP rtt_seconds round trips";
         "# TYPE rtt_seconds histogram";
       ]
      @ bucket_lines
      @ [
          "rtt_seconds_bucket{le=\"+Inf\"} 0";
          "rtt_seconds_sum 0";
          "rtt_seconds_count 0";
          "";
        ])
  in
  check Alcotest.string "golden exposition" expected rendered

let test_expo_histogram_cumulative () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) [ 0.0005; 0.002; 0.002; 0.05; 2.0 ];
  let rendered =
    Obs.Expo.render [ Obs.Expo.Histo { name = "lat"; help = "x"; h } ]
  in
  check
    Alcotest.(list string)
    "buckets monotone, +Inf bucket = _count" []
    (Smoke.check_exposition ~families:[ "lat_seconds" ] rendered);
  check Alcotest.bool "the count is every observation" true
    (List.mem "lat_seconds_count 5" (String.split_on_char '\n' rendered))

(* The scrape check obs-smoke runs: a ladder that decreases, or a +Inf
   bucket that is not the _count, is a violation; labelled gauge rows
   are not buckets, whatever their order. *)
let test_expo_check () =
  let violations body =
    List.length (Smoke.check_exposition ~families:[] body)
  in
  check Alcotest.int "decreasing ladder" 1
    (violations
       "x_seconds_bucket{le=\"0.1\"} 3\nx_seconds_bucket{le=\"+Inf\"} 2\n\
        x_seconds_count 2\n");
  check Alcotest.int "+Inf bucket <> _count" 1
    (violations
       "x_seconds_bucket{le=\"0.1\"} 1\nx_seconds_bucket{le=\"+Inf\"} 2\n\
        x_seconds_count 3\n");
  let shard up i =
    Obs.Expo.Labeled_gauge
      {
        name = "cluster_shard_up";
        help = "x";
        labels = [ ("shard", string_of_int i) ];
        value = up;
      }
  in
  check
    Alcotest.(list string)
    "gauge rows 1 then 0" []
    (Smoke.check_exposition ~families:[ "cluster_shard_up" ]
       (Obs.Expo.render [ shard 1. 0; shard 0. 1 ]))

let test_expo_registry () =
  let calls = ref 0 in
  let src =
    Obs.Expo.register "test_expo_registry" (fun () ->
        incr calls;
        [
          Obs.Expo.Gauge
            { name = "test_registry_probe"; help = "x"; value = 1.0 };
        ])
  in
  let all = Obs.Expo.render_all () in
  Obs.Expo.unregister src;
  let all' = Obs.Expo.render_all () in
  check Alcotest.int "source rendered once" 1 !calls;
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  check Alcotest.bool "registered source appears" true
    (contains all "test_registry_probe");
  check Alcotest.bool "unregistered source disappears" false
    (contains all' "test_registry_probe")

(* ------------------------------------------------------------------ *)
(* Engine-level: traced requests account exactly                       *)

let test_engine_trace_matches_stats () =
  let trace = Obs.Trace.make ~sampling:Obs.Trace.All () in
  let engine = Engine.create ~trace () in
  let requests =
    [
      (Request.make ~id:1
         (Request.Sentence
            {
              instance = "triangles";
              sentence = "exists x. exists y. R1(x, y)";
            }));
      Request.make ~id:2
        (Request.Query
           { instance = "mod2"; query = "{(x,y) | R1(x,y)}"; cutoff = 4 });
      Request.make ~id:3 (Request.Classes { db_type = [| 2 |]; rank = 2 });
      Request.make ~id:4
        (Request.Sentence { instance = "nonesuch"; sentence = "x" });
    ]
  in
  let responses = Engine.handle_all engine requests in
  let traces = Engine.traces engine in
  check Alcotest.int "every request traced" (List.length requests)
    (List.length traces);
  List.iter2
    (fun (r : Request.response) tr ->
      check Alcotest.int
        (Printf.sprintf "request %d: span slices sum to its stats" r.id)
        (r.stats.Request.oracle_calls + r.stats.Request.tb_calls
       + r.stats.Request.equiv_calls)
        (Obs.Trace.trace_questions tr))
    responses traces;
  (* and the JSON round-trips through the process's own parser *)
  List.iter
    (fun tr ->
      match Json.parse (Obs.Trace.to_json_string tr) with
      | Ok (Json.Obj kvs) ->
          check Alcotest.bool "trace JSON has a root" true
            (List.mem_assoc "root" kvs)
      | Ok _ -> Alcotest.fail "trace JSON is not an object"
      | Error e -> Alcotest.failf "trace JSON unparseable: %s" e)
    traces

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "push, wrap, snapshot" `Quick test_ring_basic;
          Alcotest.test_case "concurrent writers" `Quick test_ring_concurrent;
        ] );
      ( "histogram",
        [
          test_histogram_quantile_error;
          Alcotest.test_case "edge values clamp" `Quick test_histogram_edges;
          Alcotest.test_case "cumulative counts" `Quick
            test_histogram_count_below;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and exact ledger slices" `Quick
            test_trace_nesting_and_ledger;
          Alcotest.test_case "sampling modes" `Quick test_trace_sampling;
          Alcotest.test_case "exception recovery" `Quick
            test_trace_exception_recovery;
        ] );
      ( "expo",
        [
          Alcotest.test_case "golden render" `Quick test_expo_golden;
          Alcotest.test_case "histogram buckets cumulative" `Quick
            test_expo_histogram_cumulative;
          Alcotest.test_case "source registry" `Quick test_expo_registry;
          Alcotest.test_case "scrape check" `Quick test_expo_check;
        ] );
      ( "engine",
        [
          Alcotest.test_case "traced requests account exactly" `Quick
            test_engine_trace_matches_stats;
        ] );
    ]
