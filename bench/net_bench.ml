let gate = Bench_util.gate

let report_to_json (r : Loadgen.report) =
  Json.Obj
    [
      ("connections", Json.Int r.connections);
      ("sent", Json.Int r.sent);
      ("answered", Json.Int r.answered);
      ("ok", Json.Int r.ok);
      ("errors", Json.Int r.errors);
      ("shed", Json.Int r.shed);
      ("lost", Json.Int r.lost);
      ("wall_s", Json.Float r.wall_s);
      ("throughput_rps", Json.Float r.throughput);
      ("p50_s", Json.Float r.p50_s);
      ("p95_s", Json.Float r.p95_s);
      ("p99_s", Json.Float r.p99_s);
    ]

(* Identity: the same requests through a socket and through
   Engine.handle_all must serialize identically (modulo response
   order, which the wire relaxes per connection — hence sort by id). *)
let identity ~requests =
  let batch = Workload.mixed requests in
  let reference = Bench_util.sequential batch in
  let server = Server.start ~stats:false ~window:256 ~per_conn_window:64 () in
  let served =
    Proc.send_and_collect ~port:(Server.port server)
      (List.map (fun r -> Json.to_string (Request.to_json r)) batch)
  in
  ignore (Server.drain ~timeout_s:30.0 server);
  let identical =
    match served with
    | Ok served -> Proc.sort_by_id served = Proc.sort_by_id reference
    | Error _ -> false
  in
  ( Json.Obj
      [ ("requests", Json.Int requests); ("identical", Json.Bool identical) ],
    gate identical "socket-served responses differ from serve-batch" )

let throughput ~requests conns =
  (* A fresh server per row: every row cold, rows comparable. *)
  let server = Server.start ~window:256 ~per_conn_window:64 () in
  let r =
    Loadgen.run ~port:(Server.port server) ~connections:conns ~requests
      ~pipeline:4 ()
  in
  ignore (Server.drain ~timeout_s:30.0 server);
  ( Json.Obj
      [ ("connections", Json.Int conns); ("report", report_to_json r) ],
    gate (r.errors = 0) "%d conns: %d error responses" conns r.errors
    @ gate (r.lost = 0) "%d conns: %d requests lost" conns r.lost
    @ gate (r.answered = r.sent) "%d conns: %d answered of %d sent" conns
        r.answered r.sent )

(* Open offered load at 2x the admission window: typed sheds, never
   more in flight than the window, nothing lost, and no more questions
   than a sequential run of the full batch (shed requests ask none). *)
let shed ~requests =
  let window = 8 in
  let offered = 2 * window in
  let batch = Workload.mixed requests in
  let seq_questions =
    let e = Engine.create () in
    ignore (Engine.handle_all e batch);
    Engine.question_count e
  in
  (* per_conn_window must exceed the offered load, or per-connection
     backpressure would pace the client instead of letting the
     admission window shed. *)
  let server = Server.start ~window ~per_conn_window:(4 * offered) () in
  let arr = Array.of_list batch in
  let r =
    Loadgen.run ~port:(Server.port server) ~connections:1 ~requests
      ~pipeline:offered
      ~build:(fun i -> arr.(i mod Array.length arr))
      ()
  in
  let pool_questions = Pool.oracle_questions (Server.pool server) in
  let high_water = Admission.high_water (Server.admission server) in
  ignore (Server.drain ~timeout_s:30.0 server);
  ( Json.Obj
      [
        ("window", Json.Int window);
        ("offered_inflight", Json.Int offered);
        ("report", report_to_json r);
        ("high_water", Json.Int high_water);
        ("window_respected", Json.Bool (high_water <= window));
        ("pool_questions", Json.Int pool_questions);
        ("seq_questions", Json.Int seq_questions);
        ("questions_ok", Json.Bool (pool_questions <= seq_questions));
      ],
    List.concat
      [
        gate (r.shed > 0) "no sheds at %dx offered load (window %d)"
          (offered / window) window;
        gate (high_water <= window)
          "in-flight high water %d exceeded the window %d" high_water window;
        gate (pool_questions <= seq_questions)
          "shed run asked %d questions > sequential full batch %d"
          pool_questions seq_questions;
        gate (r.lost = 0) "shed run lost %d requests" r.lost;
        gate (r.errors = 0) "shed run saw %d error responses" r.errors;
      ] )

let run ?(requests = 400) () =
  let identity, v_identity = identity ~requests in
  let rows, v_rows =
    List.split (List.map (throughput ~requests) [ 1; 2; 4; 8 ])
  in
  let shed, v_shed = shed ~requests in
  ( Json.Obj
      [
        ("identity", identity);
        ("throughput", Json.List rows);
        ("shed", shed);
      ],
    v_identity @ List.concat v_rows @ v_shed )
