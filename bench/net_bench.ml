type conn_row = { c_conns : int; c_report : Loadgen.report }

type shed_probe = {
  s_window : int;
  s_offered : int;
  s_report : Loadgen.report;
  s_high_water : int;
  s_window_respected : bool;
  s_pool_questions : int;
  s_seq_questions : int;
  s_questions_ok : bool;
}

type identity = { i_requests : int; i_identical : bool }
type result = { ident : identity; rows : conn_row list; shed : shed_probe }

(* ------------------------------------------------------------------ *)
(* Identity: the same requests through a socket and through
   Engine.handle_all must serialize identically (modulo response
   order, which the wire relaxes per connection — hence sort by id). *)

let identity_check ~requests =
  let batch = Workload.mixed requests in
  let reference = Bench_util.sequential batch in
  let server =
    Server.start ~stats:false ~window:256 ~per_conn_window:64 ()
  in
  let served =
    Proc.send_and_collect ~port:(Server.port server)
      (List.map (fun r -> Json.to_string (Request.to_json r)) batch)
  in
  ignore (Server.drain ~timeout_s:30.0 server);
  {
    i_requests = requests;
    i_identical =
      (match served with
      | Ok served -> Proc.sort_by_id served = Proc.sort_by_id reference
      | Error _ -> false);
  }

(* ------------------------------------------------------------------ *)

let throughput_row ~requests c_conns =
  (* A fresh server per row: every row cold, rows comparable. *)
  let server = Server.start ~window:256 ~per_conn_window:64 () in
  let c_report =
    Loadgen.run ~port:(Server.port server) ~connections:c_conns ~requests
      ~pipeline:4 ()
  in
  ignore (Server.drain ~timeout_s:30.0 server);
  { c_conns; c_report }

let shed_probe_run ~requests =
  let s_window = 8 in
  let s_offered = 2 * s_window in
  let batch = Workload.mixed requests in
  let s_seq_questions =
    let e = Engine.create () in
    ignore (Engine.handle_all e batch);
    Engine.question_count e
  in
  (* per_conn_window must exceed the offered load, or per-connection
     backpressure would pace the client instead of letting the
     admission window shed. *)
  let server =
    Server.start ~window:s_window ~per_conn_window:(4 * s_offered) ()
  in
  let arr = Array.of_list batch in
  let s_report =
    Loadgen.run ~port:(Server.port server) ~connections:1 ~requests
      ~pipeline:s_offered
      ~build:(fun i -> arr.(i mod Array.length arr))
      ()
  in
  let s_pool_questions = Pool.oracle_questions (Server.pool server) in
  let s_high_water = Admission.high_water (Server.admission server) in
  ignore (Server.drain ~timeout_s:30.0 server);
  {
    s_window;
    s_offered;
    s_report;
    s_high_water;
    s_window_respected = s_high_water <= s_window;
    s_pool_questions;
    s_seq_questions;
    s_questions_ok = s_pool_questions <= s_seq_questions;
  }

let violations { ident; rows; shed } =
  let row_violations { c_conns; c_report = r } =
    (if r.Loadgen.errors > 0 then
       [ Printf.sprintf "%d conns: %d error responses" c_conns r.Loadgen.errors ]
     else [])
    @ (if r.Loadgen.lost > 0 then
         [ Printf.sprintf "%d conns: %d requests lost" c_conns r.Loadgen.lost ]
       else [])
    @
    if r.Loadgen.answered <> r.Loadgen.sent then
      [
        Printf.sprintf "%d conns: %d answered of %d sent" c_conns
          r.Loadgen.answered r.Loadgen.sent;
      ]
    else []
  in
  (if ident.i_identical then []
   else [ "socket-served responses differ from serve-batch" ])
  @ List.concat_map row_violations rows
  @ (if shed.s_report.Loadgen.shed = 0 then
       [
         Printf.sprintf "no sheds at %dx offered load (window %d)"
           (shed.s_offered / shed.s_window) shed.s_window;
       ]
     else [])
  @ (if shed.s_window_respected then []
     else
       [
         Printf.sprintf "in-flight high water %d exceeded the window %d"
           shed.s_high_water shed.s_window;
       ])
  @ (if shed.s_questions_ok then []
     else
       [
         Printf.sprintf
           "shed run asked %d questions > sequential full batch %d"
           shed.s_pool_questions shed.s_seq_questions;
       ])
  @ (if shed.s_report.Loadgen.lost = 0 then []
     else [ Printf.sprintf "shed run lost %d requests" shed.s_report.Loadgen.lost ])
  @
  if shed.s_report.Loadgen.errors = 0 then []
  else [ Printf.sprintf "shed run saw %d error responses" shed.s_report.Loadgen.errors ]

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

let to_json { ident; rows; shed } =
  Json.Obj
    [
      ( "identity",
        Json.Obj
          [
            ("requests", Json.Int ident.i_requests);
            ("identical", Json.Bool ident.i_identical);
          ] );
      ( "throughput",
        Json.List
          (List.map
             (fun { c_conns; c_report } ->
               Json.Obj
                 [
                   ("connections", Json.Int c_conns);
                   ("report", report_to_json c_report);
                 ])
             rows) );
      ( "shed",
        Json.Obj
          [
            ("window", Json.Int shed.s_window);
            ("offered_inflight", Json.Int shed.s_offered);
            ("report", report_to_json shed.s_report);
            ("high_water", Json.Int shed.s_high_water);
            ("window_respected", Json.Bool shed.s_window_respected);
            ("pool_questions", Json.Int shed.s_pool_questions);
            ("seq_questions", Json.Int shed.s_seq_questions);
            ("questions_ok", Json.Bool shed.s_questions_ok);
          ] );
    ]

let run ?out ?(requests = 400) () =
  let conns_list = [ 1; 2; 4; 8 ] in
  Format.printf "server benchmark (E27), %d requests per measurement:@."
    requests;
  let ident = identity_check ~requests in
  Format.printf "  identity: socket vs serve-batch on %d requests: %s@."
    ident.i_requests
    (if ident.i_identical then "byte-identical (sorted by id)"
     else "DIFFERENT");
  let rows = List.map (throughput_row ~requests) conns_list in
  List.iter
    (fun { c_report; _ } ->
      Format.printf "  %a@." Loadgen.pp_report c_report)
    rows;
  let shed = shed_probe_run ~requests in
  Format.printf
    "  shed probe: window %d, %d in flight offered: %d served, %d shed \
     (%.0f%%), high water %d, questions %d (sequential full batch %d)@."
    shed.s_window shed.s_offered shed.s_report.Loadgen.ok
    shed.s_report.Loadgen.shed
    (100.
    *. float_of_int shed.s_report.Loadgen.shed
    /. float_of_int (max 1 shed.s_report.Loadgen.answered))
    shed.s_high_water shed.s_pool_questions shed.s_seq_questions;
  let result = { ident; rows; shed } in
  Bench_util.write_opt out (fun () -> to_json result);
  violations result
