(* The forking smokes: real [recdb serve] and [recdb router] children on
   ephemeral loopback ports, checked from outside — at the socket, at
   the /metrics and /traces listeners and by the exit status of their
   SIGTERM drain. *)

let gate = Bench_util.gate

(* Each smoke works in a fresh scratch directory holding its children's
   port files and logs, removed when every gate passes and kept (with
   the logs) when one fails. *)
let in_dir dir smoke =
  Bench_util.with_recdb @@ fun exe ->
  Proc.rm_rf dir;
  Unix.mkdir dir 0o755;
  let report, violations = smoke ~exe ~dir in
  if violations = [] then Proc.rm_rf dir
  else Format.eprintf "child logs kept in %s@." dir;
  (report, violations)

let serve_argv exe args =
  Array.of_list (exe :: "serve" :: "--port" :: "0" :: args)

(* [body] against the child [argv] under Proc.with_server, its port
   file and log named after [name].  A child that never comes up or
   does not drain to exit 0 on SIGTERM is one more violation; the
   body's report and gates are kept even then. *)
let with_child ~dir name argv body =
  let result = ref (Json.Null, []) in
  let up =
    Proc.with_server
      ~log:(Filename.concat dir (name ^ ".log"))
      ~port_file:(Filename.concat dir (name ^ ".port"))
      argv
      (fun ~port ~metrics_port -> result := body ~port ~metrics_port)
  in
  let report, violations = !result in
  ( report,
    violations @ match up with Ok () -> [] | Error e -> [ name ^ ": " ^ e ] )

(* The router publishes its port before its upstream connections are
   up; a request routed before then is a typed oracle_unavailable.
   Probe until one comes back answered. *)
let wait_routed port =
  let probe = {|{"id":0,"op":"classes","type":[2,1],"rank":2}|} in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let answered =
      match Proc.send_and_collect ~timeout_s:5.0 ~port [ probe ] with
      | Ok [ line ] -> (
          match Json.parse line with
          | Ok j -> Json.member "error" j = None
          | Error _ -> false)
      | Ok _ | Error _ -> false
    in
    if answered then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

(* The samples of a Prometheus text exposition, one per non-comment
   line: the metric name, the label text between the braces ("" when
   unlabelled) and the value. *)
let samples body =
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         match String.rindex_opt line ' ' with
         | Some sp when line.[0] <> '#' ->
             let key = String.sub line 0 sp in
             let name, labels =
               match String.index_opt key '{' with
               | Some i ->
                   (String.sub key 0 i, String.sub key (i + 1) (sp - i - 2))
               | None -> (key, "")
             in
             String.sub line (sp + 1) (String.length line - sp - 1)
             |> float_of_string_opt
             |> Option.map (fun v -> (name, labels, v))
         | _ -> None)

let lookup samples name =
  List.find_map
    (fun (n, labels, v) -> if n = name && labels = "" then Some v else None)
    samples

let metric body name = lookup (samples body) name

let check_exposition ~families body =
  let samples = samples body in
  let missing =
    List.concat_map
      (fun family ->
        gate
          (List.exists
             (fun (n, _, _) ->
               n = family || String.starts_with ~prefix:(family ^ "_") n)
             samples)
          "missing metric family %s" family)
      families
  in
  let buckets =
    List.filter_map
      (fun (n, labels, v) ->
        match Scanf.sscanf_opt labels "le=%S%!" Fun.id with
        | Some le when String.ends_with ~suffix:"_bucket" n ->
            Some (String.sub n 0 (String.length n - 7), le, v)
        | _ -> None)
      samples
  in
  (* Within one histogram, counts never decrease down the le ladder; a
     +Inf bucket ends its ladder. *)
  let rec ladder = function
    | (h, le, v) :: ((h', _, v') :: _ as rest) ->
        gate
          (h <> h' || le = "+Inf" || v' >= v)
          "histogram %s: bucket count %.0f < previous %.0f" h v' v
        @ ladder rest
    | _ -> []
  in
  let inf_is_count (h, le, v) =
    if le <> "+Inf" then []
    else
      match lookup samples (h ^ "_count") with
      | Some count ->
          gate (count = v) "histogram %s: +Inf bucket %.0f <> _count %.0f" h
            v count
      | None -> [ Printf.sprintf "histogram %s: no _count" h ]
  in
  missing @ ladder buckets @ List.concat_map inf_is_count buckets

(* [path] from the metrics listener of a child started with
   --metrics-port. *)
let fetch metrics_port path =
  match metrics_port with
  | None -> Error "no metrics listener came up"
  | Some port -> (
      match Expo_server.get ~port ~path () with
      | Ok body -> Ok body
      | Error e -> Error (path ^ " scrape failed: " ^ e))

(* Closed-loop load at a door; under nominal load everything sent is
   answered, with no error, shed or loss. *)
let load door ~requests ~port =
  let r = Loadgen.run ~port ~connections:4 ~requests ~pipeline:4 () in
  ( Net_bench.report_to_json r,
    gate (r.answered = r.sent) "%s: %d answered of %d sent" door r.answered
      r.sent
    @ gate (r.errors = 0) "%s: %d error responses" door r.errors
    @ gate (r.shed = 0) "%s: %d sheds under nominal load" door r.shed
    @ gate (r.lost = 0) "%s: %d requests lost" door r.lost )

let server () =
  in_dir "_server_smoke" @@ fun ~exe ~dir ->
  with_child ~dir "server"
    (serve_argv exe [ "--window"; "256"; "--per-conn-window"; "64" ])
  @@ fun ~port ~metrics_port:_ ->
  let serve, serve_gates = load "serve" ~requests:300 ~port in
  let router, router_gates =
    with_child ~dir "router"
      [|
        exe; "router"; "--port"; "0"; "--shard";
        Printf.sprintf "127.0.0.1:%d" port;
      |]
      (fun ~port ~metrics_port:_ ->
        if wait_routed port then load "router" ~requests:300 ~port
        else (Json.Null, [ "router: never reached its shard" ]))
  in
  ( Json.Obj [ ("serve", serve); ("router", router) ],
    serve_gates @ router_gates )

(* The families the serving stack registers, each of which a scrape
   must show. *)
let serving_families =
  [
    "engine_requests_total";
    "engine_plans_compiled_total";
    "engine_compile_ns_total";
    "engine_latency_seconds";
    "server_frames_dropped_oversized_total";
    "server_frames_parse_error_total";
    "server_scrapes_total";
    "admission_window";
    "admission_admitted_total";
    "pool_oracle_questions";
    "pool_cache_hits";
  ]

let check_traces body =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' body)
  in
  ( List.length lines,
    gate (lines <> []) "/traces: no sampled traces collected"
    @ List.concat_map
        (fun l ->
          match Json.parse l with
          | Ok (Json.Obj kvs)
            when List.mem_assoc "root" kvs && List.mem_assoc "questions" kvs ->
              []
          | Ok _ -> [ "/traces: not a span tree: " ^ l ]
          | Error e -> [ "/traces: unparseable line (" ^ e ^ ")" ])
        lines )

let obs () =
  in_dir "_obs_smoke" @@ fun ~exe ~dir ->
  with_child ~dir "server"
    (serve_argv exe
       [
         "--trace-sample"; "4"; "--metrics-port"; "0"; "--window"; "256";
         "--per-conn-window"; "64";
       ])
  @@ fun ~port ~metrics_port ->
  let report, load_gates = load "serve" ~requests:200 ~port in
  let exposition =
    match fetch metrics_port "/metrics" with
    | Ok body ->
        List.map (( ^ ) "/metrics: ")
          (check_exposition ~families:serving_families body)
    | Error e -> [ e ]
  in
  let traces, trace_gates =
    match fetch metrics_port "/traces" with
    | Ok body -> check_traces body
    | Error e -> (0, [ e ])
  in
  ( Json.Obj [ ("load", report); ("traces", Json.Int traces) ],
    load_gates @ exposition @ trace_gates
    @ gate
        (metrics_port = None
        || Result.is_error (fetch metrics_port "/nonsense"))
        "/nonsense answered 200; expected 404" )

let golden_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

(* The stats-stripped responses to the committed RQL request file,
   served over a socket, sorted by id (the server may answer out of
   order across the pipeline), must equal the committed expected
   file. *)
let rql () =
  in_dir "_rql_smoke" @@ fun ~exe ~dir ->
  let requests = golden_lines "test/golden/rql_requests.jsonl" in
  let expected = golden_lines "test/golden/rql_expected.jsonl" in
  with_child ~dir "server"
    (serve_argv exe
       [ "--no-stats"; "--window"; "64"; "--per-conn-window"; "32" ])
  @@ fun ~port ~metrics_port:_ ->
  match Proc.send_and_collect ~port requests with
  | Error e -> (Json.Null, [ "workload send failed: " ^ e ])
  | Ok responses ->
      let rec diff i expected observed =
        match (expected, observed) with
        | [], [] -> []
        | e :: es, o :: os ->
            gate (String.equal e o) "line %d:\n  expected: %s\n  got:      %s"
              i e o
            @ diff (i + 1) es os
        | e :: es, [] ->
            Printf.sprintf "line %d missing (expected %s)" i e
            :: diff (i + 1) es []
        | [], o :: os ->
            Printf.sprintf "line %d unexpected: %s" i o :: diff (i + 1) [] os
      in
      ( Json.Obj
          [
            ("requests", Json.Int (List.length requests));
            ("responses", Json.Int (List.length responses));
          ],
        diff 1 expected (Proc.sort_by_id responses) )

let number = Option.fold ~none:Json.Null ~some:(fun q -> Json.Float q)

(* Crash recovery through real processes: a cold durable server is
   kill -9'd mid-load after a write-behind snapshot, and a warm server
   restarted on the same store must answer byte-identically with < 5%
   of the cold questions, then drain clean and flush a final snapshot. *)
let store () =
  in_dir "_store_smoke" @@ fun ~exe ~dir ->
  let batch = Workload.mixed_with_rql 120 in
  let lines = List.map (fun r -> Json.to_string (Request.to_json r)) batch in
  let reference = Proc.sort_by_id (Bench_util.sequential batch) in
  let store = Filename.concat dir "store" in
  let args =
    [
      "-j"; "1"; "--no-stats"; "--metrics-port"; "0"; "--store"; store;
      "--snapshot-interval"; "0.4";
    ]
  in
  let served what ~port =
    match Proc.send_and_collect ~port lines with
    | Ok responses ->
        gate
          (Proc.sort_by_id responses = reference)
          "%s responses differ from sequential" what
    | Error e -> [ Printf.sprintf "%s workload send failed: %s" what e ]
  in
  let scrape metrics_port name =
    Option.bind (Result.to_option (fetch metrics_port "/metrics")) (fun body ->
        metric body name)
  in
  (* The cold server is never meant to drain, so it is spawned directly
     rather than under Proc.with_server. *)
  let port_file = Filename.concat dir "cold.port" in
  let pid =
    Proc.spawn
      ~log:(Filename.concat dir "cold.log")
      (serve_argv exe (args @ [ "--port-file"; port_file ]))
  in
  let cold, cold_gates =
    match Proc.wait_port_file port_file with
    | Error e ->
        Proc.kill_and_reap pid Sys.sigkill;
        (None, [ e ])
    | Ok (port, metrics_port) ->
        let served = served "cold" ~port in
        let cold = scrape metrics_port "pool_oracle_questions" in
        let deadline = Unix.gettimeofday () +. 10. in
        let rec snapshot () =
          match scrape metrics_port "store_snapshot_last_entries" with
          | Some n when n > 0. -> true
          | _ when Unix.gettimeofday () > deadline -> false
          | _ ->
              Unix.sleepf 0.1;
              snapshot ()
        in
        let snapshotted = snapshot () in
        let killer =
          Thread.create
            (fun () ->
              Unix.sleepf 0.05;
              Unix.kill pid Sys.sigkill)
            ()
        in
        (* the crash drops the connection mid-stream; whatever arrives
           before EOF is noise — the contract is about the restart *)
        ignore (Proc.send_and_collect ~port lines);
        Thread.join killer;
        ignore (Unix.waitpid [] pid);
        (cold, served @ gate snapshotted "no snapshot within 10s of serving")
  in
  let warm, warm_gates =
    with_child ~dir "server" (serve_argv exe args)
    @@ fun ~port ~metrics_port ->
    let served = served "warm" ~port in
    let warm = scrape metrics_port "pool_oracle_questions" in
    ( number warm,
      served
      @ (match (cold, warm) with
        | Some c, Some w ->
            gate (c = 0. || w < 0.05 *. c)
              "warm questions %.0f not < 5%% of cold %.0f" w c
        | None, _ -> [ "cold questions unavailable; cannot check the ratio" ]
        | _, None -> [ "pool_oracle_questions missing from warm /metrics" ])
      @ gate
          (scrape metrics_port "store_last_flush_age_seconds" <> None)
          "store_last_flush_age_seconds missing from /metrics" )
  in
  ( Json.Obj
      [
        ("requests", Json.Int (List.length lines));
        ("cold_questions", number cold);
        ("warm_questions", warm);
      ],
    cold_gates @ warm_gates
    @ gate
        (Sys.file_exists (Filename.concat store "snapshot.rdb"))
        "no snapshot after clean drain" )

(* Incompleteness-aware answering over the wire, on two --open-world
   children: certain/exact/possible containment and the typed
   certificates; an exact response carries no cert field; a
   closed-world instance answers identically in every mode; an unknown
   top-level field (a "mod" typo) is warned about and counted on
   /metrics; and a second child's --default-mode certain applies to
   modeless requests. *)
let incomplete () =
  in_dir "_incomplete_smoke" @@ fun ~exe ~dir ->
  let sentence instance mode id =
    Printf.sprintf
      {|{"id":%d,"op":"sentence","instance":"%s","sentence":"exists x. exists y. R1(x, y)"%s}|}
      id instance mode
  in
  let lines =
    [
      sentence "rado" {|,"mode":"certain"|} 1;
      sentence "rado" "" 2;
      sentence "rado" {|,"mode":"possible"|} 3;
      sentence "rado" {|,"mode":"approximate","budget":1|} 4;
      sentence "triangles" {|,"mode":"certain"|} 5;
      sentence "triangles" "" 6;
      (* "mod" is a typo'd "mode": warn-and-count, served exact *)
      sentence "triangles" {|,"mod":"possible"|} 7;
      {|{"id":8,"op":"rql","instance":"mod3","text":"mode possible query {(x, y) | R1(x, y)} cutoff 3","cutoff":3}|};
    ]
  in
  let exchange ~port lines =
    Result.map
      (fun raw ->
        List.filter_map
          (fun l -> Result.to_option (Json.parse l))
          (Proc.sort_by_id raw))
      (Proc.send_and_collect ~port lines)
  in
  let cert j =
    match Option.bind (Json.member "cert" j) (Json.member "kind") with
    | Some (Json.String kind) -> Some kind
    | _ -> None
  in
  let value j =
    match Option.bind (Json.member "ok" j) (Json.member "value") with
    | Some (Json.Bool b) -> Some b
    | _ -> None
  in
  let check_modes = function
    | [ r1; r2; r3; r4; r5; r6; r7; r8 ] ->
        (* open world: certain false ⊆ exact true ⊆ possible true *)
        gate (value r1 = Some false)
          "rado certain: expected false (unknown served as lower)"
        @ gate (value r2 = Some true) "rado exact: expected true"
        @ gate (value r3 = Some true)
            "rado possible: expected true (unknown served as upper)"
        @ gate
            (cert r1 = Some "certain_lower_bound")
            "rado certain: expected a certain_lower_bound cert"
        @ gate (cert r2 = None) "rado exact: response must carry no cert field"
        @ gate
            (cert r3 = Some "possible_upper_bound")
            "rado possible: expected a possible_upper_bound cert"
        @ (match
             Option.bind (Json.member "cert" r4) (Json.member "budget_spent")
           with
          | Some (Json.Int n) when cert r4 = Some "approximate" ->
              gate (n <= 1) "rado approximate: budget_spent exceeds budget 1"
          | _ -> [ "rado approximate at budget 1: expected to trip" ])
        (* closed world: every mode = exact bytes, no certs *)
        @ List.concat_map
            (fun (name, r) ->
              gate (value r = value r6) "triangles %s: differs from exact" name
              @ gate (cert r = None)
                  "triangles %s: unexpected cert on a total instance" name)
            [ ("certain", r5); ("exact", r6); ("typo'd-mode", r7) ]
        (* RQL text prefix: mode travels in the query text *)
        @ gate
            (cert r8 = Some "possible_upper_bound")
            "rql 'mode possible' prefix: expected a possible_upper_bound cert"
    | rs -> [ Printf.sprintf "expected 8 responses, got %d" (List.length rs) ]
  in
  let counted body name =
    gate
      (Option.value (metric body name) ~default:0. >= 1.)
      "metrics: %s did not count" name
  in
  let modes, mode_gates =
    with_child ~dir "server"
      (serve_argv exe
         [
           "--open-world"; "--metrics-port"; "0"; "--window"; "64";
           "--per-conn-window"; "16";
         ])
    @@ fun ~port ~metrics_port ->
    let modes =
      match exchange ~port lines with
      | Ok responses -> check_modes responses
      | Error e -> [ "exchange failed: " ^ e ]
    in
    (* scraped after the exchange: the typo'd field must have counted *)
    let counters =
      match fetch metrics_port "/metrics" with
      | Ok body ->
          counted body "server_frames_unknown_field_total"
          @ counted body "engine_mode_certain_total"
      | Error e -> [ e ]
    in
    (Json.Int (List.length lines), modes @ counters)
  in
  let default_mode, default_gates =
    with_child ~dir "server"
      (serve_argv exe [ "--open-world"; "--default-mode"; "certain" ])
    @@ fun ~port ~metrics_port:_ ->
    ( Json.Int 1,
      match exchange ~port [ sentence "rado" "" 1 ] with
      | Ok [ r ] ->
          gate (value r = Some false) "default-mode certain: expected false"
          @ gate
              (cert r = Some "certain_lower_bound")
              "default-mode certain: expected a certain_lower_bound cert"
      | Ok rs ->
          [ Printf.sprintf "default-mode: expected 1 response, got %d"
              (List.length rs) ]
      | Error e -> [ "default-mode exchange failed: " ^ e ] )
  in
  ( Json.Obj
      [ ("mode_requests", modes); ("default_mode_requests", default_mode) ],
    mode_gates @ default_gates )
