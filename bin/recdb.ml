(* recdb — command-line interface to the recursive-database library.

   Subcommands:
     recdb instances                         list the built-in hs instances
     recdb tree -i rado -d 3                 print a characteristic tree
     recdb classes -t 2,1 -r 2               count ≅ₗ classes (the 68!)
     recdb query -i triangles '{(x,y) | ...}'   evaluate an FO query
     recdb sentence -i rado 'forall x. ...'  evaluate an FO sentence
     recdb normalize -t 2 -r 2 '{(x,y)|...}' L⁻ normal form (Thm 2.1)
     recdb serve-batch FILE                  JSON-lines requests -> results
     recdb crash-test                        kill workers mid-batch, verify containment
     recdb bench NAME                        one benchmark (engine, resilience,
                                             parallel, server, obs, rql, compile,
                                             store, cluster, incomplete); exit 1
                                             on any violated gate

   Exit codes: 0 success, 1 runtime error (parse failure, unknown
   instance, ...), 124 command-line misuse (unknown subcommand or
   flag — Cmdliner's convention). *)

open Cmdliner

(* The instance registry lives in the engine library; build each
   instance at most once, lazily, and share it across uses. *)
let instances_table =
  lazy
    (List.map
       (fun name ->
         ( name,
           match Engine.build_instance name with
           | Some inst -> inst
           | None -> assert false ))
       (Engine.instance_names ()))

let lookup_instance name =
  match List.assoc_opt name (Lazy.force instances_table) with
  | Some inst -> Ok inst
  | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown instance %S; try `recdb instances'" name))

let instance_arg =
  let parse s = lookup_instance s in
  let print ppf inst = Format.fprintf ppf "%s" (Hs.Hsdb.name inst) in
  Arg.conv (parse, print)

let db_type_arg =
  let parse s =
    try
      Ok
        (String.split_on_char ',' s
        |> List.map String.trim
        |> List.map int_of_string
        |> Array.of_list)
    with _ -> Error (`Msg "expected a comma-separated arity list, e.g. 2,1")
  in
  let print ppf a =
    Format.fprintf ppf "%s"
      (String.concat "," (List.map string_of_int (Array.to_list a)))
  in
  Arg.conv (parse, print)

(* HOST:PORT with a port in 1..65535 (--shard, --endpoints and the
   lines of --shards-file). *)
let parse_host_port s =
  let bad () =
    Error (`Msg (Printf.sprintf "%S: expected HOST:PORT, PORT in 1..65535" s))
  in
  match String.rindex_opt s ':' with
  | None -> bad ()
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when host <> "" && p >= 1 && p <= 65535 -> Ok (host, p)
      | _ -> bad ())

let host_port_arg =
  Arg.conv (parse_host_port, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

(* ------------------------------------------------------------------ *)

let cmd_instances =
  let doc = "List the built-in highly symmetric instances." in
  let run () =
    List.iter
      (fun (name, inst) ->
        Format.printf "%-10s type (%s)  |T^1| = %d, |T^2| = %d@." name
          (String.concat ","
             (List.map string_of_int (Array.to_list (Hs.Hsdb.db_type inst))))
          (Hs.Hsdb.class_count inst 1)
          (Hs.Hsdb.class_count inst 2))
      (Lazy.force instances_table)
  in
  Cmd.v (Cmd.info "instances" ~doc) Term.(const run $ const ())

let cmd_tree =
  let doc = "Print the first levels of an instance's characteristic tree." in
  let inst =
    Arg.(
      required
      & opt (some instance_arg) None
      & info [ "i"; "instance" ] ~docv:"NAME" ~doc:"Instance name.")
  in
  let depth =
    Arg.(value & opt int 3 & info [ "d"; "depth" ] ~docv:"N" ~doc:"Tree depth.")
  in
  let run inst depth = Format.printf "%a@." (Hs.Hsdb.pp_tree ~max_rank:depth) inst in
  Cmd.v (Cmd.info "tree" ~doc) Term.(const run $ inst $ depth)

let cmd_classes =
  let doc = "Count (and optionally list) the classes of ≅ₗ for a type/rank." in
  let db_type =
    Arg.(
      required
      & opt (some db_type_arg) None
      & info [ "t"; "type" ] ~docv:"ARITIES" ~doc:"Database type, e.g. 2,1.")
  in
  let rank =
    Arg.(value & opt int 2 & info [ "r"; "rank" ] ~docv:"N" ~doc:"Tuple rank.")
  in
  let formulas =
    Arg.(
      value & flag
      & info [ "formulas" ] ~doc:"Also print each class's describing formula.")
  in
  let run db_type rank formulas =
    Format.printf "|C^%d| for type (%s): %d@." rank
      (String.concat "," (List.map string_of_int (Array.to_list db_type)))
      (Localiso.Diagram.count ~db_type ~rank);
    if formulas then begin
      let vars = Core.Completeness.Diagram_vars.default ~rank in
      List.iteri
        (fun i d ->
          Format.printf "  C_%d: %s@." (i + 1)
            (Rlogic.Ast.formula_to_string
               (Core.Completeness.formula_of_diagram vars d)))
        (Localiso.Diagram.enumerate ~db_type ~rank ())
    end
  in
  Cmd.v (Cmd.info "classes" ~doc) Term.(const run $ db_type $ rank $ formulas)

let cmd_query =
  let doc =
    "Evaluate a first-order query on an hs instance (quantifiers range over \
     the characteristic tree)."
  in
  let inst =
    Arg.(
      required
      & opt (some instance_arg) None
      & info [ "i"; "instance" ] ~docv:"NAME" ~doc:"Instance name.")
  in
  let cutoff =
    Arg.(
      value & opt int 8
      & info [ "c"; "cutoff" ] ~docv:"N"
          ~doc:"Window bound for listing concrete members.")
  in
  let query =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:"e.g. '{(x,y) | R1(x,y) && x != y}'.")
  in
  let run inst cutoff query =
    match Rlogic.Parser.query query with
    | exception Rlogic.Parser.Error msg ->
        Format.eprintf "parse error: %s@." msg;
        exit 1
    | Rlogic.Ast.Undefined -> Format.printf "undefined@."
    | Rlogic.Ast.Query { vars; _ } as q ->
        let rank = List.length vars in
        let reps = Hs.Fo_eval.eval_reps inst q ~rank in
        Format.printf "class representatives: %a@." Prelude.Tupleset.pp reps;
        Format.printf "members below %d: %a@." cutoff Prelude.Tupleset.pp
          (Hs.Fo_eval.eval_upto inst q ~cutoff)
  in
  Cmd.v (Cmd.info "query" ~doc) Term.(const run $ inst $ cutoff $ query)

let cmd_sentence =
  let doc = "Evaluate a first-order sentence on an hs instance." in
  let inst =
    Arg.(
      required
      & opt (some instance_arg) None
      & info [ "i"; "instance" ] ~docv:"NAME" ~doc:"Instance name.")
  in
  let sentence =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SENTENCE" ~doc:"e.g. 'forall x. exists y. R1(x,y)'.")
  in
  let run inst sentence =
    match Rlogic.Parser.formula sentence with
    | exception Rlogic.Parser.Error msg ->
        Format.eprintf "parse error: %s@." msg;
        exit 1
    | f ->
        if Rlogic.Ast.free_vars f <> [] then begin
          Format.eprintf "not a sentence: free variables %s@."
            (String.concat ", " (Rlogic.Ast.free_vars f));
          exit 1
        end
        else Format.printf "%b@." (Hs.Fo_eval.eval_sentence inst f)
  in
  Cmd.v (Cmd.info "sentence" ~doc) Term.(const run $ inst $ sentence)

let cmd_qlhs =
  let doc =
    "Run a QL_hs program (Theorem 3.1's language) on an hs instance and \
     print Y1."
  in
  let inst =
    Arg.(
      required
      & opt (some instance_arg) None
      & info [ "i"; "instance" ] ~docv:"NAME" ~doc:"Instance name.")
  in
  let fuel =
    Arg.(
      value & opt int 10_000
      & info [ "fuel" ] ~docv:"N" ~doc:"Step budget (programs may diverge).")
  in
  let cutoff =
    Arg.(
      value & opt int 8
      & info [ "c"; "cutoff" ] ~docv:"N"
          ~doc:"Window bound for listing concrete members.")
  in
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROGRAM"
          ~doc:
            "e.g. 'Y1 <- ~(Rel1 & E); Y2 <- Y1!'.  Operators: & = ∩, ~ = \
             complement, ^ = up, ! = down, %% = swap.")
  in
  let run inst fuel cutoff source =
    match Ql.Ql_parser.program source with
    | exception Ql.Ql_parser.Error msg ->
        Format.eprintf "parse error: %s@." msg;
        exit 1
    | p -> begin
        Format.printf "program:@.  %s@." (Ql.Ql_ast.program_to_string p);
        match Ql.Ql_hs.run inst ~fuel p with
        | Ql.Ql_interp.Halted store ->
            let v = store.(0) in
            Format.printf "Y1 (rank %d) representatives: %a@." v.Ql.Ql_hs.rank
              Prelude.Tupleset.pp v.Ql.Ql_hs.reps;
            Format.printf "members below %d: %a@." cutoff Prelude.Tupleset.pp
              (Ql.Ql_hs.denotation inst v ~cutoff)
        | Ql.Ql_interp.Timeout ->
            Format.printf "did not halt within %d steps (undefined?)@." fuel
        | Ql.Ql_interp.Ill_formed msg -> Format.printf "ill-formed: %s@." msg
      end
  in
  Cmd.v (Cmd.info "qlhs" ~doc) Term.(const run $ inst $ fuel $ cutoff $ source)

let cmd_normalize =
  let doc = "Put an L⁻ query in class normal form (Theorem 2.1)." in
  let db_type =
    Arg.(
      required
      & opt (some db_type_arg) None
      & info [ "t"; "type" ] ~docv:"ARITIES" ~doc:"Database type, e.g. 2.")
  in
  let query =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:"A quantifier-free query.")
  in
  let run db_type query =
    match Rlogic.Parser.query query with
    | exception Rlogic.Parser.Error msg ->
        Format.eprintf "parse error: %s@." msg;
        exit 1
    | q ->
        let rank =
          match q with
          | Rlogic.Ast.Undefined -> 0
          | Rlogic.Ast.Query { vars; _ } -> List.length vars
        in
        let reg = Localiso.Classes.make ~db_type ~rank () in
        let lgq = Core.Completeness.lgq_of_query reg q in
        Format.printf "selected classes: %s@."
          (String.concat ", "
             (List.map string_of_int (Localiso.Lgq.selected_indices lgq)));
        Format.printf "normal form:@.%s@."
          (Rlogic.Ast.query_to_string (Core.Completeness.normalize reg q))
  in
  Cmd.v (Cmd.info "normalize" ~doc) Term.(const run $ db_type $ query)

(* ------------------------------------------------------------------ *)
(* The serving engine                                                  *)

let open_requests path =
  if path = "-" then stdin
  else
    try open_in path
    with Sys_error msg ->
      Format.eprintf "cannot read %s: %s@." path msg;
      exit 1

(* The file/socket-shared latency summary: the engine's own histogram
   is an Obs.Histogram sketch — the very same type the load generator
   aggregates into — so serve-batch and loadgen print quantiles from
   identical bucket math (1% relative error, not sorted-array
   percentiles). *)
let latency_summary ~served ~errors =
  let h = Metrics.histogram "engine.latency" in
  if Obs.Histogram.count h = 0 then
    Format.eprintf "served %d request%s (%d error%s)@." served
      (if served = 1 then "" else "s")
      errors
      (if errors = 1 then "" else "s")
  else
    Format.eprintf
      "served %d request%s (%d error%s); latency p50 %.3gms p95 %.3gms p99 \
       %.3gms@."
      served
      (if served = 1 then "" else "s")
      errors
      (if errors = 1 then "" else "s")
      (1e3 *. Obs.Histogram.quantile h 0.50)
      (1e3 *. Obs.Histogram.quantile h 0.95)
      (1e3 *. Obs.Histogram.quantile h 0.99)

(* Tracing flags shared by serve-batch and serve: --trace samples every
   request, --trace-sample N one in N; absent, tracing is off and the
   hot path is the single-branch no-op. *)
let trace_flag =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Trace every request: span trees (queue wait, dispatch, parse, \
           retries) with exact Def. 3.9 ledger slices, dumped as JSON lines \
           to stderr at exit (serve-batch) or served at /traces (serve, \
           with --metrics-port).")

let trace_sample_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:"Trace one request in N (overrides --trace; 1 means all).")

let sampling_of_flags ~trace ~trace_sample =
  match (trace_sample, trace) with
  | Some n, _ when n < 1 ->
      Format.eprintf "trace-sample must be >= 1@.";
      exit 1
  | Some 1, _ -> Some Obs.Trace.All
  | Some n, _ -> Some (Obs.Trace.Every n)
  | None, true -> Some Obs.Trace.All
  | None, false -> None

(* Completeness flags shared by serve-batch, serve and rql: which
   stored relations are merely partial views (open), and which answer
   mode a request gets when it doesn't say. *)
let default_mode_flag =
  Arg.(
    value
    & opt
        (enum
           [
             ("exact", Request.M_exact);
             ("certain", Request.M_certain);
             ("possible", Request.M_possible);
             ( "approximate",
               Request.M_approximate { budget = Request.default_budget } );
           ])
        Request.M_exact
    & info [ "default-mode" ] ~docv:"MODE"
        ~doc:
          "Answer mode for requests that don't carry one: exact, certain, \
           possible or approximate.  A mode on the wire (or an RQL 'mode' \
           prefix) always wins.")

let open_world_flag =
  Arg.(
    value & flag
    & info [ "open-world" ]
        ~doc:
          "Apply the built-in demo completeness declarations (rado, mod3, \
           unary012 and colored get open relations); an explicit --decl \
           for the same instance overrides its demo entry.")

let decl_flags =
  Arg.(
    value
    & opt_all string []
    & info [ "decl" ] ~docv:"INST=SPEC"
        ~doc:
          "Declare an instance's per-relation completeness, e.g. \
           --decl 'mod3=R1 open known if R1(x1, x2)'.  Repeatable; \
           relations left undeclared are total.")

let decls_of_flags ~open_world ~decls =
  let parse_one spec =
    match String.index_opt spec '=' with
    | None ->
        Format.eprintf "--decl %S: expected INST=SPEC@." spec;
        exit 1
    | Some i -> (
        let inst = String.trim (String.sub spec 0 i) in
        let body = String.sub spec (i + 1) (String.length spec - i - 1) in
        match Incomplete.Decl.parse body with
        | Ok d -> (inst, d)
        | Error msg ->
            Format.eprintf "--decl %s: %s@." inst msg;
            exit 1)
  in
  let explicit = List.map parse_one decls in
  let demo =
    if open_world then
      List.filter_map
        (fun (name, spec) ->
          if List.mem_assoc name explicit then None
          else
            match Incomplete.Decl.parse spec with
            | Ok d -> Some (name, d)
            | Error msg ->
                Format.eprintf "demo declaration %s: %s@." name msg;
                exit 1)
        Incomplete.Decl.demo
    else []
  in
  explicit @ demo

(* Resilience flags shared by serve-batch: None everywhere means "no
   guard installed" (the pre-resilience hot path, byte for byte). *)
let engine_config_of_flags ~deadline_ms ~max_oracle_calls ~inject
    ?(decls = []) ?(default_mode = Request.M_exact) () =
  match (deadline_ms, max_oracle_calls, inject, decls, default_mode) with
  | None, None, None, [], Request.M_exact -> None
  | _ ->
      Some
        {
          Engine.default_config with
          limits =
            {
              Resilience.max_oracle_calls;
              deadline_s = Option.map (fun ms -> ms /. 1000.0) deadline_ms;
            };
          faults =
            Option.map (fun seed -> Faulty_oracle.config ~seed ()) inject;
          decls;
          default_mode;
        }

let cmd_serve_batch =
  let doc =
    "Serve a batch of requests: JSON-lines in, JSON-lines (result + stats) \
     out.  Each input line is an object like {\"id\":1,\"op\":\"sentence\",\
     \"instance\":\"triangles\",\"sentence\":\"exists x. exists y. R1(x, \
     y)\"}; see also ops query, classes, tree, program."
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Request file, or - for stdin.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains; 1 serves sequentially in-process.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Dump the process metrics table to stderr.")
  in
  let no_stats =
    Arg.(
      value & flag
      & info [ "no-stats" ]
          ~doc:
            "Omit per-request stats from the output (the deterministic part \
             only).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request wall-clock deadline; a request that runs over \
             returns a deadline_exceeded error instead of hanging the batch.")
  in
  let max_oracle_calls =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-oracle-calls" ] ~docv:"N"
          ~doc:
            "Per-request oracle-question budget (raw, T_B and \
             \xe2\x89\x85_B questions all count); overruns return \
             budget_exceeded.")
  in
  let inject =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject" ] ~docv:"SEED"
          ~doc:
            "Deterministically inject transient oracle outages (seeded; \
             absorbed by bounded retry, surviving ones become \
             oracle_unavailable errors).")
  in
  let run file jobs metrics no_stats deadline_ms max_oracle_calls inject
      default_mode open_world decls trace trace_sample =
    if jobs < 1 then begin
      Format.eprintf "jobs must be >= 1@.";
      exit 1
    end;
    let ic = open_requests file in
    let config =
      engine_config_of_flags ~deadline_ms ~max_oracle_calls ~inject
        ~decls:(decls_of_flags ~open_world ~decls)
        ~default_mode ()
    in
    let sampling = sampling_of_flags ~trace ~trace_sample in
    (* One engine (or pool) for the whole run, created up front so
       caches stay warm across chunks exactly as they did across one
       big batch. *)
    let serve, collect_traces, finish =
      if jobs = 1 then begin
        let trace =
          Option.map (fun sampling -> Obs.Trace.make ~sampling ()) sampling
        in
        let engine = Engine.create ?config ?trace () in
        ( Engine.handle_all engine,
          (fun () -> Engine.traces engine),
          fun () -> () )
      end
      else begin
        let pool =
          Pool.create ~domains:jobs ?engine_config:config ?tracing:sampling ()
        in
        ( Pool.run_batch pool,
          (fun () -> Pool.traces pool),
          fun () -> Pool.shutdown pool )
      end
    in
    let served = ref 0 in
    let errors = ref 0 in
    let print_response r =
      incr served;
      if Result.is_error r.Request.result then incr errors;
      print_endline
        (Json.to_string (Request.response_to_json ~stats:(not no_stats) r))
    in
    (* Stream the input instead of materializing it: decode up to
       [chunk_size] requests (Request.decode_line — the same per-line
       step the socket path runs), serve them, print in input order,
       repeat.  Memory is O(chunk), so request files larger than RAM
       serve fine; -j 1 streams strictly line by line. *)
    let chunk_size = if jobs = 1 then 1 else 256 in
    let rec fill acc n line_no =
      if n >= chunk_size then (List.rev acc, line_no, false)
      else
        match input_line ic with
        | line -> (
            let line_no = line_no + 1 in
            match
              Request.decode_line ~default_id:line_no
                ~on_unknown:(fun field ->
                  Format.eprintf
                    "warning: line %d: unknown request field %S ignored@."
                    line_no field)
                line
            with
            | `Empty -> fill acc n line_no
            | `Error resp -> fill (Either.Left resp :: acc) (n + 1) line_no
            | `Request req -> fill (Either.Right req :: acc) (n + 1) line_no)
        | exception End_of_file -> (List.rev acc, line_no, true)
    in
    let rec stream line_no =
      let decoded, line_no, eof = fill [] 0 line_no in
      let requests =
        List.filter_map
          (function Either.Right r -> Some r | Either.Left _ -> None)
          decoded
      in
      let responses = serve requests in
      (* Re-interleave served responses with decode failures, in input
         order. *)
      let rec emit decoded responses =
        match (decoded, responses) with
        | [], [] -> ()
        | Either.Left bad :: rest, responses ->
            print_response bad;
            emit rest responses
        | Either.Right _ :: rest, r :: responses ->
            print_response r;
            emit rest responses
        | _ -> assert false
      in
      emit decoded responses;
      if not eof then stream line_no
    in
    stream 0;
    let traces = collect_traces () in
    finish ();
    if file <> "-" then close_in ic;
    latency_summary ~served:!served ~errors:!errors;
    List.iter (fun tr -> prerr_endline (Obs.Trace.to_json_string tr)) traces;
    if metrics then prerr_string (Metrics.dump_text ())
  in
  Cmd.v
    (Cmd.info "serve-batch" ~doc)
    Term.(
      const run $ file $ jobs $ metrics $ no_stats $ deadline_ms
      $ max_oracle_calls $ inject $ default_mode_flag $ open_world_flag
      $ decl_flags $ trace_flag $ trace_sample_arg)

(* ------------------------------------------------------------------ *)
(* The TCP front-end                                                   *)

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or dial.")

let window_arg =
  Arg.(
    value & opt int 64
    & info [ "window" ] ~docv:"N"
        ~doc:
          "Admission window: global in-flight bound; requests arriving \
           beyond it are shed with a typed overloaded error instead of \
           queueing unboundedly.")

let per_conn_window_arg =
  Arg.(
    value & opt int 16
    & info [ "per-conn-window" ] ~docv:"N"
        ~doc:
          "Per-connection bound on responses owed; past it the server \
           stops reading that socket and lets TCP push back.")

(* How serve, shard and router go live: write the bound ports, one per
   line, to --port-file (temp + rename, so a poller never reads a
   partial file), then block until SIGINT or SIGTERM.  The handlers are
   installed first, so a signal sent as soon as the file appears still
   drains. *)
let publish_and_wait port_file ports =
  let stop = Atomic.make false in
  let on_signal _ = Atomic.set stop true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Option.iter
    (fun path ->
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_text tmp (fun oc ->
          List.iter (Printf.fprintf oc "%d\n") ports);
      Sys.rename tmp path)
    port_file;
  while not (Atomic.get stop) do
    Unix.sleepf 0.05
  done

let cmd_serve =
  let doc =
    "Serve the JSON-lines request ABI over TCP: one request per line in, \
     one response per line out, correlated by id (responses may return \
     out of order per connection).  Same semantics as serve-batch — plus \
     admission control (typed overloaded sheds), per-connection \
     backpressure, and graceful drain on SIGINT/SIGTERM."
  in
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port; 0 picks an ephemeral port (printed to stderr).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (default: cores - 1, at least 1).")
  in
  let max_line =
    Arg.(
      value
      & opt int Frame.default_max_line
      & info [ "max-line" ] ~docv:"BYTES"
          ~doc:
            "Frame bound; longer lines are discarded and answered with a \
             typed parse error.")
  in
  let no_stats =
    Arg.(
      value & flag
      & info [ "no-stats" ]
          ~doc:"Omit per-request stats (the deterministic part only).")
  in
  let drain_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "drain-timeout" ] ~docv:"S"
          ~doc:
            "Seconds to wait for in-flight requests on shutdown before \
             aborting the stragglers.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let max_oracle_calls =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-oracle-calls" ] ~docv:"N"
          ~doc:"Per-request oracle-question budget.")
  in
  let inject =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject" ] ~docv:"SEED"
          ~doc:"Seeded transient oracle-outage injection.")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Serve the Prometheus text exposition on a second listener: \
             /metrics is every registered metric (engine counters, latency \
             histograms, admission and cache gauges), /traces the recent \
             sampled span trees as JSON lines.  0 picks an ephemeral port \
             (printed to stderr).")
  in
  let store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Durable store directory: load any snapshot before serving \
             (warm start), journal admitted requests, write write-behind \
             snapshots, flush a final one on drain.")
  in
  let snapshot_interval =
    Arg.(
      value & opt float 30.0
      & info [ "snapshot-interval" ] ~docv:"S"
          ~doc:"Seconds between write-behind snapshots (with --store).")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound serving port (line 1) and metrics port (line \
             2, if any) to FILE once listening — how scripts find an \
             ephemeral --port 0.")
  in
  let run host port jobs window per_conn_window max_line no_stats
      drain_timeout deadline_ms max_oracle_calls inject default_mode
      open_world decls metrics_port store_dir snapshot_interval port_file
      trace trace_sample =
    if window < 1 || per_conn_window < 1 || max_line < 1 then begin
      Format.eprintf "window, per-conn-window and max-line must be >= 1@.";
      exit 1
    end;
    let config =
      engine_config_of_flags ~deadline_ms ~max_oracle_calls ~inject
        ~decls:(decls_of_flags ~open_world ~decls)
        ~default_mode ()
    in
    let tracing = sampling_of_flags ~trace ~trace_sample in
    let server =
      Server.start ~host ~port ?domains:jobs ~window ~per_conn_window
        ~max_line ~stats:(not no_stats) ?engine_config:config ?tracing
        ?metrics_port ?store_dir ~snapshot_interval_s:snapshot_interval ()
    in
    Format.eprintf
      "recdb: listening on %s:%d (admission window %d, per-connection \
       window %d, %d worker domain%s)@."
      host (Server.port server) window per_conn_window
      (Pool.size (Server.pool server))
      (if Pool.size (Server.pool server) = 1 then "" else "s");
    (match Server.metrics_port server with
    | Some mp -> Format.eprintf "recdb: metrics on %s:%d/metrics@." host mp
    | None -> ());
    (match store_dir with
    | Some dir -> Format.eprintf "recdb: durable store in %s@." dir
    | None -> ());
    publish_and_wait port_file
      (Server.port server :: Option.to_list (Server.metrics_port server));
    let adm = Server.admission server in
    Format.eprintf "recdb: draining (%d in flight)...@."
      (Admission.inflight adm);
    let outcome = Server.drain ~timeout_s:drain_timeout server in
    Format.eprintf
      "recdb: served %d connection(s), admitted %d request(s), shed %d@."
      (Server.connections server)
      (Admission.admitted adm) (Admission.shed adm);
    match outcome with
    | `Clean -> Format.eprintf "recdb: drained clean@."
    | `Forced n ->
        Format.eprintf "recdb: drain timed out; %d connection(s) aborted@." n;
        exit 1
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ host_arg $ port $ jobs $ window_arg $ per_conn_window_arg
      $ max_line $ no_stats $ drain_timeout $ deadline_ms $ max_oracle_calls
      $ inject $ default_mode_flag $ open_world_flag $ decl_flags
      $ metrics_port $ store_dir $ snapshot_interval
      $ port_file $ trace_flag $ trace_sample_arg)

let cmd_loadgen =
  let doc =
    "Drive a running recdb server with concurrent connections and report \
     throughput and p50/p95/p99 latency.  Closed loop by default (each \
     connection keeps --pipeline requests outstanding); --rate switches \
     to open loop at a fixed per-connection send rate."
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Server port (required unless --endpoints is given).")
  in
  let connections =
    Arg.(
      value & opt int 4
      & info [ "c"; "connections" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let requests =
    Arg.(
      value & opt int 400
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Total requests to send.")
  in
  let pipeline =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"K"
          ~doc:"Closed-loop window per connection.")
  in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Open loop: requests/second per connection.")
  in
  let endpoints =
    Arg.(
      value
      & opt_all host_port_arg []
      & info [ "endpoints" ] ~docv:"HOST:PORT"
          ~doc:
            "Dial these addresses round-robin per connection instead of \
             --host/--port — e.g. shard listeners directly, bypassing the \
             router.  Repeatable.")
  in
  let run host port connections requests pipeline rate endpoints =
    let endpoints = if endpoints = [] then None else Some endpoints in
    let port =
      match (port, endpoints) with
      | Some p, _ -> p
      | None, Some _ -> 0 (* every connection dials an endpoint *)
      | None, None ->
          Format.eprintf "loadgen: --port or --endpoints is required@.";
          exit 1
    in
    let report =
      try
        Loadgen.run ~host ~port ~connections ~requests ~pipeline ?rate
          ?endpoints ()
      with Unix.Unix_error (e, _, _) ->
        Format.eprintf "loadgen: cannot connect: %s@." (Unix.error_message e);
        exit 1
    in
    Format.printf "%a@." Loadgen.pp_report report;
    if report.Loadgen.lost > 0 then exit 1
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const run $ host_arg $ port $ connections $ requests $ pipeline $ rate
      $ endpoints)

(* The forking smokes' shared scaffolding.  Each works in a fresh
   scratch directory holding the child's port file and log, removed
   when every check passes and kept (with the log) when one fails. *)
let smoke_dir dir =
  Proc.rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

let smoke_fail name ~dir fs =
  List.iter (Format.eprintf "%s failure: %s@." name) fs;
  Format.eprintf "%s: child log kept in %s@." name dir;
  exit 1

let smoke_verdict name ~dir = function
  | [] -> Proc.rm_rf dir
  | fs -> smoke_fail name ~dir fs

(* [recdb serve --port 0 ARGS] forked from this executable under
   Proc.with_server.  A child that never comes up or does not drain to
   exit 0 on SIGTERM is reported to [fail]; [body]'s value is kept
   even then, so the smoke still reports its own checks. *)
let serve_argv args =
  Array.of_list (Sys.executable_name :: "serve" :: "--port" :: "0" :: args)

let with_serve ~dir ~fail args body =
  let v = ref None in
  (match
     Proc.with_server
       ~log:(Filename.concat dir "server.log")
       ~port_file:(Filename.concat dir "server.port")
       (serve_argv args)
       (fun ~port ~metrics_port -> v := Some (body ~port ~metrics_port))
   with
  | Ok () -> ()
  | Error e -> fail e);
  !v

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

let cmd_server_smoke =
  let doc =
    "CI smoke: fork a real recdb serve child on an ephemeral loopback port \
     (--port 0, discovered through --port-file), run the load generator \
     against it, then fork a recdb router child over that serve child and \
     run the same load through it.  Verifies, for each door, that every \
     request is answered with zero errors and zero sheds, and that both \
     children drain clean and exit 0 on SIGTERM.  Exits 1 otherwise."
  in
  let requests =
    Arg.(
      value & opt int 300
      & info [ "requests" ] ~docv:"N" ~doc:"Total requests per door.")
  in
  let connections =
    Arg.(
      value & opt int 4
      & info [ "c"; "connections" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let run requests connections =
    let dir = smoke_dir "_server_smoke" in
    let failures = ref [] in
    let fail fmt = Format.kasprintf (fun s -> failures := s :: !failures) fmt in
    let load door port =
      let r = Loadgen.run ~port ~connections ~requests ~pipeline:4 () in
      Format.printf "server-smoke (%s): %a@." door Loadgen.pp_report r;
      if r.Loadgen.answered <> r.Loadgen.sent then
        fail "%s: %d answered of %d sent" door r.Loadgen.answered
          r.Loadgen.sent;
      if r.Loadgen.errors > 0 then
        fail "%s: %d error responses" door r.Loadgen.errors;
      if r.Loadgen.shed > 0 then
        fail "%s: %d sheds under nominal load" door r.Loadgen.shed;
      if r.Loadgen.lost > 0 then fail "%s: %d requests lost" door r.Loadgen.lost
    in
    ignore
      (with_serve ~dir ~fail:(fail "serve: %s")
         [ "--window"; "256"; "--per-conn-window"; "64" ]
         (fun ~port ~metrics_port:_ ->
           load "serve" port;
           match
             Proc.with_server
               ~log:(Filename.concat dir "router.log")
               ~port_file:(Filename.concat dir "router.port")
               [|
                 Sys.executable_name;
                 "router";
                 "--port";
                 "0";
                 "--shard";
                 Printf.sprintf "127.0.0.1:%d" port;
               |]
               (fun ~port ~metrics_port:_ ->
                 if wait_routed port then load "router" port
                 else fail "router: never reached its shard")
           with
           | Ok () -> ()
           | Error e -> fail "router: %s" e));
    smoke_verdict "server-smoke" ~dir (List.rev !failures);
    Format.printf "server-smoke: clean shutdown, zero errors@."
  in
  Cmd.v (Cmd.info "server-smoke" ~doc) Term.(const run $ requests $ connections)

let cmd_crash_test =
  let doc =
    "Chaos-test the worker pool: serve a mixed batch while deliberately \
     killing the worker domain on every Nth request, then verify \
     containment — one response per request, crashed requests carry a \
     typed worker_crash error, and every other response is byte-identical \
     to a clean sequential run.  Exits 1 on any violation."
  in
  let requests =
    Arg.(
      value & opt int 200
      & info [ "requests" ] ~docv:"N" ~doc:"Batch size.")
  in
  let jobs =
    Arg.(
      value & opt int 3
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let every =
    Arg.(
      value & opt int 25
      & info [ "every" ] ~docv:"K"
          ~doc:"Kill the serving worker on requests with id divisible by K.")
  in
  let run requests jobs every =
    if requests < 1 || jobs < 1 || every < 1 then begin
      Format.eprintf "requests, jobs and every must all be >= 1@.";
      exit 1
    end;
    let batch = Workload.mixed requests in
    let reference = Engine.handle_all (Engine.create ()) batch in
    let pool =
      Pool.create ~domains:jobs
        ~crash_on:(fun r -> r.Request.id mod every = 0)
        ()
    in
    let responses = Pool.run_batch pool batch in
    let deaths = Pool.worker_deaths pool in
    Pool.shutdown pool;
    let violations = ref [] in
    let violation fmt =
      Format.kasprintf (fun s -> violations := s :: !violations) fmt
    in
    if List.length responses <> requests then
      violation "%d responses for %d requests" (List.length responses)
        requests
    else
      List.iter2
        (fun (r : Request.response) (ref_r : Request.response) ->
          if r.id <> ref_r.id then
            violation "response id %d out of order (expected %d)" r.id
              ref_r.id
          else if r.id mod every = 0 then (
            match r.result with
            | Error (Request.Worker_crash _) -> ()
            | _ ->
                violation "request %d should have died with worker_crash"
                  r.id)
          else if Bench_util.bytes r <> Bench_util.bytes ref_r then
            violation "request %d differs from the sequential run" r.id)
        responses reference;
    let crashed =
      List.length
        (List.filter
           (fun (r : Request.response) ->
             match r.result with
             | Error (Request.Worker_crash _) -> true
             | _ -> false)
           responses)
    in
    Format.printf
      "crash-test: %d requests on %d workers, crashing every %dth id: %d \
       worker deaths, %d crashed responses, %d clean@."
      requests jobs every deaths crashed (requests - crashed);
    match !violations with
    | [] -> Format.printf "containment holds: all clean responses identical \
                           to a sequential run@."
    | vs ->
        List.iter (Format.eprintf "violation: %s@.") (List.rev vs);
        exit 1
  in
  Cmd.v (Cmd.info "crash-test" ~doc) Term.(const run $ requests $ jobs $ every)

let cmd_stats =
  let doc =
    "One-shot scrape of a running server's metrics listener: fetch a path \
     (default /metrics, the Prometheus text exposition; /traces for recent \
     span trees) and print the body.  The server must be running with \
     --metrics-port.  With --ledger, -p is the $(i,serving) port instead: \
     send the stats wire op and print the node's cumulative Def. 3.9 \
     question ledger — against a router, the merged cluster ledger plus \
     the per-shard breakdown."
  in
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:
            "The server's metrics port (or, with --ledger, its serving \
             port).")
  in
  let path =
    Arg.(
      value & opt string "/metrics"
      & info [ "path" ] ~docv:"PATH" ~doc:"Route to fetch.")
  in
  let ledger =
    Arg.(
      value & flag
      & info [ "ledger" ]
          ~doc:
            "Ask the serving port for its question ledger over the wire \
             ABI instead of scraping the metrics listener.")
  in
  let print_ledger ~indent (l : Request.ledger) =
    Format.printf
      "%s%-24s %8d questions (raw %d, t_b %d, equiv %d)  cache hits %d%s%s@."
      indent l.Request.l_node l.Request.l_questions l.Request.l_raw
      l.Request.l_tb l.Request.l_equiv l.Request.l_cache_hits
      (if l.Request.l_served > 0 then
         Printf.sprintf "  served %d" l.Request.l_served
       else "")
      (if l.Request.l_hedges_fired > 0 || l.Request.l_sheds > 0 then
         Printf.sprintf "  hedges %d (wins %d)  sheds %d"
           l.Request.l_hedges_fired l.Request.l_hedge_wins l.Request.l_sheds
       else "")
  in
  let run_ledger host port =
    let fail fmt =
      Format.kasprintf
        (fun s ->
          Format.eprintf "stats: %s@." s;
          exit 1)
        fmt
    in
    match Proc.send_and_collect ~host ~port [ {|{"id":0,"op":"stats"}|} ] with
    | Error e -> fail "%s" e
    | Ok [] -> fail "no response from %s:%d" host port
    | Ok (line :: _) -> (
        match Json.parse line with
        | Error e -> fail "unparsable response: %s" e
        | Ok j -> (
            match Json.member "ok" j with
            | None -> fail "error response: %s" line
            | Some ok -> (
                let cluster =
                  Option.bind (Json.member "cluster" ok) Request.ledger_of_json
                in
                let shards =
                  match Json.member "shards" ok with
                  | Some (Json.List ls) ->
                      List.filter_map Request.ledger_of_json ls
                  | _ -> []
                in
                match cluster with
                | None -> fail "response carried no ledger: %s" line
                | Some l ->
                    print_ledger ~indent:"" l;
                    List.iter (print_ledger ~indent:"  ") shards)))
  in
  let run host port path ledger =
    if ledger then run_ledger host port
    else
      match Expo_server.get ~host ~port ~path () with
      | Ok body -> print_string body
      | Error reason ->
          Format.eprintf "stats: %s@." reason;
          exit 1
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ host_arg $ port $ path $ ledger)

(* The exposition format checks obs-smoke runs against a scrape body:
   every family the serving stack is known to register must be present,
   and every histogram's cumulative le-ladder must be monotone. *)
let check_exposition body =
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failures := s :: !failures) fmt in
  let lines = String.split_on_char '\n' body in
  let required =
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
  in
  List.iter
    (fun name ->
      let present =
        List.exists
          (fun l ->
            String.length l > String.length name
            && String.sub l 0 (String.length name) = name
            && (l.[String.length name] = ' ' || l.[String.length name] = '_'
               || l.[String.length name] = '{'))
          lines
      in
      if not present then fail "missing metric family %s" name)
    required;
  (* Bucket monotonicity: within one histogram, counts never decrease
     down the le ladder, and the +Inf bucket equals _count. *)
  let bucket_of l =
    match String.index_opt l '{' with
    | Some i when String.length l > 7 && String.sub l 0 1 <> "#" -> (
        let name = String.sub l 0 i in
        match String.rindex_opt l ' ' with
        | Some sp -> (
            try
              Some (name, int_of_string (String.sub l (sp + 1)
                                            (String.length l - sp - 1)))
            with _ -> None)
        | None -> None)
    | _ -> None
  in
  let last : (string * int) option ref = ref None in
  List.iter
    (fun l ->
      match bucket_of l with
      | Some (name, v) -> (
          (match !last with
          | Some (prev_name, prev_v) when prev_name = name && v < prev_v ->
              fail "histogram %s: bucket count %d < previous %d" name v prev_v
          | _ -> ());
          last := Some (name, v))
      | None -> last := None)
    lines;
  List.rev !failures

let cmd_obs_smoke =
  let doc =
    "CI smoke for the observability subsystem: fork a real recdb serve \
     child with tracing sampled (--trace-sample 4) and a metrics listener \
     on an ephemeral port, drive it with the load generator, then scrape \
     /metrics (asserting the exposition is well-formed: required families \
     present, histogram buckets monotone) and /traces (asserting every line \
     parses as JSON and carries a span tree), and require a clean SIGTERM \
     drain.  Exits 1 on any failure."
  in
  let requests =
    Arg.(
      value & opt int 200
      & info [ "requests" ] ~docv:"N" ~doc:"Total requests.")
  in
  let run requests =
    let dir = smoke_dir "_obs_smoke" in
    let failures = ref [] in
    let fail fmt = Format.kasprintf (fun s -> failures := s :: !failures) fmt in
    let check_traces body =
      match
        List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' body)
      with
      | [] -> fail "/traces: no sampled traces collected"
      | lines ->
          List.iter
            (fun l ->
              match Json.parse l with
              | Ok (Json.Obj kvs)
                when List.mem_assoc "root" kvs
                     && List.mem_assoc "questions" kvs ->
                  ()
              | Ok _ -> fail "/traces: not a span tree: %s" l
              | Error e -> fail "/traces: unparseable line (%s)" e)
            lines
    in
    ignore
    @@ with_serve ~dir ~fail:(fail "%s")
         [
           "--trace-sample"; "4"; "--metrics-port"; "0"; "--window"; "256";
           "--per-conn-window"; "64";
         ]
         (fun ~port ~metrics_port ->
           let r = Loadgen.run ~port ~connections:4 ~requests ~pipeline:4 () in
           if r.Loadgen.answered <> r.Loadgen.sent then
             fail "%d answered of %d sent" r.Loadgen.answered r.Loadgen.sent;
           if r.Loadgen.errors > 0 then
             fail "%d error responses" r.Loadgen.errors;
           match metrics_port with
           | None -> fail "no metrics listener came up"
           | Some port -> (
               let get path = Expo_server.get ~port ~path () in
               (match get "/metrics" with
               | Error reason -> fail "/metrics scrape failed: %s" reason
               | Ok body ->
                   List.iter (fail "/metrics: %s") (check_exposition body));
               (match get "/traces" with
               | Error reason -> fail "/traces scrape failed: %s" reason
               | Ok body -> check_traces body);
               match get "/nonsense" with
               | Error _ -> ()
               | Ok _ -> fail "/nonsense answered 200; expected 404"));
    smoke_verdict "obs-smoke" ~dir (List.rev !failures);
    Format.printf
      "obs-smoke: %d requests, exposition well-formed, traces parse, clean \
       drain@."
      requests
  in
  Cmd.v (Cmd.info "obs-smoke" ~doc) Term.(const run $ requests)

let cmd_rql =
  let doc =
    "Evaluate an RQL query (let/fix bindings over FO formulas, see \
     README) on an hs instance; omit QUERY for a read-eval-print loop."
  in
  let inst =
    Arg.(
      value & opt string "paths3"
      & info [ "i"; "instance" ] ~docv:"NAME" ~doc:"Instance name.")
  in
  let cutoff =
    Arg.(
      value & opt int 4
      & info [ "c"; "cutoff" ] ~docv:"N"
          ~doc:"Window bound for listing concrete members.")
  in
  let naive =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:
            "Disable the cost-based planner: literal compilation, full \
             fixpoint rounds, scan-based membership.  Same answers, more \
             oracle questions.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ] ~doc:"Print the compiled plan before evaluating.")
  in
  let query =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "e.g. 'fix p(x,y) = R1(x,y) || exists z. (R1(x,z) && p(z,y)); \
             query {(x,y) | p(x,y)}'.  Omit to enter a REPL (one query \
             per line, blank line or EOF to quit).")
  in
  let run inst cutoff naive explain open_world decls query =
    if not (List.mem inst (Engine.instance_names ())) then begin
      Format.eprintf "unknown instance %S; try `recdb instances'@." inst;
      exit 1
    end;
    let planner = if naive then Request.Plan_naive else Request.Plan_cost in
    let mode = if naive then Rql.Rql_plan.Naive else Rql.Rql_plan.Planned in
    let config =
      engine_config_of_flags ~deadline_ms:None ~max_oracle_calls:None
        ~inject:None
        ~decls:(decls_of_flags ~open_world ~decls)
        ()
    in
    (* One engine for the whole run: in the REPL, later queries reuse
       earlier plans and materialized definitions. *)
    let engine = Engine.create ?config () in
    let next_id = ref 0 in
    let pp_tuples ppf ts =
      Format.fprintf ppf "{%s}"
        (String.concat ", " (List.map Prelude.Tuple.to_string ts))
    in
    let eval_one text =
      incr next_id;
      if explain then begin
        match Rql.Rql_plan.plan_of_text ~mode text with
        | exception Rql.Rql_plan.Error _ -> () (* reported below *)
        | plan -> Format.printf "%s@." (Rql.Rql_plan.describe plan)
      end;
      let before = Engine.question_count engine in
      let r =
        Engine.handle engine
          (Request.make ~id:!next_id
             (Request.Rql { instance = inst; text; cutoff; planner }))
      in
      (match r.Request.result with
      | Ok (Request.Bool b) -> Format.printf "%b@." b
      | Ok (Request.Rel { rank; reps; members }) ->
          Format.printf "rank %d class representatives: %a@." rank pp_tuples
            reps;
          (* the window bound may be the inline [cutoff N], not [-c] *)
          Format.printf "concrete members: %a@." pp_tuples members
      | Ok (Request.Levels levels) ->
          List.iteri
            (fun i level ->
              Format.printf "T^%d: %a@." (i + 1) pp_tuples level)
            levels
      | Ok Request.Undefined -> Format.printf "undefined@."
      | Ok (Request.Count n) -> Format.printf "%d@." n
      | Ok (Request.Ledger_report _) -> () (* rql never answers stats *)
      | Error e -> Format.printf "error: %s@." (Request.error_to_string e));
      (match r.Request.cert with
      | Request.Cert_exact -> ()
      | c ->
          Format.printf "-- certificate: %s@."
            (Json.to_string (Request.certificate_to_json c)));
      Format.printf "-- %d oracle questions@."
        (Engine.question_count engine - before);
      Result.is_ok r.Request.result
    in
    match query with
    | Some text -> if not (eval_one text) then exit 1
    | None ->
        (* REPL: one query per line; exit status reflects the last. *)
        let interactive = Unix.isatty Unix.stdin in
        let rec loop ok =
          if interactive then (
            Format.printf "rql(%s)> " inst;
            Format.print_flush ());
          match input_line stdin with
          | "" -> ok
          | line -> loop (eval_one line)
          | exception End_of_file -> ok
        in
        if not (loop true) then exit 1
  in
  Cmd.v (Cmd.info "rql" ~doc)
    Term.(
      const run $ inst $ cutoff $ naive $ explain $ open_world_flag
      $ decl_flags $ query)

let cmd_rql_smoke =
  let doc =
    "CI smoke for the RQL front-end: fork a real recdb serve child on an \
     ephemeral loopback port (--port 0, discovered through --port-file), \
     send the committed golden request file over a socket, and diff the \
     responses (sorted by id, stats stripped) against the committed \
     expected output.  Exits 1 on any difference."
  in
  let requests_file =
    Arg.(
      value
      & opt string "test/golden/rql_requests.jsonl"
      & info [ "requests" ] ~docv:"FILE" ~doc:"Golden request file.")
  in
  let expected_file =
    Arg.(
      value
      & opt string "test/golden/rql_expected.jsonl"
      & info [ "expected" ] ~docv:"FILE" ~doc:"Expected response file.")
  in
  let update =
    Arg.(
      value & flag
      & info [ "update" ]
          ~doc:"Rewrite the expected file with the observed responses.")
  in
  let read_lines path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (if String.trim line = "" then acc else line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  let run requests_file expected_file update =
    let requests = read_lines requests_file in
    if requests = [] then begin
      Format.eprintf "rql-smoke: no requests in %s@." requests_file;
      exit 1
    end;
    (* stats vary with memo state; the golden contract is the
       deterministic part of each response only. *)
    let dir = smoke_dir "_rql_smoke" in
    let failures = ref [] in
    let fail s = failures := s :: !failures in
    let observed =
      match
        with_serve ~dir ~fail
          [ "--no-stats"; "--window"; "64"; "--per-conn-window"; "32" ]
          (fun ~port ~metrics_port:_ -> Proc.send_and_collect ~port requests)
      with
      | Some (Ok responses) ->
          (* The server may answer out of order across the pipeline; the
             golden file is committed sorted by id. *)
          Some (Proc.sort_by_id responses)
      | Some (Error e) ->
          fail ("workload send failed: " ^ e);
          None
      | None -> None
    in
    let rec diff i e o acc =
      match (e, o) with
      | [], [] -> List.rev acc
      | e :: es, o :: os ->
          diff (i + 1) es os
            (if String.equal e o then acc
             else Printf.sprintf "line %d:\n  expected: %s\n  got:      %s" i e o :: acc)
      | e :: es, [] ->
          diff (i + 1) es []
            (Printf.sprintf "line %d missing (expected %s)" i e :: acc)
      | [], o :: os ->
          diff (i + 1) [] os
            (Printf.sprintf "line %d unexpected: %s" i o :: acc)
    in
    (match observed with
    | Some observed when not update ->
        List.iter
          (fun d -> fail ("difference: " ^ d))
          (diff 1 (read_lines expected_file) observed [])
    | _ -> ());
    smoke_verdict "rql-smoke" ~dir (List.rev !failures);
    let observed = Option.value observed ~default:[] in
    if update then begin
      let oc = open_out expected_file in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        observed;
      close_out oc;
      Format.printf "rql-smoke: wrote %d responses to %s@."
        (List.length observed) expected_file
    end
    else
      Format.printf "rql-smoke: %d responses match %s, clean drain@."
        (List.length observed) expected_file
  in
  Cmd.v (Cmd.info "rql-smoke" ~doc)
    Term.(const run $ requests_file $ expected_file $ update)

let cmd_store_inspect =
  let doc =
    "Inspect a durable store directory (read-only, safe against a live \
     server): snapshot format version and entry counts by kind, journal \
     admitted/completed/pending counts, corrupt or torn records."
  in
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Store directory (as passed to --store).")
  in
  let run dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Format.eprintf "store-inspect: no such directory: %s@." dir;
      exit 1
    end;
    print_string (Store.inspect ~dir)
  in
  Cmd.v (Cmd.info "store-inspect" ~doc) Term.(const run $ dir)

let cmd_store_smoke =
  let doc =
    "CI crash-recovery smoke: serve the mixed workload through a durable \
     child server, kill -9 it mid-load after a snapshot, restart on the \
     same store, and verify the warm server's responses are byte-identical \
     to a sequential reference while asking < 5% of the cold run's oracle \
     questions.  Exits 1 on any violation."
  in
  let requests =
    Arg.(
      value & opt int 120
      & info [ "requests" ] ~docv:"N" ~doc:"Workload size.")
  in
  let dir_arg =
    Arg.(
      value & opt string "_store_smoke"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Scratch directory: the store, the child's port file and log.")
  in
  let scrape_gauge ~metrics_port name =
    match Expo_server.get ~port:metrics_port ~path:"/metrics" () with
    | Error e ->
        Format.eprintf "store-smoke: metrics scrape failed: %s@." e;
        None
    | Ok body ->
        let prefix = name ^ " " in
        String.split_on_char '\n' body
        |> List.find_map (fun line ->
               if String.length line > String.length prefix
                  && String.sub line 0 (String.length prefix) = prefix
               then
                 float_of_string_opt
                   (String.sub line (String.length prefix)
                      (String.length line - String.length prefix))
               else None)
  in
  let run requests dir =
    let dir = smoke_dir dir in
    let batch = Workload.mixed_with_rql requests in
    let lines = List.map (fun r -> Json.to_string (Request.to_json r)) batch in
    let reference = Proc.sort_by_id (Bench_util.sequential batch) in
    let failures = ref [] in
    let fail fmt = Format.kasprintf (fun s -> failures := s :: !failures) fmt in
    (* Both phases fork a real durable [recdb serve] on the same store,
       so kill -9 exercises genuine crash recovery, not an in-process
       fake. *)
    let store = Filename.concat dir "store" in
    let args =
      [
        "-j"; "1"; "--no-stats"; "--metrics-port"; "0"; "--store"; store;
        "--snapshot-interval"; "0.4";
      ]
    in
    let served ~port what =
      match Proc.send_and_collect ~port lines with
      | Ok responses ->
          if Proc.sort_by_id responses <> reference then
            fail "%s responses differ from sequential" what
      | Error e -> fail "%s workload send failed: %s" what e
    in
    (* --- phase 1: cold durable server, kill -9 mid-load.  It is never
       meant to drain, so it is spawned directly rather than under
       Proc.with_server. ---------------------------------------------- *)
    let port_file = Filename.concat dir "cold.port" in
    let pid =
      Proc.spawn
        ~log:(Filename.concat dir "cold.log")
        (serve_argv (args @ [ "--port-file"; port_file ]))
    in
    let cold_questions =
      match Proc.wait_port_file port_file with
      | Error e ->
          Proc.kill_and_reap pid Sys.sigkill;
          fail "%s" e;
          None
      | Ok (port, metrics_port) ->
          served ~port "cold";
          let cold_questions =
            Option.bind metrics_port (fun mp ->
                scrape_gauge ~metrics_port:mp "pool_oracle_questions")
          in
          (* wait for a write-behind snapshot to land, then re-send the
             workload and shoot the server while it is answering *)
          let deadline = Unix.gettimeofday () +. 10. in
          let rec wait_snapshot () =
            match metrics_port with
            | None -> Unix.sleepf 1.0
            | Some mp -> (
                match
                  scrape_gauge ~metrics_port:mp "store_snapshot_last_entries"
                with
                | Some n when n > 0. -> ()
                | _ ->
                    if Unix.gettimeofday () > deadline then
                      fail "no snapshot within 10s of serving"
                    else begin
                      Unix.sleepf 0.1;
                      wait_snapshot ()
                    end)
          in
          wait_snapshot ();
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
          cold_questions
    in
    (* --- phase 2: warm restart on the crashed store, then a clean
       SIGTERM drain (checked by the harness) ------------------------- *)
    ignore
    @@ with_serve ~dir ~fail:(fail "%s") args (fun ~port ~metrics_port ->
        served ~port "warm";
        match (metrics_port, cold_questions) with
        | Some mp, Some coldq -> (
            (match scrape_gauge ~metrics_port:mp "pool_oracle_questions" with
            | Some warmq ->
                if coldq > 0. && warmq >= 0.05 *. coldq then
                  fail "warm questions %.0f not < 5%%%% of cold %.0f" warmq
                    coldq
                else
                  Format.printf
                    "store-smoke: cold %.0f questions, warm %.0f (%.1f%%)@."
                    coldq warmq
                    (if coldq > 0. then 100. *. warmq /. coldq else 0.)
            | None -> fail "pool_oracle_questions missing from warm /metrics");
            match
              scrape_gauge ~metrics_port:mp "store_last_flush_age_seconds"
            with
            | Some _ -> ()
            | None -> fail "store_last_flush_age_seconds missing from /metrics")
        | _ -> fail "metrics unavailable; cannot check the question ratio");
    (* --- phase 3: the drain flushed a final snapshot ---------------- *)
    if not (Sys.file_exists (Filename.concat store "snapshot.rdb")) then
      fail "no snapshot after clean drain";
    smoke_verdict "store-smoke" ~dir (List.rev !failures);
    Format.printf
      "store-smoke: %d requests; crash mid-load recovered, responses \
       byte-identical cold and warm, clean drain@."
      (List.length lines)
  in
  Cmd.v (Cmd.info "store-smoke" ~doc) Term.(const run $ requests $ dir_arg)

let cmd_shard =
  let doc =
    "Run a supervised shard fleet: fork N recdb serve children (each a \
     full engine + pool + net stack on an ephemeral port) and supervise \
     them — a child that dies for any reason is respawned on the same \
     port, so the endpoint list handed to a router stays valid across \
     crashes.  SIGINT/SIGTERM stops supervising and drains every child."
  in
  let n =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"N" ~doc:"Number of shard children.")
  in
  let dir =
    Arg.(
      value & opt string "_shards"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Directory for per-shard port files and logs.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains per shard.")
  in
  let no_stats =
    Arg.(
      value & flag
      & info [ "no-stats" ]
          ~doc:"Start every shard with --no-stats (deterministic bytes).")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write every shard's serving port, one per line, once all are \
             bound — how scripts and routers discover the fleet.")
  in
  let run n dir jobs no_stats port_file =
    if n < 1 then begin
      Format.eprintf "shard: N must be >= 1@.";
      exit 1
    end;
    let extra_args =
      [ "-j"; string_of_int jobs ] @ if no_stats then [ "--no-stats" ] else []
    in
    match
      Shard_sup.start ~dir ~extra_args ~exe:Sys.executable_name ~n ()
    with
    | Error e ->
        Format.eprintf "shard: %s@." e;
        exit 1
    | Ok sup ->
        let endpoints = Shard_sup.endpoints sup in
        Format.eprintf "recdb: supervising %d shard(s): %s@." n
          (String.concat ", "
             (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) endpoints));
        publish_and_wait port_file (List.map snd endpoints);
        Format.eprintf "recdb: stopping %d shard(s) (%d respawn(s) so far)@."
          n (Shard_sup.respawns sup);
        Shard_sup.stop sup
  in
  Cmd.v (Cmd.info "shard" ~doc)
    Term.(const run $ n $ dir $ jobs $ no_stats $ port_file)

let cmd_router =
  let doc =
    "Serve the JSON-lines ABI as a cluster front door: consistent-hash \
     every request by its question scope (instance, else op) onto worker \
     shards, with per-shard admission windows, failover to ring siblings \
     on shard death, optional hedged retries on deadline miss, and the \
     merged cluster question ledger behind the stats op.  The router \
     never evaluates a payload, so it can never ask a Def. 3.9 question."
  in
  let port =
    Arg.(
      value & opt int 0
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port; 0 (default) picks an ephemeral port.")
  in
  let shard_args =
    Arg.(
      value & opt_all host_port_arg []
      & info [ "shard" ] ~docv:"HOST:PORT"
          ~doc:"A shard endpoint (repeatable).")
  in
  let shards_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "shards-file" ] ~docv:"FILE"
          ~doc:
            "Read loopback shard ports, one per line — the file recdb \
             shard --port-file writes.")
  in
  let hedge_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "hedge-ms" ] ~docv:"MS"
          ~doc:
            "Hedge a request to its ring sibling when unanswered after MS \
             milliseconds; first response wins, the loser's bytes are \
             dropped (its questions still count in its shard's ledger).")
  in
  let queue_timeout_ms =
    Arg.(
      value & opt float 250.0
      & info [ "queue-timeout-ms" ] ~docv:"MS"
          ~doc:
            "How long a request may wait for a slot in its shard's \
             admission window before being shed with a typed overloaded.")
  in
  let no_stats =
    Arg.(
      value & flag
      & info [ "no-stats" ]
          ~doc:
            "Omit per-request stats from locally generated responses \
             (sheds, parse errors, ledger reports).")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Serve the Prometheus exposition (cluster_shards_up, \
             cluster_hedges_fired, cluster_hedge_wins, \
             cluster_router_sheds, per-shard cluster_shard_up rows) on a \
             second listener; 0 picks an ephemeral port.")
  in
  let max_line =
    Arg.(
      value & opt int Frame.default_max_line
      & info [ "max-line" ] ~docv:"BYTES" ~doc:"Frame bound.")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound routing port (line 1) and metrics port (line \
             2, if any) to FILE once listening.")
  in
  let run host port window shard_args shards_file hedge_ms queue_timeout_ms
      no_stats metrics_port max_line port_file =
    let from_file =
      match shards_file with
      | None -> []
      | Some path ->
          let ic =
            try open_in path
            with Sys_error e ->
              Format.eprintf "router: %s@." e;
              exit 1
          in
          let rec go acc =
            match input_line ic with
            | line when String.trim line = "" -> go acc
            | line -> (
                match parse_host_port ("127.0.0.1:" ^ String.trim line) with
                | Ok e -> go (e :: acc)
                | Error _ ->
                    Format.eprintf "router: %s: bad shard port %S@." path
                      (String.trim line);
                    exit 1)
            | exception End_of_file ->
                close_in ic;
                List.rev acc
          in
          go []
    in
    let shards = shard_args @ from_file in
    if shards = [] then begin
      Format.eprintf "router: no shards (give --shard or --shards-file)@.";
      exit 1
    end;
    let router =
      Router.start ~host ~port ~window
        ?hedge_after_s:(Option.map (fun ms -> ms /. 1000.0) hedge_ms)
        ~queue_timeout_s:(queue_timeout_ms /. 1000.0)
        ~max_line ~stats:(not no_stats) ?metrics_port ~shards ()
    in
    Format.eprintf "recdb: routing on %s:%d over %d shard(s)%s@." host
      (Router.port router) (List.length shards)
      (match hedge_ms with
      | Some ms -> Printf.sprintf ", hedging after %.0fms" ms
      | None -> "");
    (match Router.metrics_port router with
    | Some mp -> Format.eprintf "recdb: metrics on %s:%d/metrics@." host mp
    | None -> ());
    publish_and_wait port_file
      (Router.port router :: Option.to_list (Router.metrics_port router));
    let c = Router.counters router in
    Format.eprintf
      "recdb: draining router (routed %d, hedges %d, wins %d, sheds %d)...@."
      c.Router.routed c.Router.hedges_fired c.Router.hedge_wins c.Router.sheds;
    match Router.drain ~timeout_s:30.0 router with
    | `Clean -> Format.eprintf "recdb: router drained clean@."
    | `Forced n ->
        Format.eprintf "recdb: drain aborted %d client(s)@." n;
        exit 1
  in
  Cmd.v (Cmd.info "router" ~doc)
    Term.(
      const run $ host_arg $ port $ window_arg $ shard_args $ shards_file
      $ hedge_ms $ queue_timeout_ms $ no_stats $ metrics_port $ max_line
      $ port_file)

let cmd_incomplete_smoke =
  let doc =
    "CI smoke for incompleteness-aware answering over the wire: fork a \
     real recdb serve --open-world child, send mode-carrying \
     requests (wire field and RQL text prefix), and check the \
     certain/exact/possible containment, the typed certificates, that an \
     exact response carries no cert field, that a closed-world instance \
     answers identically in every mode, that an unknown top-level field \
     (a \"mod\" typo) is warn-and-count (scraped from /metrics), and \
     that a second child's --default-mode certain applies to modeless \
     requests; both children must drain clean on SIGTERM.  Exits 1 on any \
     failure."
  in
  let run () =
    let dir = smoke_dir "_incomplete_smoke" in
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    let rado_sentence mode_fields id =
      Printf.sprintf
        {|{"id":%d,"op":"sentence","instance":"rado","sentence":"exists x. exists y. R1(x, y)"%s}|}
        id mode_fields
    in
    let tri_sentence mode_fields id =
      Printf.sprintf
        {|{"id":%d,"op":"sentence","instance":"triangles","sentence":"exists x. exists y. R1(x, y)"%s}|}
        id mode_fields
    in
    let lines =
      [
        rado_sentence {|,"mode":"certain"|} 1;
        rado_sentence "" 2;
        rado_sentence {|,"mode":"possible"|} 3;
        rado_sentence {|,"mode":"approximate","budget":1|} 4;
        tri_sentence {|,"mode":"certain"|} 5;
        tri_sentence "" 6;
        (* "mod" is a typo'd "mode": warn-and-count, served exact *)
        tri_sentence {|,"mod":"possible"|} 7;
        {|{"id":8,"op":"rql","instance":"mod3","text":"mode possible query {(x, y) | R1(x, y)} cutoff 3","cutoff":3}|};
      ]
    in
    let parse_responses raw =
      List.filter_map
        (fun l ->
          match Json.parse l with Ok j -> Some j | Error _ -> None)
        (Proc.sort_by_id raw)
    in
    let field name j = Json.member name j in
    let cert_kind j =
      match field "cert" j with
      | Some c -> (
          match Json.member "kind" c with
          | Some (Json.String k) -> Some (k, c)
          | _ -> None)
      | None -> None
    in
    let ok_bool j =
      match field "ok" j with
      | Some ok -> (
          match Json.member "value" ok with
          | Some (Json.Bool b) -> Some b
          | _ -> None)
      | None -> None
    in
    let check_modes raw =
      match parse_responses raw with
      | [ r1; r2; r3; r4; r5; r6; r7; r8 ] ->
          (* open world: certain false ⊆ exact true ⊆ possible true *)
          if ok_bool r1 <> Some false then
            fail "rado certain: expected false (unknown served as lower)";
          if ok_bool r2 <> Some true then fail "rado exact: expected true";
          if ok_bool r3 <> Some true then
            fail "rado possible: expected true (unknown served as upper)";
          (match cert_kind r1 with
          | Some ("certain_lower_bound", _) -> ()
          | _ -> fail "rado certain: expected a certain_lower_bound cert");
          if cert_kind r2 <> None then
            fail "rado exact: response must carry no cert field";
          (match cert_kind r3 with
          | Some ("possible_upper_bound", _) -> ()
          | _ -> fail "rado possible: expected a possible_upper_bound cert");
          (match cert_kind r4 with
          | Some ("approximate", c) -> (
              match Json.member "budget_spent" c with
              | Some (Json.Int n) when n <= 1 -> ()
              | _ -> fail "rado approximate: budget_spent exceeds budget 1")
          | _ -> fail "rado approximate at budget 1: expected to trip");
          (* closed world: every mode = exact bytes, no certs *)
          List.iter
            (fun (name, r) ->
              if ok_bool r <> ok_bool r6 then
                fail "triangles %s: differs from exact" name;
              if cert_kind r <> None then
                fail "triangles %s: unexpected cert on a total instance" name)
            [ ("certain", r5); ("typo'd-mode", r7) ];
          if cert_kind r6 <> None then
            fail "triangles exact: unexpected cert field";
          (* RQL text prefix: mode travels in the query text *)
          (match cert_kind r8 with
          | Some ("possible_upper_bound", _) -> ()
          | _ ->
              fail
                "rql 'mode possible' prefix: expected a possible_upper_bound \
                 cert")
      | rs -> fail "expected 8 responses, got %d" (List.length rs)
    in
    (* the typo'd field must be scrapeable *)
    let check_counters body =
      let counter_at_least name n =
        List.exists
          (fun l ->
            match String.index_opt l ' ' with
            | Some i when String.sub l 0 i = name -> (
                match
                  int_of_string_opt
                    (String.trim
                       (String.sub l (i + 1) (String.length l - i - 1)))
                with
                | Some v -> v >= n
                | None -> false)
            | _ -> false)
          (String.split_on_char '\n' body)
      in
      if not (counter_at_least "server_frames_unknown_field_total" 1) then
        fail "metrics: server_frames_unknown_field_total did not count";
      if not (counter_at_least "engine_mode_certain_total" 1) then
        fail "metrics: engine_mode_certain_total did not count"
    in
    (* Server 1: the demo declarations, default mode exact. *)
    ignore
    @@ with_serve ~dir ~fail:(fail "%s")
         [
           "--open-world"; "--metrics-port"; "0"; "--window"; "64";
           "--per-conn-window"; "16";
         ]
         (fun ~port ~metrics_port ->
           (match Proc.send_and_collect ~port lines with
           | Error e -> fail "exchange failed: %s" e
           | Ok raw -> check_modes raw);
           match metrics_port with
           | None -> fail "no metrics listener came up"
           | Some port -> (
               match Expo_server.get ~port ~path:"/metrics" () with
               | Error reason -> fail "/metrics scrape failed: %s" reason
               | Ok body -> check_counters body));
    (* Server 2: --default-mode certain applies to modeless requests. *)
    ignore
    @@ with_serve ~dir ~fail:(fail "%s")
         [ "--open-world"; "--default-mode"; "certain" ]
         (fun ~port ~metrics_port:_ ->
           match Proc.send_and_collect ~port [ rado_sentence "" 1 ] with
           | Error e -> fail "default-mode exchange failed: %s" e
           | Ok raw -> (
               match parse_responses raw with
               | [ r ] -> (
                   if ok_bool r <> Some false then
                     fail "default-mode certain: expected false";
                   match cert_kind r with
                   | Some ("certain_lower_bound", _) -> ()
                   | _ ->
                       fail
                         "default-mode certain: expected a \
                          certain_lower_bound cert")
               | rs ->
                   fail "default-mode: expected 1 response, got %d"
                     (List.length rs)));
    smoke_verdict "incomplete-smoke" ~dir (List.rev !failures);
    Format.printf
      "incomplete-smoke: modes, certificates, closed-world identity, \
       unknown-field counter and --default-mode all check out@."
  in
  Cmd.v (Cmd.info "incomplete-smoke" ~doc) Term.(const run $ const ())

(* One entry point for the benchmarks.  Each returns its report as
   JSON and the acceptance checks it violated; the report is printed
   one line per leaf (Bench_util.pp_report) and written with -o.  A
   flag the named bench does not read is a usage error, not a silent
   no-op. *)
let cmd_bench =
  let benches =
    (* name, summary, flags read beyond -o, run *)
    [
      ( "engine",
        "E24: LRU oracle savings on the E17 sentences (exit 1 if a cached \
         answer differs from uncached evaluation or the cache saves no raw \
         oracle call).",
        [],
        fun ~requests:_ ~trials:_ ~fault_requests:_ -> Engine_bench.run () );
      ( "resilience",
        "E25: guard overhead (reported), deadline and budget trips on \
         tree(paths3, 6), retry determinism under injected faults (exit 1 \
         if a probe does not trip with its typed error, the budget \
         overspends, or a non-faulted response changes).",
        [ "--requests"; "--trials"; "--fault-requests" ],
        fun ~requests ~trials ~fault_requests ->
          Engine_bench.run_resilience ?trials ?requests ?fault_requests () );
      ( "parallel",
        "E26: shared-memo pools cold and warm (exit 1 unless every measured \
         run is byte-identical to sequential, asks no more questions and \
         loses no worker).",
        [ "--requests" ],
        fun ~requests ~trials:_ ~fault_requests:_ ->
          Engine_bench.run_parallel ?requests () );
      ( "server",
        "E27: socket vs batch byte-identity, loopback throughput at 1/2/4/8 \
         connections, typed sheds at 2x the admission window.",
        [ "--requests" ],
        fun ~requests ~trials:_ ~fault_requests:_ ->
          Net_bench.run ?requests () );
      ( "obs",
        "E28: tracing overhead off / 1-in-64 / full, byte-identity with \
         tracing on, exact ledger slices, a worked budget-trip trace.",
        [ "--requests"; "--trials" ],
        fun ~requests ~trials ~fault_requests:_ ->
          Engine_bench.run_obs ?requests ?trials () );
      ( "rql",
        "E29: planned vs naive questions, warm re-serve with no new plans or \
         questions, byte-identity across planners.",
        [ "--requests" ],
        fun ~requests ~trials:_ ~fault_requests:_ ->
          Engine_bench.run_rql ?requests () );
      ( "compile",
        "E31: interpreter-vs-compiled hot loops (the two gated ones >= 5x), \
         then the golden sets served compiled must reproduce the frozen \
         interpreted output in test/golden/compile_interp.jsonl (run from \
         the source root; --requests cuts the 200-request e31 batch).",
        [ "--requests" ],
        fun ~requests ~trials:_ ~fault_requests:_ ->
          let golden = "test/golden/compile_interp.jsonl" in
          if Sys.file_exists golden then
            Engine_bench.run_compile ~golden ?requests ()
          else
            ( Json.Obj [],
              [ golden ^ " not found: run bench compile from the source root" ]
            ) );
      ( "store",
        "E30: cold vs warm-start questions and the snapshot fault matrix \
         (warm byte-identical with < 5% of cold's questions).",
        [ "--requests" ],
        fun ~requests ~trials:_ ~fault_requests:_ ->
          Store_bench.run ?requests () );
      ( "cluster",
        "E32: three shard processes behind the router: routed == \
         sequential bytes, ledger containment, hedging under a stopped \
         shard, kill -9 recovery.",
        [ "--requests" ],
        fun ~requests ~trials:_ ~fault_requests:_ ->
          Cluster_bench.run ?requests ~exe:Sys.executable_name () );
      ( "incomplete",
        "E33: certain \xe2\x8a\x86 exact \xe2\x8a\x86 possible on the \
         demo declarations, closed-world identity, approximate convergence, \
         zero ledger overhead.",
        [ "--requests" ],
        fun ~requests ~trials:_ ~fault_requests:_ ->
          Incomplete_bench.run ?requests () );
    ]
  in
  let doc =
    "Run one benchmark: print its report one PATH VALUE line per figure, \
     list the violated acceptance checks, and exit 1 if there are any."
  in
  let man =
    `S Manpage.s_description
    :: List.map
         (fun (name, summary, flags, _) ->
           `I
             ( name,
               Printf.sprintf "%s  Flags: -o%s." summary
                 (String.concat "" (List.map (( ^ ) ", ") flags)) ))
         benches
  in
  let bench_name =
    Arg.(
      required
      & pos 0
          (some (enum (List.map (fun (n, _, _, _) -> (n, n)) benches)))
          None
      & info [] ~docv:"NAME" ~doc:"Which benchmark (see DESCRIPTION).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Also write the report as JSON.")
  in
  let count long doc =
    Arg.(value & opt (some int) None & info [ long ] ~docv:"N" ~doc)
  in
  let requests = count "requests" "Workload size (each bench has its own default)."
  and trials = count "trials" "Timing trials, best kept (resilience, obs)."
  and fault_requests =
    count "fault-requests" "Batch size of the fault-injection run (resilience)."
  in
  let run name out requests trials fault_requests =
    let _, _, reads, bench = List.find (fun (n, _, _, _) -> n = name) benches in
    let flag_error =
      List.find_map
        (fun (flag, v) ->
          match v with
          | Some _ when not (List.mem flag reads) ->
              Some (Printf.sprintf "bench %s does not take %s" name flag)
          | Some n when n < 1 -> Some (Printf.sprintf "%s must be >= 1" flag)
          | _ -> None)
        [
          ("--requests", requests);
          ("--trials", trials);
          ("--fault-requests", fault_requests);
        ]
    in
    let usage =
      match (name, requests) with
      | "compile", Some n when n > Engine_bench.golden_e31_requests ->
          Some
            (Printf.sprintf
               "bench compile takes --requests <= %d (the frozen e31 batch)"
               Engine_bench.golden_e31_requests)
      | _ -> flag_error
    in
    match usage with
    | Some msg -> `Error (true, msg)
    | None -> (
        let report, violations = bench ~requests ~trials ~fault_requests in
        Bench_util.pp_report Format.std_formatter report;
        Option.iter
          (fun path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Json.to_string report);
                output_char oc '\n');
            Format.printf "wrote %s@." path)
          out;
        match violations with
        | [] ->
            Format.printf "bench %s: OK@." name;
            `Ok ()
        | vs ->
            List.iter (Format.eprintf "violation: %s@.") vs;
            exit 1)
  in
  Cmd.v (Cmd.info "bench" ~doc ~man)
    Term.(
      ret (const run $ bench_name $ out $ requests $ trials $ fault_requests))

let () =
  let doc = "query languages over recursive (infinite, computable) databases" in
  let info = Cmd.info "recdb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            cmd_instances;
            cmd_tree;
            cmd_classes;
            cmd_query;
            cmd_sentence;
            cmd_qlhs;
            cmd_rql;
            cmd_normalize;
            cmd_serve_batch;
            cmd_serve;
            cmd_loadgen;
            cmd_server_smoke;
            cmd_crash_test;
            cmd_bench;
            cmd_stats;
            cmd_obs_smoke;
            cmd_rql_smoke;
            cmd_store_inspect;
            cmd_store_smoke;
            cmd_shard;
            cmd_router;
            cmd_incomplete_smoke;
          ]))
