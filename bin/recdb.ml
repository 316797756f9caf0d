(* recdb — command-line interface to the recursive-database library.

   Subcommands:
     recdb instances                         list the built-in hs instances
     recdb tree -i rado -d 3                 print a characteristic tree
     recdb classes -t 2,1 -r 2               count ≅ₗ classes (the 68!)
     recdb query -i triangles '{(x,y) | ...}'   evaluate an FO query
     recdb sentence -i rado 'forall x. ...'  evaluate an FO sentence
     recdb normalize -t 2 -r 2 '{(x,y)|...}' L⁻ normal form (Thm 2.1)
     recdb serve-batch FILE                  JSON-lines requests -> results
     recdb serve / router / shard / loadgen  the TCP front end and the cluster
     recdb stats / store-inspect             look into a running server or a store

   Benchmarks and smokes: bench/main.exe.

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
           evaluation) with exact Def. 3.9 ledger slices, dumped as JSON \
           lines to stderr at exit (serve-batch) or served at /traces (serve, \
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
let engine_config_of_flags ~deadline_ms ~max_oracle_calls ?(decls = [])
    ?(default_mode = Request.M_exact) () =
  match (deadline_ms, max_oracle_calls, decls, default_mode) with
  | None, None, [], Request.M_exact -> None
  | _ ->
      Some
        {
          Engine.limits =
            {
              Resilience.max_oracle_calls;
              deadline_s = Option.map (fun ms -> ms /. 1000.0) deadline_ms;
            };
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
  let run file jobs metrics no_stats deadline_ms max_oracle_calls
      default_mode open_world decls trace trace_sample =
    if jobs < 1 then begin
      Format.eprintf "jobs must be >= 1@.";
      exit 1
    end;
    let ic = open_requests file in
    let config =
      engine_config_of_flags ~deadline_ms ~max_oracle_calls
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
        ( List.map (Engine.serve engine),
          (fun () -> Engine.traces engine),
          fun () -> () )
      end
      else begin
        let pool =
          Pool.create ~domains:jobs ?engine_config:config ?tracing:sampling ()
        in
        ( Pool.serve_batch pool,
          (fun () -> Pool.traces pool),
          fun () -> Pool.shutdown pool )
      end
    in
    let served = ref 0 in
    let errors = ref 0 in
    let print_response (r : Request.encoded) =
      incr served;
      if Result.is_error r.Request.result then incr errors;
      print_endline (Request.reply_line ~stats:(not no_stats) r)
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
      $ max_oracle_calls $ default_mode_flag $ open_world_flag $ decl_flags
      $ trace_flag $ trace_sample_arg)

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
      drain_timeout deadline_ms max_oracle_calls default_mode open_world
      decls metrics_port store_dir snapshot_interval port_file trace
      trace_sample =
    if window < 1 || per_conn_window < 1 || max_line < 1 then begin
      Format.eprintf "window, per-conn-window and max-line must be >= 1@.";
      exit 1
    end;
    let config =
      engine_config_of_flags ~deadline_ms ~max_oracle_calls
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
      $ default_mode_flag $ open_world_flag $ decl_flags
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
    if not l.Request.l_reachable then
      Format.printf "%s%-24s unreachable@." indent l.Request.l_node
    else
      Format.printf
        "%s%-24s %8d questions (raw %d, t_b %d, equiv %d)  cache hits %d%s%s@."
        indent l.Request.l_node l.Request.l_questions l.Request.l_raw
        l.Request.l_tb l.Request.l_equiv l.Request.l_cache_hits
        (if l.Request.l_served > 0 then
           Printf.sprintf "  served %d" l.Request.l_served
         else "")
        (if l.Request.l_hedges_fired > 0 || l.Request.l_sheds > 0 then
           Printf.sprintf "  hedges %d (wins %d)  sheds %d"
             l.Request.l_hedges_fired l.Request.l_hedge_wins
             l.Request.l_sheds
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
            cmd_stats;
            cmd_store_inspect;
            cmd_shard;
            cmd_router;
          ]))
