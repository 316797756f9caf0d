(* The one bench front end.  Every command runs one report through one
   path: print it one [path value] line per leaf, write it with [-o]
   (E24–E33 benches only), list the violated gates and exit 1 if there
   are any.  [paper] is the paper experiments E1–E23 (bench/paper.ml),
   the E-benches are E24–E33, and the smokes fork real servers.

     dune exec bench/main.exe                  -- the paper report
     dune exec bench/main.exe -- engine -o F   -- one E-bench (see --help)
     dune exec bench/main.exe -- server-smoke  -- one smoke

   Run from the source root: E31 reads test/golden/, and the forking
   benches spawn _build/default/bin/recdb.exe. *)

open Cmdliner

(* The one exit path of every report. *)
let finish name ?out (report, violations) =
  Bench_util.pp_report Format.std_formatter report;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string report);
          output_char oc '\n');
      Format.printf "wrote %s@." path)
    out;
  match violations with
  | [] -> Format.printf "%s: OK@." name
  | vs ->
      List.iter (Format.eprintf "violation: %s@.") vs;
      exit 1

(* A count flag: absent means the bench's own default; below 1, or
   above [max], is a usage error. *)
let count ?max long doc =
  let parse s =
    match (int_of_string_opt s, max) with
    | Some n, Some m when n > m ->
        Error (`Msg (Printf.sprintf "must be <= %d" m))
    | Some n, _ when n >= 1 -> Ok n
    | _ -> Error (`Msg "must be an integer >= 1")
  in
  Arg.(
    value
    & opt (some (conv (parse, Format.pp_print_int))) None
    & info [ long ] ~docv:"N" ~doc)

let requests =
  count "requests" "Workload size (each bench has its own default)."
let trials = count "trials" "Timing trials, best kept."

let bench name doc run =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Also write the report as JSON.")
  in
  let run_bench out run = finish name ?out (run ()) in
  Cmd.v (Cmd.info name ~doc) Term.(const run_bench $ out $ run)

(* A report that takes no flag and writes no file: the paper and the
   smokes. *)
let plain_term name run =
  let go () = finish name (run ()) in
  Term.(const go $ const ())

let plain name doc run = Cmd.v (Cmd.info name ~doc) (plain_term name run)

let paper =
  plain "paper"
    "E1–E23: every theorem, proposition and worked example of the paper, \
     each discrete claim gated at its exact value (exit 1 on any \
     difference)."
    Paper.run

let golden = "test/golden/compile_interp.jsonl"

let commands =
  [
    paper;
    bench "engine"
      "E24: LRU oracle savings on the E17 sentences (exit 1 if a cached \
       answer differs from uncached evaluation or the cache saves no raw \
       oracle call)."
      Term.(const Engine_bench.run);
    bench "resilience"
      "E25: guard overhead (reported), deadline and budget trips on \
       tree(paths3, 6), retry determinism under injected faults (exit 1 if \
       a probe does not trip with its typed error, the budget overspends, \
       or a non-faulted response changes)."
      Term.(
        const (fun requests trials fault_requests () ->
            Engine_bench.run_resilience ?requests ?trials ?fault_requests ())
        $ requests $ trials
        $ count "fault-requests" "Batch size of the fault-injection run.");
    bench "parallel"
      "E26: shared-memo pools cold and warm (exit 1 unless every measured \
       run is byte-identical to sequential, asks no more questions and \
       loses no worker)."
      Term.(
        const (fun requests () -> Engine_bench.run_parallel ?requests ())
        $ requests);
    bench "server"
      "E27: socket vs batch byte-identity, loopback throughput at 1/2/4/8 \
       connections, typed sheds at 2x the admission window."
      Term.(const (fun requests () -> Net_bench.run ?requests ()) $ requests);
    bench "obs"
      "E28: tracing overhead off / 1-in-64 / full, byte-identity with \
       tracing on, exact ledger slices, a worked budget-trip trace."
      Term.(
        const (fun requests trials () ->
            Engine_bench.run_obs ?requests ?trials ())
        $ requests $ trials);
    bench "rql"
      "E29: planned vs naive questions, warm re-serve with no new plans or \
       questions, byte-identity across planners."
      Term.(
        const (fun requests () -> Engine_bench.run_rql ?requests ())
        $ requests);
    bench "compile"
      "E31: interpreter-vs-compiled hot loops (the two gated ones >= 5x), \
       then the golden sets served compiled must reproduce the frozen \
       interpreted output in test/golden/compile_interp.jsonl (--requests \
       cuts the 200-request e31 batch)."
      Term.(
        const (fun requests () ->
            if Sys.file_exists golden then
              Engine_bench.run_compile ~golden ?requests ()
            else
              (Json.Obj [], [ golden ^ " not found: run from the source root" ]))
        $ count ~max:Engine_bench.golden_e31_requests "requests"
            "Requests of the frozen e31 batch to check.");
    bench "store"
      "E30: cold vs warm-start questions and the snapshot fault matrix \
       (warm byte-identical with < 5% of cold's questions)."
      Term.(const (fun requests () -> Store_bench.run ?requests ()) $ requests);
    bench "cluster"
      "E32: three shard processes behind the router: routed == sequential \
       bytes, ledger containment, hedging under a stopped shard, kill -9 \
       recovery."
      Term.(
        const (fun requests () ->
            Bench_util.with_recdb (fun exe ->
                Cluster_bench.run ?requests ~exe ()))
        $ requests);
    bench "incomplete"
      "E33: certain \xe2\x8a\x86 exact \xe2\x8a\x86 possible on the demo \
       declarations, closed-world identity, approximate convergence, zero \
       ledger overhead."
      Term.(
        const (fun requests () -> Incomplete_bench.run ?requests ())
        $ requests);
    plain "server-smoke"
      "A recdb serve child and a recdb router over it, each under 300 \
       requests: everything answered, no error, shed or loss, clean drains."
      Smoke.server;
    plain "obs-smoke"
      "A traced recdb serve child: well-formed /metrics, span-tree /traces, \
       clean drain."
      Smoke.obs;
    plain "rql-smoke"
      "The golden RQL request file over a socket must reproduce \
       test/golden/rql_expected.jsonl."
      Smoke.rql;
    plain "store-smoke"
      "A durable recdb serve child kill -9'd mid-load and restarted warm: \
       byte-identical answers, < 5% of the cold questions, clean drain."
      Smoke.store;
    plain "incomplete-smoke"
      "Answer modes, certificates, closed-world identity, the unknown-field \
       counter and --default-mode on two recdb serve --open-world children."
      Smoke.incomplete;
  ]

let () =
  exit
    (Cmd.eval
       (Cmd.group
          ~default:(plain_term "paper" Paper.run)
          (Cmd.info "main"
             ~doc:
               "The paper experiments E1–E23, the serving benches E24–E33 and \
                the smokes; with no command, the paper report.")
          commands))
