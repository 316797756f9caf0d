(* The serving benchmark: one seeded workload per invocation, served by
   real recdb processes, every response checked, one JSON result line.

     main.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off.
   --trace 1 is the separate traced run: it replays the same stream
   through each layer (in-process, with spans) and through a direct
   and a routed server, and reports the per-layer metrics.

   Run it from the repository root, after building bin/recdb.exe (the
   wrapper run.sh does both).  It writes only under .perfbench/. *)

open Gen

let now = Unix.gettimeofday

(* ---- the workloads ------------------------------------------------- *)

type topology = Direct | Routed | Durable

(* Open-loop offered rates, lowest first; latency is reported at
   [report_rate], and max_rate_rps is the highest rate whose p99 meets
   [limit_ms]. *)
type ladder = { rates : float list; report_rate : float; limit_ms : float }

type config = {
  topology : topology;
  ladder : ladder option;  (** the open-loop rates of the traced run *)
  max_rps : float;  (** sizes a timed stream: a ceiling on closed-loop rate *)
  nominal_rps : float;  (** sizes the end-to-end window in requests *)
}

(* The end-to-end figures come from one closed-loop connection: on a
   small shared virtual host, open-loop latency at a few thousand
   requests per second swings several-fold between runs with how fast
   an idle CPU is woken, and two closed-loop clients queue behind each
   other on a one-worker server (through the router, on whichever shard
   the ring gives both), which no per-run median removes.  The open-loop
   ladder (rates stated in BENCHMARK.json) runs in the traced run, over
   [ladder_conns] connections, and reports max_rate_rps and open-loop
   latency as per-layer figures. *)
let ladder_conns = 2

let hot_ladder = Some { rates = [ 1000.; 2000.; 4000.; 8000. ]; report_rate = 2000.; limit_ms = 20. }

let config = function
  | Cold_mix -> { topology = Direct; ladder = None; max_rps = 12_000.; nominal_rps = 3_200. }
  | Hot_zipf -> { topology = Direct; ladder = hot_ladder; max_rps = 50_000.; nominal_rps = 13_000. }
  | Routed_zipf ->
      { topology = Routed; ladder = hot_ladder; max_rps = 50_000.; nominal_rps = 6_500. }
  | Durable_mix ->
      { topology = Durable; ladder = None; max_rps = 12_000.; nominal_rps = 3_200. }

(* How many set-ups a run measures (setup_s is their median). *)
let setups = 9

(* Ids: warm-up lines count from 1, the stats op uses its own range,
   timed lines count from [timed_base]. *)
let timed_base = 1_000_000
let stats_id = ref 900_000

let next_stats_id () =
  incr stats_id;
  !stats_id

(* ---- topologies ---------------------------------------------------- *)

type servers = {
  entry : Procs.child;  (** where the load generator connects *)
  procs : Procs.child list;  (** every server process, for CPU and RSS *)
}

let serve_args = [ "serve"; "--port"; "0"; "-j"; "1"; "--metrics-port"; "0" ]

let start ~tag ?store topology =
  match topology with
  | Direct ->
      let s = Procs.spawn ~name:(tag ^ "-serve") serve_args in
      { entry = s; procs = [ s ] }
  | Durable ->
      let dir = Option.get store in
      let s =
        Procs.spawn ~name:(tag ^ "-serve")
          (serve_args @ [ "--store"; dir; "--snapshot-interval"; "1" ])
      in
      { entry = s; procs = [ s ] }
  | Routed ->
      let shard i =
        Procs.spawn ~name:(Printf.sprintf "%s-shard%d" tag i)
          [ "serve"; "--port"; "0"; "-j"; "1" ]
      in
      let a = shard 0 and b = shard 1 in
      let ep (c : Procs.child) = Printf.sprintf "127.0.0.1:%d" c.Procs.port in
      let r =
        Procs.spawn ~name:(tag ^ "-router")
          [ "router"; "--port"; "0"; "--shard"; ep a; "--shard"; ep b ]
      in
      { entry = r; procs = [ r; a; b ] }

let stop s = List.iter (fun c -> Procs.stop c) s.procs

(* Ready means answering: a stats round trip, then the warm-up lines in
   order on one connection. *)
let warm_up s lines =
  let c = Procs.open_line_conn s.entry.Procs.port in
  ignore (Procs.ledger c ~id:(next_stats_id ()));
  Array.iter (fun l -> ignore (Procs.exchange c l)) lines;
  c

(* ---- response checking -------------------------------------------- *)

(* A served response line, split into its deterministic part with the id
   normalized to 0 (comparable with the reference) and its questions. *)
let split_response line =
  let key = ",\"stats\":{" in
  let kl = String.length key in
  let rec find i =
    if i < 0 then None
    else if String.sub line i kl = key then Some i
    else find (i - 1)
  in
  let body, questions =
    match find (String.length line - kl) with
    | None -> (line, 0)
    | Some i ->
        let stats = String.sub line (i + 9) (String.length line - i - 10) in
        let q =
          match Json.parse stats with
          | Ok j ->
              let f k = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int) in
              f "oracle_calls" + f "tb_calls" + f "equiv_calls"
          | Error _ -> 0
        in
        (String.sub line 0 i ^ "}", q)
  in
  let body =
    match String.index_opt body ',' with
    | Some i when String.length body > 6 && String.sub body 0 6 = "{\"id\":" ->
        "{\"id\":0" ^ String.sub body i (String.length body - i)
    | _ -> body
  in
  (body, questions)

(* The sequential reference: one fresh private engine answering each
   distinct payload once.  Responses are a deterministic function of
   the payload, so this is Engine.handle_all over the stream. *)
let reference () =
  let engine = Engine.create () in
  let memo = Hashtbl.create 4096 in
  fun p ->
    let k = Gen.line ~id:0 p in
    match Hashtbl.find_opt memo k with
    | Some v -> v
    | None ->
        let r = List.hd (Engine.handle_all engine [ Request.make ~id:0 p ]) in
        let v = Json.to_string (Request.response_to_json ~stats:false r) in
        Hashtbl.add memo k v;
        v

let is_error body =
  let k = "\"error\":" in
  let n = String.length k in
  let rec go i = i + n <= String.length body && (String.sub body i n = k || go (i + 1)) in
  go 0

type check = {
  answered : int;
  ok : int;  (** answered, no typed error, bytes equal the reference *)
  errors : int;
  mismatches : int;
  questions : int array;  (** per request, from each response's stats *)
}

let check_run ~reference ~payloads ~first (run : Loadgen.run) =
  let ok = ref 0 and errors = ref 0 and mism = ref 0 and ans = ref 0 in
  let questions =
    Array.mapi
      (fun i (s : Loadgen.sample) ->
        if s.Loadgen.recv = 0. then 0
        else begin
          incr ans;
          let body, qs = split_response s.Loadgen.resp in
          if body <> reference payloads.(first + i) then incr mism
          else if is_error body then incr errors
          else incr ok;
          qs
        end)
      run.Loadgen.samples
  in
  { answered = !ans; ok = !ok; errors = !errors; mismatches = !mism; questions }

let total_questions c = Array.fold_left ( + ) 0 c.questions

(* Questions per request over the first [questions_prefix] timed
   requests: on a single closed-loop connection the server sees them in
   stream order, so for a given seed this repeats exactly run to run. *)
let questions_prefix = 2000

let questions_per_req checked =
  let q = Array.concat (List.map (fun (_, c) -> c.questions) checked) in
  let n = min questions_prefix (Array.length q) in
  float_of_int (Array.fold_left ( + ) 0 (Array.sub q 0 n)) /. float_of_int (max 1 n)

(* ---- statistics ----------------------------------------------------- *)

let median = Layers.median

let quantile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let latencies_ms (run : Loadgen.run) =
  Array.of_list
    (List.filter_map
       (fun (s : Loadgen.sample) ->
         if s.Loadgen.recv > 0. then Some (1000. *. Loadgen.latency s) else None)
       (Array.to_list run.Loadgen.samples))

(* ---- output ------------------------------------------------------- *)

let metric name value unit = (name, value, unit)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let metrics_json ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (json_float v) u)
         ms)
  ^ "}"

let floats_json a = "[" ^ String.concat "," (List.map json_float (Array.to_list a)) ^ "]"

let commit () =
  (* the checkout may not be a git repository; never look above it *)
  let read f = try Some (String.trim (In_channel.with_open_text f In_channel.input_all)) with _ -> None in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
      match read (Filename.concat ".git" (String.sub h 5 (String.length h - 5))) with
      | Some c -> c
      | None -> "unknown")
  | Some c -> c
  | None -> "unknown"

let host_json ~workload ~seed ~seconds ~trace ~digest =
  Printf.sprintf
    "{\"nproc\":%d,\"ocaml\":%S,\"commit\":%S,\"workload\":%S,\"seed\":%d,\"seconds\":%d,\"trace\":%d,\"stream_digest\":%S}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ()) workload seed seconds trace digest

let write_result ~name body =
  let dir = Filename.concat Procs.work_dir "out" in
  Procs.mkdir_p dir;
  Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
      output_string oc body;
      output_char oc '\n')

(* ---- the end-to-end run ------------------------------------------- *)

(* One stretch of the timed window: [For (rate, s)] serves for [s]
   seconds, closed loop ([rate] None) or offered at [rate]; [Count n]
   serves the next [n] requests closed loop. *)
type stretch = For of float option * float | Count of int

(* A served stretch, with the server CPU it cost. *)
type slice = { rate : float option; run : Loadgen.run; cpu_s : float }

type served = {
  slices : slice list;  (** in serving order *)
  steal_s : float;  (** host CPU steal over the timed window, all CPUs *)
  rss_mb : float;
  ledger_questions : int;  (** stats-op delta over the timed window *)
  setup_s : float array;
  metrics_scrape : (string * float) list;
}

let fresh_store_dir tag =
  let d = Filename.concat Procs.tmp_dir (tag ^ "-store") in
  Procs.rm_rf d;
  d

(* The timed window as stretches.  The end-to-end window is sized in
   requests, [seconds] at the workload's nominal rate, cut into
   [closed_slices] equal slices: every run of a seed serves the same
   requests in the same slices however fast the host is that day, so
   memo growth, heap size and peak RSS do not follow the host's speed.
   A slow host stretches the run, up to [closed_cap] times [seconds];
   slices that would start after that are not served.  Closed-loop
   figures are interquartile means over the slices
   ([interquartile_mean]).

   An open-loop ladder runs [rounds] rungs of equal length at each rate,
   lowest rate first, so that an overloaded rung (whose backlog and heap
   growth linger) comes after every measurement at the rates below it.
   Its figures are medians over rounds. *)
let closed_slices = 16
let closed_cap = 1.5

let closed_plan ~cfg seconds =
  let n = int_of_float (Float.ceil (cfg.nominal_rps *. seconds /. float_of_int closed_slices)) in
  List.init closed_slices (fun _ -> Count n)

let ladder_plan l ~rounds seconds =
  let rung = seconds /. float_of_int (rounds * List.length l.rates) in
  List.concat_map (fun r -> List.init rounds (fun _ -> For (Some r, rung))) l.rates

let timed_line stream i = Gen.line ~id:(timed_base + i) stream.timed.(i)

(* Set up [n_setups] times (the last set-up stays up), then serve the
   timed lines stretch by stretch. *)
let serve_workload ?(conns = 1) ?(cap = infinity) ~w ~cfg ~stream ~stretches ~n_setups () =
  let tag = workload_name w in
  let store = if cfg.topology = Durable then Some (fresh_store_dir tag) else None in
  let warm_payloads = if cfg.topology = Durable then touch_instances () else stream.warm in
  let warm_lines = lines ~base:1 warm_payloads in
  (* A durable server restarts on a store populated by a first server
     that served the populate stream and drained (final snapshot). *)
  (if cfg.topology = Durable then
     let s = start ~tag:(tag ^ "-populate") ?store cfg.topology in
     let c = warm_up s (lines ~base:1 stream.warm) in
     Procs.close_line_conn c;
     stop s);
  let setup_s = Array.make n_setups 0. in
  let rec set_up i =
    let t0 = now () in
    let s = start ~tag ?store cfg.topology in
    let c = warm_up s warm_lines in
    setup_s.(i) <- now () -. t0;
    if i + 1 < n_setups then begin
      Procs.close_line_conn c;
      stop s;
      set_up (i + 1)
    end
    else (s, c)
  in
  let s, ctl = set_up 0 in
  Fun.protect ~finally:(fun () -> Procs.close_line_conn ctl; stop s) @@ fun () ->
  let led0 = Procs.ledger ctl ~id:(next_stats_id ()) in
  let conns = List.init conns (fun _ -> Loadgen.connect s.entry.Procs.port) in
  let cpu () = List.fold_left (fun a c -> a +. Procs.cpu_s c.Procs.pid) 0. s.procs in
  let first = ref 0 in
  let steal0 = Procs.steal_s () in
  (* [Count] stretches share the time left of [cap] seconds *)
  let deadline = now () +. cap in
  let rec serve acc = function
    | [] -> List.rev acc
    | st :: rest ->
        let rate, seconds, count =
          match st with
          | For (rate, seconds) -> (rate, seconds, Array.length stream.timed)
          | Count n -> (None, deadline -. now (), min (Array.length stream.timed) (!first + n))
        in
        if seconds <= 0. then List.rev acc
        else begin
          let mode = match rate with None -> Loadgen.Closed | Some r -> Loadgen.Open r in
          let c0 = cpu () in
          let run =
            Loadgen.drive ~conns ~line:(timed_line stream) ~count ~base:timed_base ~first:!first
              ~mode ~seconds ~drain_s:30.
          in
          first := !first + run.Loadgen.attempted;
          serve ({ rate; run; cpu_s = cpu () -. c0 } :: acc) rest
        end
  in
  let slices = serve [] stretches in
  let steal_s = Procs.steal_s () -. steal0 in
  List.iter Loadgen.close conns;
  let led1 = Procs.ledger ctl ~id:(next_stats_id ()) in
  let rss = List.fold_left (fun a c -> a +. Procs.vm_hwm_mb c.Procs.pid) 0. s.procs in
  let scrape =
    match s.entry.Procs.metrics_port with Some p -> Procs.scrape p | None -> []
  in
  {
    slices;
    steal_s;
    rss_mb = rss;
    ledger_questions = led1.Request.l_questions - led0.Request.l_questions;
    setup_s;
    metrics_scrape = scrape;
  }

(* Check every slice's responses; [first] offsets follow the slices. *)
let check_all ~reference ~payloads slices =
  let first = ref 0 in
  List.map
    (fun sl ->
      let c = check_run ~reference ~payloads ~first:!first sl.run in
      first := !first + sl.run.Loadgen.attempted;
      (sl, c))
    slices

let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let medians f l = median (Array.of_list (List.map f l))

let failures checked =
  sum (fun (sl, c) -> sl.run.Loadgen.lost + c.errors + c.mismatches) checked

(* Timed-stream length: enough lines for the fastest plausible run. *)
let stream_len ~cfg stretches =
  List.fold_left
    (fun a -> function
      | For (rate, d) -> a + int_of_float (Float.ceil (Option.value ~default:cfg.max_rps rate *. d)) + 1
      | Count n -> a + n)
    0 stretches

let slice_rate (sl, c) = float_of_int c.ok /. sl.run.Loadgen.window_s
let slice_q p (sl, _) = quantile (latencies_ms sl.run) p

let slice_cpu_ms (sl, c) = 1000. *. sl.cpu_s /. float_of_int (max 1 c.answered)

(* A closed-loop figure over its slices: their interquartile mean, the
   mean of the middle half.  On a shared virtual host, other guests'
   load slows a stretch of seconds down (CPU steal, a busy sibling
   hyperthread) and an idle neighbour speeds one up; dropping the
   quarter at each end keeps both out, and averaging the middle half
   is steadier than a single middle slice. *)
let interquartile_mean f l =
  let a = Array.of_list (List.map f l) in
  Array.sort compare a;
  let n = Array.length a in
  let k = n / 4 in
  Layers.mean (Array.sub a k (n - (2 * k)))

(* The open-loop figures: max rate, latency at the report rate, and the
   generator's lateness.  The max rate is the achieved rate at the
   highest offered rate whose median-over-rounds p99 meets the limit
   with nothing lost (the lowest rate's, if none does). *)
let ladder_figures l checked =
  let at r = List.filter (fun (sl, _) -> sl.rate = Some r) checked in
  let clean = List.for_all (fun (sl, c) -> sl.run.Loadgen.lost = 0 && c.ok = sl.run.Loadgen.attempted) in
  let passing =
    List.filter (fun r -> medians (slice_q 0.99) (at r) <= l.limit_ms && clean (at r)) l.rates
  in
  let top = List.fold_left Float.max (List.hd l.rates) passing in
  let report = at l.report_rate in
  let late =
    Array.concat
      (List.map (fun (sl, _) -> Array.map (fun s -> 1000. *. Loadgen.lateness s) sl.run.Loadgen.samples) checked)
  in
  (medians slice_rate (at top), medians (slice_q 0.5) report, medians (slice_q 0.99) report, quantile late 0.99)

(* The per-slice figures behind every median, for the result file. *)
let slices_json checked =
  String.concat ","
    (List.map
       (fun ((sl, c) as x) ->
         Printf.sprintf
           "{\"offered_rps\":%s,\"attempted\":%d,\"ok\":%d,\"lost\":%d,\"errors\":%d,\"mismatches\":%d,\"window_s\":%s,\"cpu_s\":%s,\"rate_rps\":%s,\"p50_ms\":%s,\"p99_ms\":%s}"
           (match sl.rate with Some x -> json_float x | None -> "null")
           sl.run.Loadgen.attempted c.ok sl.run.Loadgen.lost c.errors c.mismatches
           (json_float sl.run.Loadgen.window_s) (json_float sl.cpu_s) (json_float (slice_rate x))
           (json_float (slice_q 0.5 x)) (json_float (slice_q 0.99 x)))
       checked)

let end_to_end ~w ~seed ~seconds =
  let cfg = config w in
  let stretches = closed_plan ~cfg (float_of_int seconds) in
  let stream = Gen.stream w ~seed ~n:(stream_len ~cfg stretches) in
  let digest = Gen.digest (Array.append stream.warm (Array.sub stream.timed 0 1000)) in
  let sv =
    serve_workload ~cap:(closed_cap *. float_of_int seconds) ~w ~cfg ~stream ~stretches
      ~n_setups:setups ()
  in
  let reference = reference () in
  let checked = check_all ~reference ~payloads:stream.timed sv.slices in
  let attempted = sum (fun (sl, _) -> sl.run.Loadgen.attempted) checked in
  let answered = sum (fun (_, c) -> c.answered) checked in
  let ok = sum (fun (_, c) -> c.ok) checked in
  let failed = failures checked in
  let served_questions = sum (fun (_, c) -> total_questions c) checked in
  let ledger_ok = served_questions = sv.ledger_questions in
  let metrics =
    [
      metric "throughput_rps" (interquartile_mean slice_rate checked) "1/s";
      metric "latency_p50_ms" (interquartile_mean (slice_q 0.5) checked) "ms";
      metric "cpu_ms_per_req" (interquartile_mean slice_cpu_ms checked) "ms";
      metric "peak_rss_mb" sv.rss_mb "MB";
      metric "setup_s" (median sv.setup_s) "s";
    ]
  in
  let extra =
    [
      metric "latency_p99_ms" (medians (slice_q 0.99) checked) "ms";
      metric "questions_per_req" (questions_per_req checked) "count";
      metric "failed_frac" (float_of_int failed /. float_of_int (max 1 attempted)) "frac";
    ]
  in
  let correct = failed = 0 && ledger_ok in
  List.iter
    (fun (n, v, u) -> Printf.eprintf "  %-22s %14.4f %s\n" n v u)
    (metrics @ extra);
  Printf.eprintf "  attempted %d answered %d ok %d failed %d ledger %d vs responses %d%s\n%!"
    attempted answered ok failed sv.ledger_questions served_questions
    (if ledger_ok then "" else "  LEDGER MISMATCH");
  write_result
    ~name:(Printf.sprintf "%s-seed%d-trace0.json" (workload_name w) seed)
    (Printf.sprintf
       "{\"host\":%s,\"metrics\":%s,\"checks\":%s,\"samples\":{\"setup_s\":%s,\"slices\":[%s]}}"
       (host_json ~workload:(workload_name w) ~seed ~seconds ~trace:0 ~digest)
       (metrics_json (metrics @ extra))
       (metrics_json [ metric "ledger_questions" (float_of_int sv.ledger_questions) "count";
                       metric "response_questions" (float_of_int served_questions) "count";
                       metric "host_steal_s" sv.steal_s "s" ])
       (floats_json sv.setup_s) (slices_json checked));
  (correct, attempted, failed, metrics)

(* ---- the traced run ----------------------------------------------- *)

let rt_s (run : Loadgen.run) =
  Array.of_list
    (List.filter_map
       (fun (s : Loadgen.sample) ->
         if s.Loadgen.recv > 0. then Some (s.Loadgen.recv -. s.Loadgen.sent) else None)
       (Array.to_list run.Loadgen.samples))

(* The spans file keeps the first [spans_kept] timed requests' spans
   (and the request-free ones): enough to read a request's layers
   without writing megabytes per run. *)
let spans_kept = 1000

let traced ~w ~seed ~seconds =
  let cfg = config w in
  let probe_s = Float.max 1. (float_of_int seconds /. 4.) in
  let ladder_stretches =
    match cfg.ladder with
    | Some l -> ladder_plan l ~rounds:3 (float_of_int seconds *. 0.75)
    | None -> []
  in
  let stream =
    Gen.stream w ~seed
      ~n:(max (stream_len ~cfg [ For (None, probe_s) ]) (stream_len ~cfg ladder_stretches))
  in
  let digest = Gen.digest (Array.append stream.warm (Array.sub stream.timed 0 1000)) in
  let reference = reference () in
  (* 1. The workload's own server(s) (direct, durable — a routed
     workload is probed direct here and routed below), one closed-loop
     connection: per-request socket round trips, the /metrics scrape,
     the ledger gate. *)
  let direct_topology = if cfg.topology = Routed then Direct else cfg.topology in
  let direct =
    serve_workload ~w ~cfg:{ cfg with topology = direct_topology } ~stream
      ~stretches:[ For (None, probe_s) ] ~n_setups:1 ()
  in
  let direct_run = (List.hd direct.slices).run in
  let n = direct_run.Loadgen.attempted in
  let timed = Array.sub stream.timed 0 n in
  let dcheck = check_run ~reference ~payloads:stream.timed ~first:0 direct_run in
  (* 2. Open-loop workloads: the rate ladder on the workload's own
     topology. *)
  let max_rate, open_p50, open_p99, late_ms, ladder_failed, ladder_slices =
    match cfg.ladder with
    | None -> (0., 0., 0., 0., 0, "")
    | Some l ->
        let o =
          serve_workload ~conns:ladder_conns ~w ~cfg ~stream ~stretches:ladder_stretches
            ~n_setups:1 ()
        in
        let checked = check_all ~reference ~payloads:stream.timed o.slices in
        let mr, p50, p99, late = ladder_figures l checked in
        (mr, p50, p99, late, failures checked, slices_json checked)
  in
  (* 3. The same requests through an in-process router over two real
     shards: routed round trips and the router's counters. *)
  let shards =
    List.init 2 (fun i ->
        Procs.spawn ~name:(Printf.sprintf "trace-shard%d" i) [ "serve"; "--port"; "0"; "-j"; "1" ])
  in
  let router =
    Router.start ~port:0 ~shards:(List.map (fun (c : Procs.child) -> ("127.0.0.1", c.Procs.port)) shards) ()
  in
  let routed_run, counters, shard_share =
    Fun.protect ~finally:(fun () ->
        ignore (Router.drain ~timeout_s:10. router);
        List.iter (fun c -> Procs.stop c) shards)
    @@ fun () ->
    let s = { entry = { (List.hd shards) with Procs.port = Router.port router }; procs = [] } in
    let c = warm_up s (lines ~base:1 stream.warm) in
    Procs.close_line_conn c;
    let conn = Loadgen.connect (Router.port router) in
    let run =
      Loadgen.drive ~conns:[ conn ] ~line:(timed_line stream) ~count:n ~base:timed_base
        ~first:0 ~mode:Loadgen.Closed ~seconds:3600. ~drain_s:30.
    in
    Loadgen.close conn;
    let _, per_shard = Router.merged_ledger router in
    let served = List.map (fun (l : Request.ledger) -> float_of_int l.Request.l_served) per_shard in
    let total = List.fold_left ( +. ) 0. served in
    let share = if total = 0. then 0. else List.fold_left Float.max 0. served /. total in
    (run, Router.counters router, share)
  in
  let rcheck = check_run ~reference ~payloads:stream.timed ~first:0 routed_run in
  (* 4. In-process replays. *)
  let warm =
    if cfg.topology = Durable then Array.append stream.warm (touch_instances ()) else stream.warm
  in
  let dir = fresh_store_dir "trace" in
  let t_traced = now () in
  let tr = Layers.traced_replay ~warm ~timed ~base:timed_base ~dir in
  let t_traced = now () -. t_traced in
  let plain = Layers.plain_replay ~warm ~timed ~base:timed_base in
  let pool_rt = Layers.pool_round_trips ~warm ~timed ~base:timed_base in
  let rql_parse, rql_plan, rql_prep = Layers.rql_phases ~timed ~base:timed_base in
  let load_s, loaded = Layers.store_load ~dir in
  let replay_mismatch =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun i (r : Request.response) ->
           let body = Json.to_string (Request.response_to_json ~stats:false { r with Request.id = 0 }) in
           if body = reference timed.(i) then 0 else 1)
         tr.Layers.responses)
  in
  let us = 1e6 in
  let per_req x = x /. float_of_int (max 1 n) in
  let self name = Option.value ~default:0. (Hashtbl.find_opt tr.Layers.engine_self name) in
  let raw, tb, eq = tr.Layers.ledger_delta in
  let (m0 : Shared_memo.stats), m1 = tr.Layers.memo in
  let memo_ratio (f : Shared_memo.stats -> Shared_memo.table_stats) =
    Layers.ratio ((f m1).Shared_memo.hits - (f m0).Shared_memo.hits)
      ((f m1).Shared_memo.misses - (f m0).Shared_memo.misses)
  in
  let (c0 : Oracle_cache.stats), c1 = tr.Layers.cache in
  let diff a b = Array.mapi (fun i x -> x -. b.(i)) a in
  let direct_rt = rt_s direct_run in
  let wire =
    Array.mapi (fun i x -> x -. plain.(i) -. tr.Layers.encode_s.(i)) (Array.sub direct_rt 0 (min n (Array.length direct_rt)))
  in
  let snaps = tr.Layers.snapshots in
  let final_bytes = (List.nth snaps (List.length snaps - 1)).Store.bytes_written in
  let written = List.fold_left (fun a (r : Store.snapshot_report) -> a + r.Store.bytes_written) 0 snaps in
  let scrape k = Option.value ~default:0. (List.assoc_opt k direct.metrics_scrape) in
  let plain_total = Array.fold_left ( +. ) 0. plain in
  let traced_total = Array.fold_left ( +. ) 0. tr.Layers.traced_handle_s in
  let failed = direct_run.Loadgen.lost + dcheck.errors + dcheck.mismatches in
  let metrics =
    [
      metric "request.decode_us" (us *. median tr.Layers.decode_s) "us";
      metric "request.encode_us" (us *. median tr.Layers.encode_s) "us";
      metric "request.response_bytes" (Layers.mean tr.Layers.bytes) "bytes";
      metric "engine.handle_us" (us *. median plain) "us";
      metric "engine.parse_us" (us *. per_req (self "parse")) "us";
      metric "engine.plan_us" (us *. per_req (self "plan")) "us";
      metric "engine.compile_us" (us *. per_req (self "compile")) "us";
      metric "engine.eval_us" (us *. per_req (self "attempt")) "us";
      metric "engine.questions.raw" (per_req (float_of_int raw)) "count";
      metric "engine.questions.tb" (per_req (float_of_int tb)) "count";
      metric "engine.questions.equiv" (per_req (float_of_int eq)) "count";
      metric "shared_memo.results.hit_ratio" (memo_ratio (fun s -> s.Shared_memo.results)) "ratio";
      metric "shared_memo.plans.hit_ratio" (memo_ratio (fun s -> s.Shared_memo.plans)) "ratio";
      metric "shared_memo.equiv.hit_ratio" (memo_ratio (fun s -> s.Shared_memo.equiv)) "ratio";
      metric "shared_memo.children.hit_ratio" (memo_ratio (fun s -> s.Shared_memo.children)) "ratio";
      metric "shared_memo.rql_defs.hit_ratio" (memo_ratio (fun s -> s.Shared_memo.rql_defs)) "ratio";
      metric "oracle_cache.hit_ratio"
        (Layers.ratio (c1.Oracle_cache.hits - c0.Oracle_cache.hits) (c1.Oracle_cache.misses - c0.Oracle_cache.misses))
        "ratio";
      metric "oracle_cache.evictions" (float_of_int (c1.Oracle_cache.evictions - c0.Oracle_cache.evictions)) "count";
      metric "rql.parse_us" (us *. median rql_parse) "us";
      metric "rql.plan_us" (us *. median rql_plan) "us";
      metric "rql.prepare_us" (us *. median rql_prep) "us";
      metric "pool.handoff_us" (us *. median (diff pool_rt plain)) "us";
      metric "net.wire_us" (us *. median wire) "us";
      metric "net.admitted" (scrape "admission_admitted_total") "count";
      metric "net.shed" (scrape "admission_shed_total") "count";
      metric "net.high_water" (scrape "admission_high_water") "count";
      metric "router.hop_us" (us *. (median (rt_s routed_run) -. median direct_rt)) "us";
      metric "router.hedges_fired" (float_of_int counters.Router.hedges_fired) "count";
      metric "router.failovers" (float_of_int counters.Router.failovers) "count";
      metric "router.sheds" (float_of_int counters.Router.sheds) "count";
      metric "router.max_shard_share" shard_share "ratio";
      metric "store.load_s" load_s "s";
      metric "store.entries_loaded" (float_of_int loaded) "count";
      metric "store.snapshot_s"
        (median (Array.of_list (List.map (fun (r : Store.snapshot_report) -> r.Store.snapshot_wall_s) snaps)))
        "s";
      metric "store.snapshot_bytes" (float_of_int final_bytes) "bytes";
      metric "store.write_amp" (float_of_int written /. float_of_int (max 1 final_bytes)) "ratio";
      metric "store.journal_admit_us" (us *. median tr.Layers.journal_s) "us";
      metric "obs.trace_overhead_frac" ((traced_total -. plain_total) /. plain_total) "frac";
      metric "max_rate_rps" max_rate "1/s";
      metric "open.latency_p50_ms" open_p50 "ms";
      metric "open.latency_p99_ms" open_p99 "ms";
      metric "gen.late_ms_p99" late_ms "ms";
      metric "questions_per_req" (questions_per_req [ ((), dcheck) ]) "count";
      metric "failed_frac" (float_of_int failed /. float_of_int (max 1 n)) "frac";
    ]
  in
  let correct =
    failed = 0 && ladder_failed = 0
    && total_questions dcheck = direct.ledger_questions
    && routed_run.Loadgen.lost + rcheck.errors + rcheck.mismatches = 0
    && replay_mismatch = 0 && tr.Layers.slices_exact
  in
  List.iter (fun (nm, v, u) -> Printf.eprintf "  %-32s %14.4f %s\n" nm v u) metrics;
  Printf.eprintf
    "  requests %d  direct failed %d  routed failed %d  replay mismatches %d  slices exact %b  traced replay %.2fs\n%!"
    n failed (routed_run.Loadgen.lost + rcheck.errors + rcheck.mismatches) replay_mismatch
    tr.Layers.slices_exact t_traced;
  let out = Filename.concat Procs.work_dir "out" in
  Procs.mkdir_p out;
  Out_channel.with_open_text
    (Filename.concat out (Printf.sprintf "%s-seed%d-spans.jsonl" (workload_name w) seed))
    (fun oc ->
      List.iter
        (fun (s : Layers.span) ->
          if s.Layers.req < timed_base + spans_kept then begin
            output_string oc (Layers.span_to_json s);
            output_char oc '\n'
          end)
        (List.rev !Layers.spans));
  write_result
    ~name:(Printf.sprintf "%s-seed%d-trace1.json" (workload_name w) seed)
    (Printf.sprintf "{\"host\":%s,\"metrics\":%s,\"samples\":{\"ladder_slices\":[%s]}}"
       (host_json ~workload:(workload_name w) ~seed ~seconds ~trace:1 ~digest)
       (metrics_json metrics) ladder_slices);
  (correct, n, failed + (if correct then 0 else 1), metrics)

(* ---- command line ------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W cold_mix|hot_zipf|routed_zipf|durable_mix");
      ("--seed", Arg.Set_int seed, "N stream seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match workload_of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if not (Sys.file_exists Procs.recdb) then begin
    prerr_endline ("missing " ^ Procs.recdb ^ " (build it first)");
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* The generator keeps every response until the run is checked; a
     large minor heap and a lazy major GC keep its collection pauses out
     of the measured latencies. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; space_overhead = 400 };
  Printf.eprintf "perfbench %s seed %d, %ds, trace %d\n%!" !workload !seed !seconds !trace;
  let result =
    try
      Ok
        (if !trace = 1 then traced ~w ~seed:!seed ~seconds:!seconds
         else end_to_end ~w ~seed:!seed ~seconds:!seconds)
    with e -> Error (Printexc.to_string e)
  in
  Procs.stop_all ();
  Procs.rm_rf Procs.tmp_dir;
  match result with
  | Error e ->
      prerr_endline ("perfbench: " ^ e);
      exit 1
  | Ok (correct, attempted, failed, metrics) ->
      Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!"
        correct (max 1 attempted) failed (metrics_json metrics);
      if not correct then exit 1
