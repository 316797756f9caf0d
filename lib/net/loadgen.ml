type report = {
  connections : int;
  sent : int;
  answered : int;
  ok : int;
  errors : int;
  shed : int;
  lost : int;
  wall_s : float;
  throughput : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
}

type conn_state = {
  fd : Unix.file_descr;
  share : int;  (* requests this connection must send *)
  offset : int;  (* global index of its first request *)
  lock : Mutex.t;
  slot_free : Condition.t;
  mutable outstanding : int;
  mutable conn_dead : bool;  (* receiver saw EOF: stop sending *)
  sends : (int, float) Hashtbl.t;  (* id -> send time *)
  hist : Obs.Histogram.t;
  (* per-connection tallies, merged after join *)
  mutable c_sent : int;
  mutable c_answered : int;
  mutable c_ok : int;
  mutable c_errors : int;
  mutable c_shed : int;
}

exception Conn_dead

let sender ~pipeline ~rate ~build st =
  let t0 = Unix.gettimeofday () in
  (try
     for k = 0 to st.share - 1 do
       let idx = st.offset + k in
       let req : Request.t = { (build idx) with Request.id = idx + 1 } in
       (match rate with
       | Some r ->
           (* open loop: send at t0 + k/r, server be damned *)
           let due = t0 +. (float_of_int k /. r) in
           let now = Unix.gettimeofday () in
           if due > now then Unix.sleepf (due -. now)
       | None ->
           (* closed loop: wait for a pipeline slot *)
           Mutex.lock st.lock;
           while st.outstanding >= pipeline && not st.conn_dead do
             Condition.wait st.slot_free st.lock
           done;
           Mutex.unlock st.lock);
       if st.conn_dead then raise Conn_dead;
       Mutex.lock st.lock;
       st.outstanding <- st.outstanding + 1;
       Hashtbl.replace st.sends req.Request.id (Unix.gettimeofday ());
       st.c_sent <- st.c_sent + 1;
       Mutex.unlock st.lock;
       Frame.write_line st.fd (Json.to_string (Request.to_json req))
     done
   with
  | Conn_dead -> ()
  | Unix.Unix_error _ | Sys_error _ ->
      (* server gone; the receiver will tally the loss *) ());
  try Unix.shutdown st.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

let receiver st =
  let reader = Frame.reader st.fd in
  let rec loop () =
    if st.c_answered < st.share then
      match Frame.read reader with
      | Frame.Eof | Frame.Truncated _ ->
          (* remaining are lost; unblock a sender waiting for a slot *)
          Mutex.lock st.lock;
          st.conn_dead <- true;
          Condition.broadcast st.slot_free;
          Mutex.unlock st.lock
      | Frame.Oversized _ -> loop ()
      | Frame.Line line ->
          (match Json.parse line with
          | Error _ -> ()
          | Ok j ->
              let id =
                match Json.member "id" j with
                | Some (Json.Int id) -> id
                | _ -> -1
              in
              Mutex.lock st.lock;
              (match Hashtbl.find_opt st.sends id with
              | Some sent_at ->
                  Hashtbl.remove st.sends id;
                  Obs.Histogram.observe st.hist (Unix.gettimeofday () -. sent_at)
              | None -> ());
              st.c_answered <- st.c_answered + 1;
              st.outstanding <- st.outstanding - 1;
              (match Json.member "ok" j with
              | Some _ -> st.c_ok <- st.c_ok + 1
              | None ->
                  let kind =
                    Option.bind (Json.member "error" j) (Json.member "kind")
                  in
                  if kind = Some (Json.String "overloaded") then
                    st.c_shed <- st.c_shed + 1
                  else st.c_errors <- st.c_errors + 1);
              Condition.signal st.slot_free;
              Mutex.unlock st.lock);
          loop ()
  in
  loop ()

let run ?(host = "127.0.0.1") ~port ?endpoints ?(connections = 4)
    ?(requests = 400) ?(pipeline = 1) ?rate ?build () =
  if connections < 1 then invalid_arg "Loadgen.run: connections < 1";
  if pipeline < 1 then invalid_arg "Loadgen.run: pipeline < 1";
  (* Multi-endpoint mode: connection [c] dials [endpoints.(c mod k)], so
     a cluster run spreads its connections round-robin over the shards
     (or routers) while every other knob stays identical — BENCH rows
     stay comparable between single-server and cluster runs. *)
  let endpoints =
    match endpoints with
    | Some [] | None -> [| (host, port) |]
    | Some eps -> Array.of_list eps
  in
  let build =
    match build with
    | Some f -> f
    | None ->
        let batch = Array.of_list (Workload.mixed requests) in
        fun i -> batch.(i mod Array.length batch)
  in
  (* A private per-run histogram (shared by this run's receiver threads),
     so successive runs — the E27 rows — never pollute each other's
     quantiles; nothing leaks into the process-wide registry. *)
  let hist = Obs.Histogram.create () in
  let addr_of c =
    let h, p = endpoints.(c mod Array.length endpoints) in
    Unix.ADDR_INET (Unix.inet_addr_of_string h, p)
  in
  let connections = max 1 (min connections requests) in
  let states =
    List.filter_map
      (fun c ->
        let share =
          (requests / connections)
          + if c < requests mod connections then 1 else 0
        in
        if share = 0 then None
        else begin
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          (try
             Unix.connect fd (addr_of c);
             Unix.setsockopt fd Unix.TCP_NODELAY true
           with e ->
             (try Unix.close fd with Unix.Unix_error _ -> ());
             raise e);
          Some
            {
              fd;
              share;
              offset = c * (requests / connections) + min c (requests mod connections);
              lock = Mutex.create ();
              slot_free = Condition.create ();
              outstanding = 0;
              conn_dead = false;
              sends = Hashtbl.create 64;
              hist;
              c_sent = 0;
              c_answered = 0;
              c_ok = 0;
              c_errors = 0;
              c_shed = 0;
            }
        end)
      (List.init connections Fun.id)
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.concat_map
      (fun st ->
        [
          Thread.create (fun () -> sender ~pipeline ~rate ~build st) ();
          Thread.create (fun () -> receiver st) ();
        ])
      states
  in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  List.iter
    (fun st -> try Unix.close st.fd with Unix.Unix_error _ -> ())
    states;
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 states in
  let sent = sum (fun st -> st.c_sent)
  and answered = sum (fun st -> st.c_answered)
  and ok = sum (fun st -> st.c_ok)
  and errors = sum (fun st -> st.c_errors)
  and shed = sum (fun st -> st.c_shed) in
  {
    connections = List.length states;
    sent;
    answered;
    ok;
    errors;
    shed;
    lost = sent - answered;
    wall_s;
    throughput = (if wall_s > 0. then float_of_int answered /. wall_s else 0.);
    p50_s = Obs.Histogram.quantile hist 0.50;
    p95_s = Obs.Histogram.quantile hist 0.95;
    p99_s = Obs.Histogram.quantile hist 0.99;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "%d conns: %d sent, %d answered (%d ok, %d errors, %d shed, %d lost) in \
     %.3fs = %.0f req/s; latency p50 %.2gms p95 %.2gms p99 %.2gms"
    r.connections r.sent r.answered r.ok r.errors r.shed r.lost r.wall_s
    r.throughput (r.p50_s *. 1e3) (r.p95_s *. 1e3) (r.p99_s *. 1e3)
