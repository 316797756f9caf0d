type config = {
  submit : Request.t -> (string -> unit) -> unit;
  stats : bool;
  max_line : int;
  per_conn_window : int;
}

type t = {
  cfg : config;
  fd : Unix.file_descr;
  lock : Mutex.t;
  can_read : Condition.t;  (* pending dropped below the window *)
  can_write : Condition.t;  (* queue non-empty, input done, or abort *)
  queue : string Queue.t;  (* encoded response lines *)
  mutable pending : int;  (* responses owed: queued + not yet answered *)
  mutable input_done : bool;
  mutable dead : bool;  (* write side failed: compute, account, drop *)
  mutable aborted : bool;
  mutable live_threads : int;  (* reader + writer still running *)
  mutable threads : Thread.t list;
}

type group = {
  g_lock : Mutex.t;
  mutable conns : t list;
  mutable accepted : int;
  m_connections : Metrics.counter;
  m_bad_frames : Metrics.counter;
  (* [bad_frames] totals every answered-with-an-error line (the doors'
     sheds included); these two break out the frame-level drop causes
     so a scrape can tell an oversized flood from garbage JSON. *)
  m_frames_oversized : Metrics.counter;
  m_frames_parse : Metrics.counter;
  (* Unknown top-level request fields are warn-and-count, never reject:
     a newer client talking to an older server degrades to a scrapeable
     counter instead of a hard error (the mode/budget rollout story). *)
  m_frames_unknown_field : Metrics.counter;
}

let group () =
  {
    g_lock = Mutex.create ();
    conns = [];
    accepted = 0;
    m_connections = Metrics.counter "server.connections";
    m_bad_frames = Metrics.counter "server.bad_frames";
    m_frames_oversized = Metrics.counter "server.frames_dropped_oversized";
    m_frames_parse = Metrics.counter "server.frames_parse_error";
    m_frames_unknown_field = Metrics.counter "server.frames_unknown_field";
  }

let answer ~stats ~id result =
  Request.reply_line ~stats
    (Request.encode
       {
         Request.id;
         result;
         cert = Request.Cert_exact;
         stats = Request.zero_stats;
       })

(* Called with one owed-response slot already taken (see [owe]). *)
let enqueue t line =
  Mutex.lock t.lock;
  Queue.add line t.queue;
  Condition.signal t.can_write;
  Mutex.unlock t.lock

(* Reader side: reserve an owed-response slot before a submit, so the
   writer queue's depth is bounded by [per_conn_window] and [reply]
   always finds room. *)
let owe t =
  Mutex.lock t.lock;
  t.pending <- t.pending + 1;
  Mutex.unlock t.lock

let thread_exited t =
  Mutex.lock t.lock;
  t.live_threads <- t.live_threads - 1;
  Mutex.unlock t.lock

let reader_loop (g, t) =
  let reader = Frame.reader ~max_line:t.cfg.max_line t.fd in
  let bad line =
    Metrics.incr g.m_bad_frames;
    owe t;
    enqueue t line
  in
  let parse_error id msg =
    bad (answer ~stats:t.cfg.stats ~id (Error (Request.Parse_error msg)))
  in
  let rec loop line_no =
    (* Per-connection backpressure: while a full window of responses is
       owed, stop reading the socket and let TCP push back. *)
    Mutex.lock t.lock;
    while
      t.pending >= t.cfg.per_conn_window && (not t.dead) && not t.aborted
    do
      Condition.wait t.can_read t.lock
    done;
    let stop = t.dead || t.aborted in
    Mutex.unlock t.lock;
    if stop then ()
    else
      let line_no = line_no + 1 in
      match Frame.read reader with
      | Frame.Eof -> ()
      | Frame.Truncated partial ->
          (* EOF mid-frame; answer if there were actual bytes, then the
             next read's Eof ends the loop. *)
          if String.trim partial <> "" then begin
            Metrics.incr g.m_frames_parse;
            parse_error line_no
              "truncated frame: connection closed before newline"
          end
      | Frame.Oversized n ->
          Metrics.incr g.m_frames_oversized;
          parse_error line_no
            (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
               t.cfg.max_line);
          loop line_no
      | Frame.Line line ->
          (match
             Request.decode_line ~default_id:line_no
               ~on_unknown:(fun _field ->
                 Metrics.incr g.m_frames_unknown_field)
               line
           with
          | `Empty -> ()
          | `Error resp ->
              Metrics.incr g.m_frames_parse;
              bad (Request.reply_line ~stats:t.cfg.stats resp)
          | `Request req ->
              owe t;
              t.cfg.submit req (enqueue t));
          loop line_no
  in
  loop 0;
  Mutex.lock t.lock;
  t.input_done <- true;
  Condition.signal t.can_write;
  Mutex.unlock t.lock;
  thread_exited t

let writer_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    while
      (not t.aborted)
      && Queue.is_empty t.queue
      && not (t.input_done && t.pending = 0)
    do
      Condition.wait t.can_write t.lock
    done;
    if t.aborted then Mutex.unlock t.lock
    else
      match Queue.take_opt t.queue with
      | None -> Mutex.unlock t.lock (* input done and nothing owed *)
      | Some line ->
          let dead = t.dead in
          Mutex.unlock t.lock;
          (if not dead then
             try Frame.write_line t.fd line
             with Unix.Unix_error _ | Sys_error _ ->
               (* Peer gone mid-request: from here on answers are
                  still computed and accounted, just dropped. *)
               Mutex.lock t.lock;
               t.dead <- true;
               Condition.broadcast t.can_read;
               Mutex.unlock t.lock);
          Mutex.lock t.lock;
          t.pending <- t.pending - 1;
          Condition.signal t.can_read;
          if t.input_done && t.pending = 0 then Condition.signal t.can_write;
          Mutex.unlock t.lock;
          loop ()
  in
  loop ();
  (* All owed responses are out (or dropped): close our send side so a
     half-closed client sees EOF now, not at reap time.  The fd itself
     stays open until [join]. *)
  (try Unix.shutdown t.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  thread_exited t

let finished t =
  Mutex.lock t.lock;
  let fin = t.live_threads = 0 in
  Mutex.unlock t.lock;
  fin

let join t =
  List.iter Thread.join t.threads;
  t.threads <- [];
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let serve cfg g fd =
  if cfg.per_conn_window < 1 then
    invalid_arg "Conn.serve: per_conn_window < 1";
  let t =
    {
      cfg;
      fd;
      lock = Mutex.create ();
      can_read = Condition.create ();
      can_write = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      input_done = false;
      dead = false;
      aborted = false;
      live_threads = 2;
      threads = [];
    }
  in
  t.threads <-
    [ Thread.create reader_loop (g, t); Thread.create writer_loop t ];
  Mutex.lock g.g_lock;
  g.accepted <- g.accepted + 1;
  let finished, live = List.partition finished g.conns in
  g.conns <- t :: live;
  Mutex.unlock g.g_lock;
  List.iter join finished;
  Metrics.incr g.m_connections

let accepted g =
  Mutex.lock g.g_lock;
  let n = g.accepted in
  Mutex.unlock g.g_lock;
  n

let abort t =
  Mutex.lock t.lock;
  t.aborted <- true;
  t.dead <- true;
  Condition.broadcast t.can_read;
  Condition.broadcast t.can_write;
  Mutex.unlock t.lock;
  try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let drain ~timeout_s g =
  Mutex.lock g.g_lock;
  let conns = g.conns in
  g.conns <- [];
  Mutex.unlock g.g_lock;
  List.iter
    (fun t ->
      try Unix.shutdown t.fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    conns;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    match List.filter (fun t -> not (finished t)) conns with
    | [] -> `Clean
    | stuck when Unix.gettimeofday () > deadline ->
        List.iter abort stuck;
        `Forced (List.length stuck)
    | _ ->
        Unix.sleepf 0.002;
        wait ()
  in
  let outcome = wait () in
  List.iter join conns;
  outcome
