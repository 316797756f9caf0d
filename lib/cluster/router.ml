(* The cluster front door.  One process, no engine, no questions:
   requests are consistent-hashed onto worker shards over the same
   JSON-lines ABI the shards speak to everyone else, and responses
   stream back byte-identical except for the id prefix.

   Invariants this file lives by:

   - {b The router cannot change the ledger.}  It never evaluates a
     payload: every Def. 3.9 question is asked by a shard engine.
     Routing decisions, hedges and sheds are question-free, so the
     merged cluster ledger is exactly the sum of what the shards
     honestly report.

   - {b Byte identity by surgery, not re-serialization.}  A shard
     response line always begins [{"id":<int>] (Request.response_to_json
     puts the id first); the router substitutes the client's original
     id back into that prefix and forwards the rest of the bytes
     untouched.  Routed answers are byte-identical to direct answers
     by construction, which E32 asserts.

   - {b Colocation by question scope.}  The hash key is the request's
     instance when it has one (questions are instance-scoped — spreading
     one instance's ops over shards would re-ask T_B/≅_B questions once
     per shard and inflate the cluster ledger), and the op name for
     instance-less requests.

   - {b A dead shard is a typed error, never a dead router.}  SIGPIPE
     is ignored process-wide (Frame.ignore_sigpipe); a write or read
     failure on a shard connection fails over to the ring sibling and,
     when every shard has been tried, surfaces as a typed
     [Oracle_unavailable] — while the supervisor respawns the shard on
     its old port and the router's reconnect loop finds it again. *)

type upstream = {
  u_host : string;
  u_port : int;
  u_name : string;  (* "host:port": the ring node and the error label *)
  u_admission : Admission.t;
  u_wlock : Mutex.t;  (* serializes writes to u_fd *)
  mutable u_fd : Unix.file_descr option;
  mutable u_gen : int;  (* bumped per (re)connect; stamps pendings *)
  mutable u_thread : Thread.t option;
}

type flight = {
  f_reply : string -> unit;  (* the client connection's answer slot *)
  f_orig_id : int;
  f_payload : Request.payload;
  f_mode : Request.mode option;
      (* the client's answering mode travels with the flight so the
         re-encoded upstream line carries the byte the client sent —
         the shard, not the router, resolves and answers it *)
  f_key : string;
  f_sent_at : float;
  mutable f_done : bool;
  mutable f_hedged : bool;
  mutable f_attempts : int;  (* sends so far, hedges included *)
  mutable f_tried : string list;  (* upstream names, newest first *)
  mutable f_hedge_uid : int;  (* -1 until hedged *)
}

type pending = { p_flight : flight; p_up : upstream; p_gen : int }

type t = {
  listener : Listener.t;
  host : string;
  ring : Ring.t;
  upstreams : (string * upstream) list;  (* name -> upstream *)
  cfg_stats : bool;
  queue_timeout_s : float;
  lock : Mutex.t;  (* guards pending, uid, counters, flight state *)
  pending : (int, pending) Hashtbl.t;
  mutable next_uid : int;
  mutable routed : int;
  mutable hedges_fired : int;
  mutable hedge_wins : int;
  mutable sheds : int;
  mutable failovers : int;
  conns : Conn.group;
  drained : bool Atomic.t;
  mutable hedge_thread : Thread.t option;
  mutable expo : Expo_server.t option;
  mutable expo_source : Obs.Expo.source option;
}

(* The routing key: the (instance, op) pair collapsed to its question
   scope — instance when there is one, op name otherwise. *)
let key_of payload =
  match Request.payload_instance payload with
  | Some i -> "i:" ^ i
  | None -> "o:" ^ Request.op_name payload

(* id-prefix surgery.  Shard responses begin {"id":<int> by
   construction; anything else (defensive) passes through unchanged. *)
let id_prefix = "{\"id\":"

let rewrite_id line ~id =
  let plen = String.length id_prefix in
  let n = String.length line in
  if n > plen && String.sub line 0 plen = id_prefix then begin
    let i = ref plen in
    if !i < n && line.[!i] = '-' then incr i;
    let d0 = !i in
    while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do
      incr i
    done;
    if !i = d0 then line
    else id_prefix ^ string_of_int id ^ String.sub line !i (n - !i)
  end
  else line

let uid_of_line line =
  let plen = String.length id_prefix in
  let n = String.length line in
  if n > plen && String.sub line 0 plen = id_prefix then begin
    let i = ref plen in
    let v = ref 0 in
    let any = ref false in
    while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do
      v := (!v * 10) + (Char.code line.[!i] - Char.code '0');
      any := true;
      incr i
    done;
    if !any then Some !v else None
  end
  else None

(* A flight is answered exactly once — Conn owes its client one line
   per request.  Forwarded answers claim [f_done] in [handle_response];
   local answers (ring exhausted, shed) claim it here, under the same
   lock, so a late shard answer can never follow a local one. *)
let answer_local t fl result =
  Mutex.lock t.lock;
  let first = not fl.f_done in
  fl.f_done <- true;
  Mutex.unlock t.lock;
  if first then
    fl.f_reply (Conn.answer ~stats:t.cfg_stats ~id:fl.f_orig_id result)

(* Under [t.lock]: unanswered, and no send of it is still live on any
   upstream — so nobody else will answer it. *)
let orphaned t fl =
  (not fl.f_done)
  && not (Hashtbl.fold (fun _ p acc -> acc || p.p_flight == fl) t.pending false)

(* ------------------------------------------------------------------ *)
(* Sending: register a pending uid, serialize with the uid as id,
   write under the upstream's write lock.  [`Down] means the upstream
   had no live connection or the write failed — the caller fails
   over.  The admission slot is the caller's to release on [`Down]. *)

let try_send_on t fl (u : upstream) =
  Mutex.lock t.lock;
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  let conn = match u.u_fd with Some fd -> Some (fd, u.u_gen) | None -> None in
  (match conn with
  | Some (_, gen) ->
      Hashtbl.replace t.pending uid { p_flight = fl; p_up = u; p_gen = gen };
      fl.f_attempts <- fl.f_attempts + 1;
      if not (List.mem u.u_name fl.f_tried) then
        fl.f_tried <- u.u_name :: fl.f_tried
  | None -> ());
  Mutex.unlock t.lock;
  match conn with
  | None -> `Down
  | Some (fd, _gen) ->
      let line =
        Json.to_string
          (Request.to_json (Request.make ?mode:fl.f_mode ~id:uid fl.f_payload))
      in
      Mutex.lock u.u_wlock;
      let ok =
        (* the fd may have been swapped by a reconnect while we were
           serializing; writing to the wrong generation is caught by
           the gen stamp when the stale response comes back *)
        match u.u_fd with
        | Some fd' when fd' == fd -> (
            try
              Frame.write_line fd line;
              true
            with Unix.Unix_error _ | Sys_error _ -> false)
        | _ -> false
      in
      Mutex.unlock u.u_wlock;
      if ok then `Sent uid
      else begin
        Mutex.lock t.lock;
        Hashtbl.remove t.pending uid;
        Mutex.unlock t.lock;
        `Down
      end

(* Wait (bounded) for a slot in the shard's admission window — this is
   the router's backpressure: the client's reader thread stalls, TCP
   pushes back on the client, and only a sustained overflow becomes a
   typed shed. *)
let admit_within u ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if Admission.try_admit u.u_admission then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.0005;
      go ()
    end
  in
  go ()

(* Route (or re-route, after a failure) a flight: first untried shard
   in ring order from the key's owner.  Exhausting the ring yields the
   typed error — the router stays up and says so. *)
let rec dispatch t fl =
  let candidates =
    List.filter
      (fun name -> not (List.mem name fl.f_tried))
      (Ring.successors t.ring fl.f_key)
  in
  match candidates with
  | [] ->
      let oracle =
        match fl.f_tried with name :: _ -> "shard-" ^ name | [] -> "shard"
      in
      answer_local t fl
        (Error
           (Request.Oracle_unavailable
              { oracle; attempts = max 1 fl.f_attempts }))
  | name :: _ -> (
      let u = List.assoc name t.upstreams in
      if not (admit_within u ~timeout_s:t.queue_timeout_s) then begin
        Mutex.lock t.lock;
        t.sheds <- t.sheds + 1;
        Mutex.unlock t.lock;
        answer_local t fl
          (Error (Request.Overloaded { limit = Admission.window u.u_admission }))
      end
      else
        match try_send_on t fl u with
        | `Sent _ -> ()
        | `Down ->
            Admission.release u.u_admission;
            Mutex.lock t.lock;
            if not (List.mem name fl.f_tried) then
              fl.f_tried <- name :: fl.f_tried;
            t.failovers <- t.failovers + 1;
            Mutex.unlock t.lock;
            dispatch t fl)

(* ------------------------------------------------------------------ *)
(* Upstream manager: owns the connection to one shard — connect (with
   retry while the supervisor respawns it), read responses, and on any
   failure fail the outstanding uids over to siblings. *)

(* The upstream died: drop its sends of generation [gen] and re-route
   each flight nobody else will answer.  A flight whose other copy (a
   hedge, or the primary of a hedge) is still live on another upstream
   waits for that answer instead — re-routing it would find every ring
   member tried and answer a typed error next to the real one. *)
let fail_outstanding t (u : upstream) ~gen =
  Mutex.lock t.lock;
  let failed =
    Hashtbl.fold
      (fun uid p acc ->
        if p.p_up == u && p.p_gen = gen then (uid, p.p_flight) :: acc
        else acc)
      t.pending []
  in
  List.iter (fun (uid, _) -> Hashtbl.remove t.pending uid) failed;
  let reroute = List.filter (fun (_, fl) -> orphaned t fl) failed in
  Mutex.unlock t.lock;
  List.iter (fun _ -> Admission.release u.u_admission) failed;
  List.iter (fun (_, fl) -> dispatch t fl) reroute

let handle_response t line =
  match uid_of_line line with
  | None -> () (* unparsable response line: nothing to correlate *)
  | Some uid -> (
      Mutex.lock t.lock;
      let p = Hashtbl.find_opt t.pending uid in
      (match p with Some _ -> Hashtbl.remove t.pending uid | None -> ());
      let deliver =
        match p with
        | None -> None (* hedge loser or stale generation: bytes dropped *)
        | Some p ->
            Admission.release p.p_up.u_admission;
            if p.p_flight.f_done then None
            else begin
              p.p_flight.f_done <- true;
              if p.p_flight.f_hedge_uid = uid then
                t.hedge_wins <- t.hedge_wins + 1;
              Some p.p_flight
            end
      in
      Mutex.unlock t.lock;
      match deliver with
      | None -> ()
      | Some fl -> fl.f_reply (rewrite_id line ~id:fl.f_orig_id))

let upstream_manager t (u : upstream) =
  let rec loop () =
    if Atomic.get t.drained then ()
    else
      match Proc.connect ~host:u.u_host ~port:u.u_port () with
      | Error _ ->
          Unix.sleepf 0.05;
          loop ()
      | Ok fd ->
          let gen =
            Mutex.lock t.lock;
            u.u_gen <- u.u_gen + 1;
            u.u_fd <- Some fd;
            let g = u.u_gen in
            Mutex.unlock t.lock;
            g
          in
          (* Response lines are not bounded here: the shard is the
             router's trusted peer, and Request.Bounds already bounds
             what it can answer; max_line bounds client frames only. *)
          let reader = Frame.reader ~max_line:max_int fd in
          let rec read_loop () =
            match Frame.read reader with
            | Frame.Line line ->
                handle_response t line;
                read_loop ()
            | Frame.Oversized _ | Frame.Truncated _ | Frame.Eof -> ()
          in
          read_loop ();
          (* the shard is gone (crash, kill -9, drain): detach the fd,
             fail the outstanding flights over to siblings, reconnect *)
          Mutex.lock t.lock;
          if u.u_gen = gen then u.u_fd <- None;
          Mutex.unlock t.lock;
          Mutex.lock u.u_wlock;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Mutex.unlock u.u_wlock;
          fail_outstanding t u ~gen;
          loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Hedging: a scanner wakes every hedge_after/4 and duplicates any
   old-enough un-hedged flight to the ring sibling.  First response
   wins; the loser's answer is dropped on arrival but its questions
   were asked and stay in the shard's ledger — hedges trade duplicate
   work for tail latency, and the merge protocol keeps the trade
   visible. *)

let hedge_scan t ~hedge_after_s =
  let now = Unix.gettimeofday () in
  let stale = ref [] in
  Mutex.lock t.lock;
  Hashtbl.iter
    (fun _ p ->
      let fl = p.p_flight in
      if
        (not fl.f_done)
        && (not fl.f_hedged)
        && now -. fl.f_sent_at > hedge_after_s
        && not (List.memq fl !stale)
      then stale := fl :: !stale)
    t.pending;
  (* claim under the lock so two scans never double-hedge a flight *)
  List.iter (fun fl -> fl.f_hedged <- true) !stale;
  Mutex.unlock t.lock;
  List.iter
    (fun fl ->
      let sibling =
        List.find_opt
          (fun name -> not (List.mem name fl.f_tried))
          (Ring.successors t.ring fl.f_key)
      in
      match sibling with
      | None -> () (* nowhere to hedge to *)
      | Some name ->
          let u = List.assoc name t.upstreams in
          (* never queue for a hedge: if the sibling's window is full,
             duplicating work would only deepen the overload *)
          if Admission.try_admit u.u_admission then begin
            match try_send_on t fl u with
            | `Sent uid ->
                Mutex.lock t.lock;
                fl.f_hedge_uid <- uid;
                t.hedges_fired <- t.hedges_fired + 1;
                Mutex.unlock t.lock
            | `Down ->
                Admission.release u.u_admission;
                (* the primary may have failed while this hedge was
                   its only live send *)
                Mutex.lock t.lock;
                let orphan = orphaned t fl in
                Mutex.unlock t.lock;
                if orphan then dispatch t fl
          end)
    !stale

let hedge_loop t ~hedge_after_s =
  let rec loop () =
    if not (Atomic.get t.drained) then begin
      hedge_scan t ~hedge_after_s;
      Unix.sleepf (Float.max 0.002 (hedge_after_s /. 4.));
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The stats op: fan out to every shard on fresh one-shot connections,
   merge with Ledger_merge, append the router's own question-free row.
   Rare and synchronous on the asking client's reader thread. *)

let router_ledger t =
  Mutex.lock t.lock;
  let l =
    Request.ledger
      ~node:(Printf.sprintf "router:%s:%d" t.host (Listener.port t.listener))
      ~raw:0 ~tb:0 ~equiv:0 ~cache_hits:0 ~served:t.routed
      ~hedges_fired:t.hedges_fired ~hedge_wins:t.hedge_wins ~sheds:t.sheds ()
  in
  Mutex.unlock t.lock;
  l

let stats_line =
  Json.to_string (Request.to_json (Request.make ~id:0 Request.Stats))

let shard_ledgers t =
  List.filter_map
    (fun (_, u) ->
      match
        Proc.send_and_collect ~host:u.u_host ~port:u.u_port ~timeout_s:5.0
          [ stats_line ]
      with
      | Ok (line :: _) -> Ledger_merge.of_response_line line
      | Ok [] | Error _ -> None)
    t.upstreams

let merged_ledger t =
  let shards = shard_ledgers t in
  (Ledger_merge.sum ~node:"cluster" (router_ledger t :: shards), shards)

(* ------------------------------------------------------------------ *)
(* Client side: Conn serves every client connection; this is its
   submit.  [stats] is answered here with the merged ledger; every
   other request becomes a flight whose answer is Conn's reply. *)

let submit t (req : Request.t) reply =
  match req.Request.payload with
  | Request.Stats ->
      let cluster, shards = merged_ledger t in
      reply
        (Conn.answer ~stats:t.cfg_stats ~id:req.Request.id
           (Ok (Request.Ledger_report { cluster; shards })))
  | payload ->
      Mutex.lock t.lock;
      t.routed <- t.routed + 1;
      Mutex.unlock t.lock;
      dispatch t
        {
          f_reply = reply;
          f_orig_id = req.Request.id;
          f_payload = payload;
          f_mode = req.Request.mode;
          f_key = key_of payload;
          f_sent_at = Unix.gettimeofday ();
          f_done = false;
          f_hedged = false;
          f_attempts = 0;
          f_tried = [];
          f_hedge_uid = -1;
        }

let register_expo t =
  Obs.Expo.register "cluster_router" (fun () ->
      Mutex.lock t.lock;
      let up =
        List.fold_left
          (fun a (_, u) -> if u.u_fd <> None then a + 1 else a)
          0 t.upstreams
      in
      let routed = t.routed
      and hf = t.hedges_fired
      and hw = t.hedge_wins
      and sheds = t.sheds in
      let rows =
        List.concat_map
          (fun (name, u) ->
            [
              Obs.Expo.Labeled_gauge
                {
                  name = "cluster_shard_up";
                  help = "1 while the router holds a live shard connection";
                  labels = [ ("shard", name) ];
                  value = (if u.u_fd <> None then 1.0 else 0.0);
                };
              Obs.Expo.Labeled_gauge
                {
                  name = "cluster_shard_inflight";
                  help = "requests in flight to the shard";
                  labels = [ ("shard", name) ];
                  value = float_of_int (Admission.inflight u.u_admission);
                };
            ])
          t.upstreams
      in
      Mutex.unlock t.lock;
      [
        Obs.Expo.Gauge
          {
            name = "cluster_shards_up";
            help = "shards the router is currently connected to";
            value = float_of_int up;
          };
        Obs.Expo.Counter
          {
            name = "cluster_routed";
            help = "requests forwarded to shards";
            value = routed;
          };
        Obs.Expo.Counter
          {
            name = "cluster_hedges_fired";
            help = "hedged duplicates sent to a sibling shard";
            value = hf;
          };
        Obs.Expo.Counter
          {
            name = "cluster_hedge_wins";
            help = "responses where the hedge beat the primary";
            value = hw;
          };
        Obs.Expo.Counter
          {
            name = "cluster_router_sheds";
            help = "requests shed because a shard window stayed full";
            value = sheds;
          };
      ]
      @ rows)

(* ------------------------------------------------------------------ *)

let start ?(host = "127.0.0.1") ?(port = 0) ?(window = 64) ?hedge_after_s
    ?(queue_timeout_s = 0.25) ?(max_line = Frame.default_max_line)
    ?(stats = true) ?metrics_port ~shards () =
  if shards = [] then invalid_arg "Router.start: no shards";
  Frame.ignore_sigpipe ();
  let upstreams =
    List.map
      (fun (h, p) ->
        let name = Printf.sprintf "%s:%d" h p in
        ( name,
          {
            u_host = h;
            u_port = p;
            u_name = name;
            u_admission = Admission.create ~window;
            u_wlock = Mutex.create ();
            u_fd = None;
            u_gen = 0;
            u_thread = None;
          } ))
      shards
  in
  let ring = Ring.create (List.map fst upstreams) in
  let t =
    {
      listener = Listener.bind ~host ~port;
      host;
      ring;
      upstreams;
      cfg_stats = stats;
      queue_timeout_s;
      lock = Mutex.create ();
      pending = Hashtbl.create 256;
      next_uid = 1;
      routed = 0;
      hedges_fired = 0;
      hedge_wins = 0;
      sheds = 0;
      failovers = 0;
      conns = Conn.group ();
      drained = Atomic.make false;
      hedge_thread = None;
      expo = None;
      expo_source = None;
    }
  in
  t.expo_source <- Some (register_expo t);
  (match metrics_port with
  | None -> ()
  | Some mp ->
      let metrics () = ("text/plain; version=0.0.4", Obs.Expo.render_all ()) in
      t.expo <-
        Some
          (Expo_server.start ~host ~port:mp
             ~routes:[ ("/metrics", metrics); ("/", metrics) ]
             ()));
  List.iter
    (fun (_, u) ->
      u.u_thread <- Some (Thread.create (fun () -> upstream_manager t u) ()))
    t.upstreams;
  (match hedge_after_s with
  | Some h when h > 0.0 ->
      t.hedge_thread <-
        Some (Thread.create (fun () -> hedge_loop t ~hedge_after_s:h) ())
  | _ -> ());
  (* One client holds at most [window] admitted flights per shard, so
     its connection is owed at most [window × shards] answers. *)
  let per_conn_window = window * List.length shards in
  Listener.run t.listener
    (Conn.serve
       { Conn.submit = submit t; stats; max_line; per_conn_window }
       t.conns);
  t

let port t = Listener.port t.listener
let metrics_port t = Option.map Expo_server.port t.expo

type counters = {
  routed : int;
  hedges_fired : int;
  hedge_wins : int;
  sheds : int;
  failovers : int;
  shards_up : int;
}

let counters t =
  Mutex.lock t.lock;
  let c =
    {
      routed = t.routed;
      hedges_fired = t.hedges_fired;
      hedge_wins = t.hedge_wins;
      sheds = t.sheds;
      failovers = t.failovers;
      shards_up =
        List.fold_left
          (fun a (_, u) -> if u.u_fd <> None then a + 1 else a)
          0 t.upstreams;
    }
  in
  Mutex.unlock t.lock;
  c

let drain ?(timeout_s = 30.0) t =
  if Atomic.exchange t.drained true then `Clean
  else begin
    Option.iter Expo_server.stop t.expo;
    Option.iter Obs.Expo.unregister t.expo_source;
    t.expo_source <- None;
    Listener.stop t.listener;
    Option.iter Thread.join t.hedge_thread;
    t.hedge_thread <- None;
    (* clients drain while the upstreams still answer their flights *)
    let outcome = Conn.drain ~timeout_s t.conns in
    (* upstream managers exit at their next poll; unblock the ones
       parked in a read by shutting the sockets down *)
    List.iter
      (fun (_, u) ->
        Mutex.lock t.lock;
        let fd = u.u_fd in
        Mutex.unlock t.lock;
        match fd with
        | Some fd -> (
            try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        | None -> ())
      t.upstreams;
    List.iter
      (fun (_, u) ->
        Option.iter Thread.join u.u_thread;
        u.u_thread <- None)
      t.upstreams;
    outcome
  end
