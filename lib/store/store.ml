(* The persistence + recovery tier: write-behind snapshots of
   Shared_memo plus an append-only request journal, with
   paranoid-by-default recovery.

   Ledger correctness (Def. 3.9): nothing in this module ever asks an
   oracle question.  Export reads committed memo entries; import seeds
   them back without touching hit/miss counters.  A warm start
   therefore differs from a cold one only in where cache {e hits} come
   from — never in what is asked, and never in a single response
   byte. *)

let m_snapshots = Metrics.counter "store.snapshots_written"
let m_snapshot_entries = Metrics.counter "store.snapshot_entries_written"
let m_errors_dropped = Metrics.counter "store.nondet_errors_dropped"
let m_entries_loaded = Metrics.counter "store.entries_loaded"
let m_entries_skipped = Metrics.counter "store.entries_skipped"
let m_journal_appends = Metrics.counter "store.journal_appends"
let m_journal_rotations = Metrics.counter "store.journal_rotations"
let m_journal_replayed = Metrics.counter "store.journal_replayed"
let m_refused = Metrics.counter "store.files_refused"

type load_report = {
  snapshot_present : bool;
  entries_loaded : int;
  entries_skipped : int;
  torn_tail : bool;
  refused : string option;
  journal_present : bool;
  journal_records : int;
  journal_skipped : int;
  journal_torn : bool;
  journal_refused : string option;
  pending : (int * string) list;
}

type snapshot_report = {
  entries_written : int;
  errors_dropped : int;
  bytes_written : int;
  snapshot_wall_s : float;
}

type t = {
  dir : string;
  snapshot_path : string;
  journal_path : string;
  memo : Shared_memo.t;
  snapshot_interval_s : float;
  lock : Mutex.t;
  (* journal state, all under [lock] *)
  mutable journal_fd : Unix.file_descr;
  mutable journal_oc : out_channel;
  mutable unsynced : int;
  mutable seq : int;
  inflight : (int, string) Hashtbl.t;
  mutable closed : bool;
  (* flusher *)
  mutable flusher : Thread.t option;
  mutable stop_flusher : bool;
  mutable last_flush : float;
  mutable last_report : snapshot_report option;
  (* observability *)
  trace : Obs.Trace.t;
  mutable trace_seq : int;
  mutable expo : Obs.Expo.source option;
}

(* ------------------------------------------------------------------ *)
(* fsync'd, atomically-renamed file writes. *)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

(* Write [emit oc], fsync, then atomically rename over [path]: a crash
   at any point leaves either the old file or the new one, never a
   partially-written mix. *)
let write_atomically ~dir ~path emit =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  let bytes =
    try
      emit oc;
      flush oc;
      Unix.fsync fd;
      let n = pos_out oc in
      close_out oc;
      n
    with e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
  in
  Unix.rename tmp path;
  fsync_dir dir;
  bytes

(* ------------------------------------------------------------------ *)
(* Tracing shim: every load/flush becomes one root span in the store's
   private ring, with a null ledger — persistence asks no questions,
   and the trace says so structurally. *)

let traced t name attrs f =
  Mutex.lock t.lock;
  t.trace_seq <- t.trace_seq + 1;
  let id = t.trace_seq in
  Mutex.unlock t.lock;
  Obs.Trace.begin_request t.trace ~req_id:id
    ~attrs:(("store.op", name) :: attrs)
    Obs.Trace.null_ledger;
  match f () with
  | v, out_attrs ->
      Obs.Trace.end_request ~attrs:out_attrs t.trace;
      v
  | exception e ->
      Obs.Trace.end_request ~attrs:[ ("raised", Printexc.to_string e) ] t.trace;
      raise e

(* ------------------------------------------------------------------ *)
(* Snapshot save. *)

(* Nondeterministic errors must never be served from a warm cache: a
   budget trip or an unreachable shard is a property of one run, not of
   the request.  [Shared_memo] already never stores them (aborts raise
   through compute), so this filter is defense in depth — it counts
   what it drops so a regression would be visible on /metrics. *)
let deterministic_entry = function
  | Shared_memo.D_result
      {
        value =
          {
            Shared_memo.value =
              Error
                ( Request.Budget_exceeded _ | Request.Deadline_exceeded _
                | Request.Oracle_unavailable _ | Request.Worker_crash _
                | Request.Overloaded _ );
            _;
          };
        _;
      } ->
      false
  | _ -> true

let snapshot_locked_rotate t =
  (* Rewrite the journal to only the still-inflight admissions.  Any
     request completed before this point no longer needs recovery; any
     admitted-but-uncompleted one is preserved verbatim. *)
  Mutex.lock t.lock;
  if not t.closed then begin
    let pending =
      Hashtbl.fold (fun seq line acc -> (seq, line) :: acc) t.inflight []
      |> List.sort compare
    in
    (try
       flush t.journal_oc;
       close_out_noerr t.journal_oc;
       ignore
         (write_atomically ~dir:t.dir ~path:t.journal_path (fun oc ->
              output_string oc (Store_codec.header Store_codec.journal_magic);
              List.iter
                (fun (seq, line) ->
                  output_string oc
                    (Store_codec.frame
                       (Store_codec.encode_journal
                          (Store_codec.Admitted { seq; line }))))
                pending));
       let fd =
         Unix.openfile t.journal_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644
       in
       t.journal_fd <- fd;
       t.journal_oc <- Unix.out_channel_of_descr fd;
       t.unsynced <- 0;
       Metrics.incr m_journal_rotations
     with e ->
       Mutex.unlock t.lock;
       raise e)
  end;
  Mutex.unlock t.lock

let snapshot_now t =
  traced t "flush" [] (fun () ->
      let t0 = Unix.gettimeofday () in
      let entries = Shared_memo.export t.memo in
      let dropped = ref 0 in
      let kept =
        List.filter
          (fun e ->
            let ok = deterministic_entry e in
            if not ok then incr dropped;
            ok)
          entries
      in
      let bytes =
        write_atomically ~dir:t.dir ~path:t.snapshot_path (fun oc ->
            output_string oc (Store_codec.header Store_codec.snapshot_magic);
            List.iter
              (fun e ->
                output_string oc
                  (Store_codec.frame (Store_codec.encode_entry e)))
              kept)
      in
      snapshot_locked_rotate t;
      let wall = Unix.gettimeofday () -. t0 in
      let report =
        {
          entries_written = List.length kept;
          errors_dropped = !dropped;
          bytes_written = bytes;
          snapshot_wall_s = wall;
        }
      in
      Mutex.lock t.lock;
      t.last_flush <- Unix.gettimeofday ();
      t.last_report <- Some report;
      Mutex.unlock t.lock;
      Metrics.incr m_snapshots;
      Metrics.incr ~by:report.entries_written m_snapshot_entries;
      Metrics.incr ~by:report.errors_dropped m_errors_dropped;
      ( report,
        [
          ("entries", string_of_int report.entries_written);
          ("bytes", string_of_int report.bytes_written);
          ("errors_dropped", string_of_int report.errors_dropped);
        ] ))

(* ------------------------------------------------------------------ *)
(* Load. *)

(* The memo sizes its per-relation tables from the counts and indices
   an instance declaration or relation entry carries, so a hostile or
   stale frame (a CRC-valid [nrels = 2^40], say) could exhaust memory.
   Only counts that fit the live instance of that name are seeded. *)
let fits_live live (entry : Shared_memo.dump_entry) =
  let count name =
    match List.assoc_opt name live with Some n -> n | None -> -1
  in
  match entry with
  | D_instance { name; nrels } -> 0 <= nrels && nrels <= count name
  | D_rel { inst; index; _ } -> 0 <= index && index < count inst
  | _ -> true

let load_snapshot t =
  if not (Sys.file_exists t.snapshot_path) then
    (false, 0, 0, false, None)
  else begin
    let ic = open_in_bin t.snapshot_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let head =
          match Store_codec.read_exactly_header ic with
          | Some h -> h
          | None -> ""
        in
        match Store_codec.check_header ~magic:Store_codec.snapshot_magic head with
        | Store_codec.Header_torn ->
            (true, 0, 0, true, None)
        | Store_codec.Bad_magic ->
            Metrics.incr m_refused;
            (true, 0, 0, false, Some "bad magic")
        | Store_codec.Future_version v ->
            Metrics.incr m_refused;
            (true, 0, 0, false,
             Some (Printf.sprintf "future format version %d (mine: %d)" v
                     Store_codec.format_version))
        | Store_codec.Header_ok ->
            let loaded = ref 0 and skipped = ref 0 and torn = ref false in
            let live =
              List.filter_map
                (fun name ->
                  Option.map
                    (fun hs -> (name, Array.length (Hs.Hsdb.db_type hs)))
                    (Engine.build_instance name))
                (Engine.instance_names ())
            in
            let continue = ref true in
            while !continue do
              match Store_codec.read_frame ic with
              | Store_codec.Frame_eof -> continue := false
              | Store_codec.Frame_torn ->
                  torn := true;
                  continue := false
              | Store_codec.Frame_bad_crc -> incr skipped
              | Store_codec.Frame payload -> (
                  match Store_codec.decode_entry payload with
                  | exception Store_codec.Decode_error _ -> incr skipped
                  | entry ->
                      if fits_live live entry && Shared_memo.seed t.memo entry
                      then incr loaded
                      else
                        (* already present, or a count that does not fit
                           the live instance: skipped, not an error *)
                        incr skipped)
            done;
            (true, !loaded, !skipped, !torn, None))
  end

let load_journal t =
  if not (Sys.file_exists t.journal_path) then (false, 0, 0, false, None, [], 0)
  else begin
    let ic = open_in_bin t.journal_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let head =
          match Store_codec.read_exactly_header ic with
          | Some h -> h
          | None -> ""
        in
        match Store_codec.check_header ~magic:Store_codec.journal_magic head with
        | Store_codec.Header_torn -> (true, 0, 0, true, None, [], 0)
        | Store_codec.Bad_magic ->
            Metrics.incr m_refused;
            (true, 0, 0, false, Some "bad magic", [], 0)
        | Store_codec.Future_version v ->
            Metrics.incr m_refused;
            (true, 0, 0, false,
             Some (Printf.sprintf "future format version %d (mine: %d)" v
                     Store_codec.format_version),
             [], 0)
        | Store_codec.Header_ok ->
            let records = ref 0 and skipped = ref 0 and torn = ref false in
            let tbl = Hashtbl.create 16 in
            let max_seq = ref 0 in
            let continue = ref true in
            while !continue do
              match Store_codec.read_frame ic with
              | Store_codec.Frame_eof -> continue := false
              | Store_codec.Frame_torn ->
                  torn := true;
                  continue := false
              | Store_codec.Frame_bad_crc -> incr skipped
              | Store_codec.Frame payload -> (
                  match Store_codec.decode_journal payload with
                  | exception Store_codec.Decode_error _ -> incr skipped
                  | Store_codec.Admitted { seq; line } ->
                      incr records;
                      if seq > !max_seq then max_seq := seq;
                      Hashtbl.replace tbl seq line
                  | Store_codec.Completed { seq } ->
                      incr records;
                      if seq > !max_seq then max_seq := seq;
                      Hashtbl.remove tbl seq)
            done;
            let pending =
              Hashtbl.fold (fun seq line acc -> (seq, line) :: acc) tbl []
              |> List.sort compare
            in
            (true, !records, !skipped, !torn, None, pending, !max_seq))
  end

(* ------------------------------------------------------------------ *)
(* Journal appends. *)

let journal_append t r =
  Mutex.lock t.lock;
  if not t.closed then begin
    output_string t.journal_oc (Store_codec.frame (Store_codec.encode_journal r));
    t.unsynced <- t.unsynced + 1;
    Metrics.incr m_journal_appends
  end;
  Mutex.unlock t.lock

let journal_admit t ~line =
  Mutex.lock t.lock;
  t.seq <- t.seq + 1;
  let seq = t.seq in
  Hashtbl.replace t.inflight seq line;
  Mutex.unlock t.lock;
  journal_append t (Store_codec.Admitted { seq; line });
  seq

let journal_complete t seq =
  Mutex.lock t.lock;
  Hashtbl.remove t.inflight seq;
  Mutex.unlock t.lock;
  journal_append t (Store_codec.Completed { seq })

let journal_sync t =
  Mutex.lock t.lock;
  if (not t.closed) && t.unsynced > 0 then begin
    flush t.journal_oc;
    (try Unix.fsync t.journal_fd with Unix.Unix_error _ -> ());
    t.unsynced <- 0
  end;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)

let last_flush_age_s t =
  Mutex.lock t.lock;
  let a = Unix.gettimeofday () -. t.last_flush in
  Mutex.unlock t.lock;
  a

let inflight_count t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.inflight in
  Mutex.unlock t.lock;
  n

let last_report t =
  Mutex.lock t.lock;
  let r = t.last_report in
  Mutex.unlock t.lock;
  r

let traces t = Obs.Trace.traces t.trace

(* The write-behind thread: fsyncs straggler journal records every tick
   and snapshots when the interval has elapsed.  The serving hot path
   never waits on it. *)
let flusher_loop t =
  let tick = 0.05 in
  while not t.stop_flusher do
    Thread.delay tick;
    if not t.stop_flusher then begin
      journal_sync t;
      if
        t.snapshot_interval_s > 0.
        && last_flush_age_s t >= t.snapshot_interval_s
      then try ignore (snapshot_now t) with _ -> ()
    end
  done

(* ------------------------------------------------------------------ *)

let open_store ?(snapshot_interval_s = 30.) ?(write_behind = true) ~dir memo =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let snapshot_path = Filename.concat dir "snapshot.rdb" in
  let journal_path = Filename.concat dir "journal.rdb" in
  let t =
    {
      dir;
      snapshot_path;
      journal_path;
      memo;
      snapshot_interval_s;
      lock = Mutex.create ();
      journal_fd = Unix.stdin (* replaced below *);
      journal_oc = stdout (* replaced below *);
      unsynced = 0;
      seq = 0;
      inflight = Hashtbl.create 16;
      closed = false;
      flusher = None;
      stop_flusher = false;
      last_flush = Unix.gettimeofday ();
      last_report = None;
      trace = Obs.Trace.make ~capacity:64 ~sampling:Obs.Trace.All ();
      trace_seq = 0;
      expo = None;
    }
  in
  let report =
    traced t "load" [ ("dir", dir) ] (fun () ->
        let ( snapshot_present,
              entries_loaded,
              entries_skipped,
              torn_tail,
              refused ) =
          load_snapshot t
        in
        let ( journal_present,
              journal_records,
              journal_skipped,
              journal_torn,
              journal_refused,
              pending,
              max_seq ) =
          load_journal t
        in
        t.seq <- max_seq;
        List.iter (fun (seq, line) -> Hashtbl.replace t.inflight seq line) pending;
        (* A refused journal (future version / bad magic) must not be
           overwritten by rotation: move it aside first so no admitted
           request is silently destroyed by a downgraded binary. *)
        (match journal_refused with
        | Some _ when Sys.file_exists journal_path ->
            Unix.rename journal_path (journal_path ^ ".refused")
        | _ -> ());
        (* Fresh journal containing exactly the pending admissions:
           this is also what truncates a torn tail. *)
        ignore
          (write_atomically ~dir ~path:journal_path (fun oc ->
               output_string oc (Store_codec.header Store_codec.journal_magic);
               List.iter
                 (fun (seq, line) ->
                   output_string oc
                     (Store_codec.frame
                        (Store_codec.encode_journal
                           (Store_codec.Admitted { seq; line }))))
                 pending));
        let fd = Unix.openfile journal_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
        t.journal_fd <- fd;
        t.journal_oc <- Unix.out_channel_of_descr fd;
        Metrics.incr ~by:entries_loaded m_entries_loaded;
        Metrics.incr ~by:entries_skipped m_entries_skipped;
        let report =
          {
            snapshot_present;
            entries_loaded;
            entries_skipped;
            torn_tail;
            refused;
            journal_present;
            journal_records;
            journal_skipped;
            journal_torn;
            journal_refused;
            pending;
          }
        in
        ( report,
          [
            ("entries_loaded", string_of_int entries_loaded);
            ("entries_skipped", string_of_int entries_skipped);
            ("pending", string_of_int (List.length pending));
            ("torn_tail", string_of_bool torn_tail);
          ] ))
  in
  let expo =
    Obs.Expo.register "store" (fun () ->
        [
          Obs.Expo.Gauge
            {
              name = "store_last_flush_age_seconds";
              help = "Seconds since the last completed snapshot flush";
              value = last_flush_age_s t;
            };
          Obs.Expo.Gauge
            {
              name = "store_journal_inflight";
              help = "Admitted requests not yet completed (journal view)";
              value = float_of_int (inflight_count t);
            };
          Obs.Expo.Gauge
            {
              name = "store_snapshot_last_entries";
              help = "Entries written by the last snapshot";
              value =
                (match last_report t with
                | Some r -> float_of_int r.entries_written
                | None -> 0.);
            };
          Obs.Expo.Gauge
            {
              name = "store_snapshot_last_bytes";
              help = "Bytes written by the last snapshot";
              value =
                (match last_report t with
                | Some r -> float_of_int r.bytes_written
                | None -> 0.);
            };
        ])
  in
  t.expo <- Some expo;
  if write_behind then begin
    t.stop_flusher <- false;
    t.flusher <- Some (Thread.create flusher_loop t)
  end;
  (t, report)

let replayed (_ : t) n = Metrics.incr ~by:n m_journal_replayed

(* ------------------------------------------------------------------ *)

let close ?(flush_timeout_s = 10.) t =
  let already =
    Mutex.lock t.lock;
    let c = t.closed in
    Mutex.unlock t.lock;
    c
  in
  if not already then begin
    t.stop_flusher <- true;
    (match t.flusher with Some th -> Thread.join th | None -> ());
    t.flusher <- None;
    (* Final snapshot, bounded: the drain path must terminate even if
       the disk hangs.  The flush runs on a helper thread; past the
       deadline we abandon it (the temp-file + rename protocol means an
       abandoned write can never corrupt the last good snapshot). *)
    let done_ = Atomic.make false in
    let _th =
      Thread.create
        (fun () ->
          (try ignore (snapshot_now t) with _ -> ());
          Atomic.set done_ true)
        ()
    in
    let deadline = Unix.gettimeofday () +. flush_timeout_s in
    while (not (Atomic.get done_)) && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    journal_sync t;
    Mutex.lock t.lock;
    t.closed <- true;
    (try
       flush t.journal_oc;
       close_out_noerr t.journal_oc
     with _ -> ());
    Mutex.unlock t.lock;
    match t.expo with
    | Some s ->
        Obs.Expo.unregister s;
        t.expo <- None
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Read-only inspection: opens nothing for writing, rotates nothing —
   safe to run against a live server's store directory. *)

let inspect ~dir =
  let b = Buffer.create 256 in
  let snapshot_path = Filename.concat dir "snapshot.rdb" in
  let journal_path = Filename.concat dir "journal.rdb" in
  (if not (Sys.file_exists snapshot_path) then
     Buffer.add_string b "snapshot: absent\n"
   else
     let ic = open_in_bin snapshot_path in
     Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () ->
         let head =
           match Store_codec.read_exactly_header ic with
           | Some h -> h
           | None -> ""
         in
         match Store_codec.check_header ~magic:Store_codec.snapshot_magic head with
         | Store_codec.Header_torn -> Buffer.add_string b "snapshot: torn header\n"
         | Store_codec.Bad_magic -> Buffer.add_string b "snapshot: bad magic\n"
         | Store_codec.Future_version v ->
             Buffer.add_string b
               (Printf.sprintf "snapshot: refused (future format version %d)\n" v)
         | Store_codec.Header_ok ->
             let counts = Hashtbl.create 8 in
             let bump k =
               Hashtbl.replace counts k
                 (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
             in
             let bad = ref 0 and torn = ref false in
             let continue = ref true in
             while !continue do
               match Store_codec.read_frame ic with
               | Store_codec.Frame_eof -> continue := false
               | Store_codec.Frame_torn ->
                   torn := true;
                   continue := false
               | Store_codec.Frame_bad_crc -> incr bad
               | Store_codec.Frame payload -> (
                   match Store_codec.decode_entry payload with
                   | exception Store_codec.Decode_error _ -> incr bad
                   | Shared_memo.D_instance _ -> bump "instance"
                   | Shared_memo.D_children _ -> bump "children"
                   | Shared_memo.D_equiv _ -> bump "equiv"
                   | Shared_memo.D_rel _ -> bump "rel"
                   | Shared_memo.D_result _ -> bump "result"
                   | Shared_memo.D_rql_def _ -> bump "rql_def")
             done;
             Buffer.add_string b
               (Printf.sprintf "snapshot: format v%d, %d bytes\n"
                  Store_codec.format_version
                  (in_channel_length ic));
             Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
             |> List.sort compare
             |> List.iter (fun (k, v) ->
                    Buffer.add_string b (Printf.sprintf "  %-10s %d\n" k v));
             if !bad > 0 then
               Buffer.add_string b (Printf.sprintf "  corrupt    %d (skipped)\n" !bad);
             if !torn then Buffer.add_string b "  torn tail\n"));
  (if not (Sys.file_exists journal_path) then
     Buffer.add_string b "journal: absent\n"
   else
     let ic = open_in_bin journal_path in
     Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () ->
         let head =
           match Store_codec.read_exactly_header ic with
           | Some h -> h
           | None -> ""
         in
         match Store_codec.check_header ~magic:Store_codec.journal_magic head with
         | Store_codec.Header_torn -> Buffer.add_string b "journal: torn header\n"
         | Store_codec.Bad_magic -> Buffer.add_string b "journal: bad magic\n"
         | Store_codec.Future_version v ->
             Buffer.add_string b
               (Printf.sprintf "journal: refused (future format version %d)\n" v)
         | Store_codec.Header_ok ->
             let admitted = ref 0 and completed = ref 0 and bad = ref 0 in
             let torn = ref false in
             let pending = Hashtbl.create 16 in
             let continue = ref true in
             while !continue do
               match Store_codec.read_frame ic with
               | Store_codec.Frame_eof -> continue := false
               | Store_codec.Frame_torn ->
                   torn := true;
                   continue := false
               | Store_codec.Frame_bad_crc -> incr bad
               | Store_codec.Frame payload -> (
                   match Store_codec.decode_journal payload with
                   | exception Store_codec.Decode_error _ -> incr bad
                   | Store_codec.Admitted { seq; line } ->
                       incr admitted;
                       Hashtbl.replace pending seq line
                   | Store_codec.Completed { seq } ->
                       incr completed;
                       Hashtbl.remove pending seq)
             done;
             Buffer.add_string b
               (Printf.sprintf
                  "journal: format v%d, %d admitted, %d completed, %d pending\n"
                  Store_codec.format_version !admitted !completed
                  (Hashtbl.length pending));
             if !bad > 0 then
               Buffer.add_string b (Printf.sprintf "  corrupt    %d (skipped)\n" !bad);
             if !torn then Buffer.add_string b "  torn tail\n";
             Hashtbl.fold (fun s l acc -> (s, l) :: acc) pending []
             |> List.sort compare
             |> List.iter (fun (seq, line) ->
                    Buffer.add_string b (Printf.sprintf "  pending #%d: %s\n" seq line))));
  Buffer.contents b
