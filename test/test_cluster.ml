(* lib/cluster: the consistent-hash ring (QCheck-tested spread and
   stability), the question-ledger merge, the stats wire op at the
   serving door, the router's survival of abruptly dying shards
   (the SIGPIPE/kill -9 regression: a dead shard is a typed error,
   never a dead router), exactly one answer per routed request,
   unbounded shard responses, and a bounded never-reading client. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Ring: unit                                                          *)

let test_fnv_vectors () =
  (* the standard FNV-1a 64 test vectors — the hash must be exactly
     this function on every process, or a rebuilt router would send
     instances to shards that never memoized them *)
  check Alcotest.int64 "offset basis" 0xcbf29ce484222325L (Ring.fnv1a64 "");
  check Alcotest.int64 "fnv1a64 \"a\"" 0xaf63dc4c8601ec8cL (Ring.fnv1a64 "a");
  check Alcotest.int64 "fnv1a64 \"foobar\"" 0x85944171f73967e8L
    (Ring.fnv1a64 "foobar")

let test_ring_basics () =
  let r = Ring.create [ "a"; "b"; "c" ] in
  check Alcotest.(list string) "nodes in insertion order" [ "a"; "b"; "c" ]
    (Ring.nodes r);
  let owner = Ring.node r "i:pods" in
  check Alcotest.bool "owner is a member" true
    (List.mem owner (Ring.nodes r));
  check Alcotest.string "node is deterministic" owner (Ring.node r "i:pods");
  let succ = Ring.successors r "i:pods" in
  check Alcotest.string "successors start at the owner" owner (List.hd succ);
  check Alcotest.(list string) "successors cover every node once"
    (List.sort compare [ "a"; "b"; "c" ])
    (List.sort compare succ);
  (match Ring.create [ "a"; "a" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate nodes must be rejected");
  match Ring.create [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty ring must be rejected"

(* ------------------------------------------------------------------ *)
(* Ring: QCheck properties                                             *)

let keys_for m = List.init m (fun i -> Printf.sprintf "i:inst-%d" i)

let qcheck_spread =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:40
       ~name:"every node's share is within 2x of fair (128 vnodes)"
       ~print:Print.(pair int int)
       Gen.(pair (int_range 2 8) (int_range 500 1500))
       (fun (n, m) ->
         let names = List.init n (Printf.sprintf "shard-%d") in
         let r = Ring.create names in
         let counts = Hashtbl.create n in
         List.iter
           (fun k ->
             let o = Ring.node r k in
             Hashtbl.replace counts o
               (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
           (keys_for m);
         let fair = float_of_int m /. float_of_int n in
         List.for_all
           (fun name ->
             let c = Option.value ~default:0 (Hashtbl.find_opt counts name) in
             float_of_int c <= 2.0 *. fair)
           names))

let qcheck_remove_stability =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:40
       ~name:
         "removing one node remaps only its own keys (and about 1/N of \
          the population)"
       ~print:Print.(triple int int int)
       Gen.(triple (int_range 2 8) (int_range 400 1200) (int_range 0 7))
       (fun (n, m, victim_ix) ->
         let names = List.init n (Printf.sprintf "shard-%d") in
         let victim = List.nth names (victim_ix mod n) in
         let r = Ring.create names in
         let r' = Ring.remove r victim in
         let keys = keys_for m in
         let moved =
           List.fold_left
             (fun moved k ->
               let before = Ring.node r k and after = Ring.node r' k in
               if String.equal before after then moved
               else if String.equal before victim then moved + 1
               else
                 QCheck2.Test.fail_reportf
                   "key %s moved %s -> %s though %s was removed" k before
                   after victim)
             0 keys
         in
         (* everything the victim owned moved somewhere... *)
         let owned_by_victim =
           List.length
             (List.filter (fun k -> String.equal (Ring.node r k) victim) keys)
         in
         moved = owned_by_victim
         (* ...and with n >= 2 that is well under half the population
            (~1/n in expectation; 2x fair share is the spread bound) *)
         && float_of_int moved
            <= 2.0 *. (float_of_int m /. float_of_int n)))

(* ------------------------------------------------------------------ *)
(* Ledger merge                                                        *)

let test_ledger_merge () =
  let a =
    Request.ledger ~node:"s1" ~raw:3 ~tb:2 ~equiv:1 ~cache_hits:10 ~served:5
      ()
  in
  let b =
    Request.ledger ~node:"s2" ~raw:1 ~tb:0 ~equiv:4 ~cache_hits:2
      ~hedges_fired:1 ~sheds:3 ()
  in
  let s = Ledger_merge.sum ~node:"cluster" [ a; b ] in
  check Alcotest.string "node label" "cluster" s.Request.l_node;
  check Alcotest.int "raw" 4 s.Request.l_raw;
  check Alcotest.int "tb" 2 s.Request.l_tb;
  check Alcotest.int "equiv" 5 s.Request.l_equiv;
  check Alcotest.int "questions = raw + tb + equiv" 11 s.Request.l_questions;
  check Alcotest.int "cache hits" 12 s.Request.l_cache_hits;
  check Alcotest.int "served" 5 s.Request.l_served;
  check Alcotest.int "hedges" 1 s.Request.l_hedges_fired;
  check Alcotest.int "sheds" 3 s.Request.l_sheds;
  (* the identity *)
  let z = Ledger_merge.sum ~node:"cluster" [] in
  check Alcotest.int "empty sum is zero" 0 z.Request.l_questions;
  (* wire round-trip, as a shard reports it *)
  let line =
    Json.to_string
      (Request.response_to_json ~stats:false
         {
           Request.id = 0;
           result = Ok (Request.Ledger_report { cluster = a; shards = [] });
           cert = Request.Cert_exact;
           stats = Request.zero_stats;
         })
  in
  match Ledger_merge.of_response_line line with
  | None -> Alcotest.fail "stats response line did not parse as a ledger"
  | Some l ->
      check Alcotest.string "round-trip node" "s1" l.Request.l_node;
      check Alcotest.int "round-trip questions" 6 l.Request.l_questions;
      check Alcotest.int "round-trip hits" 10 l.Request.l_cache_hits

(* ------------------------------------------------------------------ *)
(* The stats op at the serving door                                    *)

let test_stats_op_at_server () =
  let server = Server.start ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> ignore (Server.drain ~timeout_s:30.0 server))
    (fun () ->
      let port = Server.port server in
      let ask () =
        match
          Proc.send_and_collect ~port [ {|{"id":1,"op":"stats"}|} ]
        with
        | Ok [ line ] -> (
            match Ledger_merge.of_response_line line with
            | Some l -> l
            | None -> Alcotest.fail ("not a ledger: " ^ line))
        | Ok ls ->
            Alcotest.fail
              (Printf.sprintf "%d response lines to one stats op"
                 (List.length ls))
        | Error e -> Alcotest.fail e
      in
      let fresh = ask () in
      check Alcotest.string "node is host:port"
        (Printf.sprintf "127.0.0.1:%d" port)
        fresh.Request.l_node;
      check Alcotest.int "a fresh server has asked nothing" 0
        fresh.Request.l_questions;
      (* a stats op is answered at the door: it is served but asks
         zero questions itself *)
      check Alcotest.bool "stats op is counted as served" true
        (fresh.Request.l_served >= 1);
      (* real work moves the ledger; stats still doesn't.  A sentence,
         not a classes count: classes is a pure combinatorial
         enumeration that asks zero oracle questions *)
      (match
         Proc.send_and_collect ~port
           [
             {|{"id":2,"op":"sentence","instance":"triangles",|}
             ^ {|"sentence":"exists x. exists y. R1(x, y)"}|};
           ]
       with
      | Ok [ _ ] -> ()
      | Ok _ | Error _ -> Alcotest.fail "sentence op failed");
      let after = ask () in
      check Alcotest.bool "questions grew with real work" true
        (after.Request.l_questions > 0);
      check Alcotest.int "ledger invariant"
        (after.Request.l_raw + after.Request.l_tb + after.Request.l_equiv)
        after.Request.l_questions;
      let again = ask () in
      check Alcotest.int "stats itself asks zero questions"
        after.Request.l_questions again.Request.l_questions)

(* ------------------------------------------------------------------ *)
(* Router: byte passthrough over a live shard                          *)

(* The router dials its upstreams asynchronously after start; a request
   routed before that connect lands is a typed oracle_unavailable, so
   tests wait for the shards to be up (10 s at most). *)
let wait_shards_up router n =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (Router.counters router).Router.shards_up < n
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done

let test_router_passthrough () =
  let shard = Server.start ~domains:1 ~stats:false () in
  let router =
    Router.start ~stats:false
      ~shards:[ ("127.0.0.1", Server.port shard) ]
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Router.drain ~timeout_s:30.0 router);
      ignore (Server.drain ~timeout_s:30.0 shard))
    (fun () ->
      let lines =
        [
          {|{"id":4,"op":"sentence","instance":"triangles",|}
          ^ {|"sentence":"exists x. exists y. R1(x, y)"}|};
          {|{"id":9,"op":"sentence","instance":"triangles",|}
          ^ {|"sentence":"forall x. exists y. R1(x, y)"}|};
          (* rejected at either door's decode step, under its own id *)
          {|{"id":45,"op":"tree","instance":"rado","depth":99}|};
        ]
      in
      wait_shards_up router 1;
      (* warm the shard directly, then route the same requests: the
         router must forward the shard's bytes untouched *)
      let direct =
        match Proc.send_and_collect ~port:(Server.port shard) lines with
        | Ok r -> Proc.sort_by_id r
        | Error e -> Alcotest.fail e
      in
      let routed =
        match Proc.send_and_collect ~port:(Router.port router) lines with
        | Ok r -> Proc.sort_by_id r
        | Error e -> Alcotest.fail e
      in
      check Alcotest.(list string) "routed bytes = direct bytes" direct
        routed;
      (* the merged ledger through the router sees the shard's spending *)
      let cluster, shards = Router.merged_ledger router in
      check Alcotest.int "one shard reporting" 1 (List.length shards);
      check Alcotest.bool "cluster total covers the shard's questions" true
        (cluster.Request.l_questions > 0);
      check Alcotest.string "cluster label" "cluster" cluster.Request.l_node)

(* ------------------------------------------------------------------ *)
(* Regression: a shard that dies abruptly (kill -9, crash) must become
   a typed oracle_unavailable — the router process survives the EPIPE. *)

(* A "shard" that accepts connections and hands each to [handle] on its
   own thread, so a silent one (the router's idle reconnect) never
   delays the next (a stats fan-out).  The returned [stop] ends the
   accept loop and closes the listener from the loop's own thread: a
   loop that outlived its test would call [accept] on whatever socket
   reused the closed fd number next — the next test's fake shard — and
   could take the router's connection to it. *)
let accepting_shard handle =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", 0));
  Unix.listen fd 8;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let stopping = Atomic.make false in
  let rec serve () =
    if not (Atomic.get stopping) then begin
      (match Unix.select [ fd ] [] [] 0.02 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept fd with
          | conn, _ -> ignore (Thread.create handle conn)
          | exception Unix.Unix_error _ -> ()));
      serve ()
    end
  in
  let loop =
    Thread.create
      (fun () ->
        serve ();
        Unix.close fd)
      ()
  in
  ( port,
    fun () ->
      Atomic.set stopping true;
      Thread.join loop )

(* Reads a little from each connection, then slams it shut — the
   router's subsequent writes hit EPIPE/ECONNRESET exactly as they would
   against a kill -9'd process. *)
let slammer_shard () =
  accepting_shard (fun conn ->
      (* linger 0 turns close into RST — the abrupt death *)
      (try Unix.setsockopt_optint conn Unix.SO_LINGER (Some 0)
       with Unix.Unix_error _ -> ());
      let buf = Bytes.create 256 in
      (try ignore (Unix.read conn buf 0 256) with Unix.Unix_error _ -> ());
      try Unix.close conn with Unix.Unix_error _ -> ())

let test_dead_shard_is_typed_never_fatal () =
  let p1, stop1 = slammer_shard () in
  let p2, stop2 = slammer_shard () in
  let router =
    Router.start ~stats:false ~queue_timeout_s:2.0
      ~shards:[ ("127.0.0.1", p1); ("127.0.0.1", p2) ]
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Router.drain ~timeout_s:10.0 router);
      stop1 ();
      stop2 ())
    (fun () ->
      (* wait until the router holds connections to both "shards" *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait () =
        if (Router.counters router).Router.shards_up = 2 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "router never connected to the shards"
        else begin
          Unix.sleepf 0.02;
          wait ()
        end
      in
      wait ();
      (* both shards die under the request; the router must answer a
         typed error on the same connection and keep living *)
      let resp =
        Proc.send_and_collect ~port:(Router.port router)
          [ {|{"id":3,"op":"classes","type":[2,1],"rank":2}|} ]
      in
      match resp with
      | Error e -> Alcotest.fail ("router dropped the client: " ^ e)
      | Ok [] -> Alcotest.fail "router closed without answering"
      | Ok (line :: _) -> (
          match Json.parse line with
          | Error e -> Alcotest.fail ("unparsable response: " ^ e)
          | Ok j -> (
              check Alcotest.int "original id echoed" 3
                (match Json.member "id" j with
                | Some (Json.Int i) -> i
                | _ -> -1);
              match
                Option.bind
                  (Option.bind (Json.member "error" j) (Json.member "kind"))
                  (function Json.String k -> Some k | _ -> None)
              with
              | Some "oracle_unavailable" ->
                  (* and the router still serves: the local stats op
                     answers even with every shard dead *)
                  ignore (Router.merged_ledger router)
              | k ->
                  Alcotest.fail
                    (Printf.sprintf "expected oracle_unavailable, got %s"
                       (Option.value ~default:"<none>" k)))))

(* A scripted shard: it accepts the router's one upstream connection
   (then closes its listener, so a reconnect after its death is
   refused), records the uid of every request line it reads, and
   answers only when the test writes to [fk_conn]. *)
type fake = {
  fk_port : int;
  fk_lock : Mutex.t;
  mutable fk_conn : Unix.file_descr option;
  mutable fk_uids : int list;  (* newest first *)
  mutable fk_thread : Thread.t option;
}

let fake_shard () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let fk =
    {
      fk_port = port;
      fk_lock = Mutex.create ();
      fk_conn = None;
      fk_uids = [];
      fk_thread = None;
    }
  in
  let serve_fake () =
    let fd, _ = Unix.accept lfd in
    Unix.close lfd;
    Mutex.protect fk.fk_lock (fun () -> fk.fk_conn <- Some fd);
    let reader = Frame.reader fd in
    let rec loop () =
      match Frame.read reader with
      | Frame.Line l ->
          Mutex.protect fk.fk_lock (fun () ->
              fk.fk_uids <- Proc.id_of l :: fk.fk_uids);
          loop ()
      | _ -> ()
    in
    loop ()
  in
  fk.fk_thread <- Some (Thread.create serve_fake ());
  fk

let fake_uids fk = Mutex.protect fk.fk_lock (fun () -> fk.fk_uids)

let fake_conn fk =
  match Mutex.protect fk.fk_lock (fun () -> fk.fk_conn) with
  | Some fd -> fd
  | None -> Alcotest.fail "fake shard never connected"

(* Regression: a hedged request whose shard dies while its other copy
   is still in flight used to be re-routed, find every ring member
   tried, and answer oracle_unavailable — then the live shard's real
   answer was forwarded as a second line for the same id. *)
let test_hedged_request_answered_once () =
  let a = fake_shard () and b = fake_shard () in
  let router =
    Router.start ~stats:false ~hedge_after_s:0.05 ~queue_timeout_s:2.0
      ~shards:[ ("127.0.0.1", a.fk_port); ("127.0.0.1", b.fk_port) ]
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Router.drain ~timeout_s:10.0 router);
      (* a fake that was never dialled stays parked in accept; a dialled
         one reads EOF now that the router is drained, and is joined
         before its socket is closed, so it never reads a reused fd *)
      List.iter
        (fun fk ->
          Option.iter
            (fun fd ->
              Option.iter Thread.join fk.fk_thread;
              try Unix.close fd with Unix.Unix_error _ -> ())
            fk.fk_conn)
        [ a; b ])
    (fun () ->
      wait_shards_up router 2;
      check Alcotest.int "both fake shards connected" 2
        (Router.counters router).Router.shards_up;
      let script_error = ref None in
      let script =
        Thread.create
          (fun () ->
            let until what cond =
              let deadline = Unix.gettimeofday () +. 10.0 in
              while (not (cond ())) && Unix.gettimeofday () < deadline do
                Unix.sleepf 0.005
              done;
              if not (cond ()) then failwith what
            in
            try
              (* both copies in flight: the primary and its hedge *)
              until "no hedge fired" (fun () ->
                  fake_uids a <> [] && fake_uids b <> []);
              (* shard a dies; wait until the router has noticed and
                 failed its sends over *)
              Unix.shutdown (fake_conn a) Unix.SHUTDOWN_ALL;
              until "router never saw shard a die" (fun () ->
                  (Router.counters router).Router.shards_up = 1);
              Unix.sleepf 0.1;
              Frame.write_line (fake_conn b)
                (Printf.sprintf {|{"id":%d,"ok":"live shard"}|}
                   (List.hd (fake_uids b)))
            with e -> script_error := Some (Printexc.to_string e))
          ()
      in
      let got =
        Proc.send_and_collect ~timeout_s:10.0 ~port:(Router.port router)
          [ {|{"id":42,"op":"classes","type":[2,1],"rank":2}|} ]
      in
      Thread.join script;
      Option.iter Alcotest.fail !script_error;
      check
        Alcotest.(result (list string) string)
        "exactly one line, the live shard's answer"
        (Ok [ {|{"id":42,"ok":"live shard"}|} ])
        got)

(* The router bounds client frames, never shard responses: a routed
   answer longer than --max-line is forwarded whole. *)
let test_router_forwards_long_responses () =
  let shard = Server.start ~domains:1 ~stats:false () in
  let router =
    Router.start ~stats:false ~max_line:4096
      ~shards:[ ("127.0.0.1", Server.port shard) ]
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Router.drain ~timeout_s:30.0 router);
      ignore (Server.drain ~timeout_s:30.0 shard))
    (fun () ->
      wait_shards_up router 1;
      let ask port =
        match
          Proc.send_and_collect ~timeout_s:5.0 ~port
            [
              {|{"id":1,"op":"query","instance":"clique",|}
              ^ {|"query":"{ (x, y) | x = x }","cutoff":32}|};
            ]
        with
        | Ok lines -> lines
        | Error e -> Alcotest.fail e
      in
      let direct = ask (Server.port shard) in
      check Alcotest.bool "the answer exceeds the router's frame bound" true
        (List.for_all (fun l -> String.length l > 4096) direct);
      check Alcotest.(list string) "routed = direct" direct
        (ask (Router.port router)))

(* Three shards that accept and never answer: the stats fan-out asks
   them all at once under one 5 s deadline, and gives each a typed
   unreachable row instead of leaving it out. *)
let test_stats_deadline_with_mute_shards () =
  let held = ref [] and lock = Mutex.create () in
  let mute () =
    accepting_shard (fun conn ->
        Mutex.protect lock (fun () -> held := conn :: !held))
  in
  let shards = [ mute (); mute (); mute () ] in
  let router =
    Router.start ~stats:false
      ~shards:(List.map (fun (p, _) -> ("127.0.0.1", p)) shards)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Router.drain ~timeout_s:10.0 router);
      List.iter (fun (_, stop) -> stop ()) shards;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !held)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let cluster, rows = Router.merged_ledger router in
      let took = Unix.gettimeofday () -. t0 in
      check Alcotest.bool
        (Printf.sprintf "answered within one deadline (%.1f s)" took)
        true (took < 7.0);
      check
        Alcotest.(list string)
        "every shard has a row, in shard order"
        (List.map (fun (p, _) -> Printf.sprintf "127.0.0.1:%d" p) shards)
        (List.map (fun l -> l.Request.l_node) rows);
      check Alcotest.(list bool) "all three unreachable" [ false; false; false ]
        (List.map (fun l -> l.Request.l_reachable) rows);
      check Alcotest.int "they add no questions" 0 cluster.Request.l_questions;
      (* on the wire the row says so, and decodes back *)
      let row = List.hd rows in
      check Alcotest.bool "wire round-trip keeps unreachable" true
        (Request.ledger_of_json (Request.ledger_to_json row) = Some row);
      check Alcotest.bool "healthy rows carry no unreachable field" true
        (Json.member "unreachable" (Request.ledger_to_json cluster) = None))

(* A client that floods malformed lines and never reads its answers:
   Conn stops reading once a window of answers is owed, so TCP pushes
   back on the client instead of the router queueing every answer. *)
let test_router_flood_is_bounded () =
  let shard = Server.start ~domains:1 () in
  let router = Router.start ~shards:[ ("127.0.0.1", Server.port shard) ] () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Router.drain ~timeout_s:30.0 router);
      ignore (Server.drain ~timeout_s:30.0 shard))
    (fun () ->
      let fd =
        match Proc.connect ~port:(Router.port router) () with
        | Ok fd -> fd
        | Error e -> Alcotest.fail e
      in
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.5;
      let junk = String.concat "" (List.init 4096 (fun _ -> "{not json}\n")) in
      let heap_bytes () =
        Gc.full_major ();
        (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)
      in
      let before = heap_bytes () in
      (* up to 8 MB of garbage in at most 3 s, or until TCP pushes back *)
      let deadline = Unix.gettimeofday () +. 3.0 in
      let rec flood sent =
        if sent >= 8 lsl 20 || Unix.gettimeofday () > deadline then sent
        else
          match Unix.write_substring fd junk 0 (String.length junk) with
          | k -> flood (sent + k)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              sent
      in
      let sent = flood 0 in
      let grown = heap_bytes () - before in
      Unix.close fd;
      check Alcotest.bool
        (Printf.sprintf "heap grew %d bytes under a %d-byte flood" grown sent)
        true
        (grown < 16 lsl 20))

(* ------------------------------------------------------------------ *)
(* Proc.with_server: the smokes' process harness, driven by a /bin/sh
   child that speaks the --port-file protocol, so no recdb binary is
   needed.  with_server appends "--port-file FILE", which reaches the
   script as $0 and $1. *)

let sh_server ~on_term =
  [|
    "/bin/sh";
    "-c";
    Printf.sprintf
      "trap 'exit %d' TERM; sleep 0.2; echo 4242 > \"$1.tmp\"; mv \"$1.tmp\" \
       \"$1\"; while :; do sleep 0.05; done"
      on_term;
  |]

let harness_paths name =
  let dir = Filename.get_temp_dir_name () in
  let base = Printf.sprintf "recdb_harness_%d_%s" (Unix.getpid ()) name in
  (Filename.concat dir (base ^ ".port"), Filename.concat dir (base ^ ".log"))

let test_with_server_ignores_stale_port_file () =
  let port_file, log = harness_paths "stale" in
  (* a dead server's port, left behind by an earlier run *)
  Out_channel.with_open_text port_file (fun oc -> output_string oc "1111\n");
  let r =
    Proc.with_server ~log ~port_file (sh_server ~on_term:0)
      (fun ~port ~metrics_port:_ -> port)
  in
  check Alcotest.(result int string) "the new child's port, clean exit"
    (Ok 4242) r;
  List.iter Sys.remove [ port_file; log ]

let test_with_server_nonzero_exit_fails () =
  let port_file, log = harness_paths "exit3" in
  let r =
    Proc.with_server ~log ~port_file (sh_server ~on_term:3)
      (fun ~port ~metrics_port:_ -> port)
  in
  check Alcotest.bool "exit 3 on SIGTERM is a failure" true (Result.is_error r);
  List.iter Sys.remove [ port_file; log ]

(* Proc.send_and_collect writes every request before reading a
   response, so a batch whose responses overflow the socket buffers must
   still come back whole — and, sorted by id, equal to the sequential
   reference.  E27's byte-identity gate rests on this. *)
let test_send_and_collect_large_batch () =
  let batch = Workload.mixed 5000 in
  let server = Server.start ~stats:false ~window:256 ~per_conn_window:64 () in
  let served =
    Fun.protect
      ~finally:(fun () -> ignore (Server.drain ~timeout_s:30.0 server))
      (fun () ->
        Proc.send_and_collect ~port:(Server.port server)
          (List.map (fun r -> Json.to_string (Request.to_json r)) batch))
  in
  match served with
  | Error e -> Alcotest.fail e
  | Ok lines ->
      check Alcotest.int "one response per request" 5000 (List.length lines);
      check Alcotest.bool "sorted by id = sequential reference" true
        (Proc.sort_by_id lines = Bench_util.sequential batch)

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "FNV-1a 64 test vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "owners, successors, validation" `Quick
            test_ring_basics;
          qcheck_spread;
          qcheck_remove_stability;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "componentwise merge + wire round-trip" `Quick
            test_ledger_merge;
          Alcotest.test_case "stats op at the serving door" `Quick
            test_stats_op_at_server;
        ] );
      ( "router",
        [
          Alcotest.test_case "byte passthrough over a live shard" `Quick
            test_router_passthrough;
          Alcotest.test_case
            "dead shards are typed errors, never router death" `Quick
            test_dead_shard_is_typed_never_fatal;
          Alcotest.test_case "a hedged request is answered exactly once"
            `Quick test_hedged_request_answered_once;
          Alcotest.test_case "responses of any length are forwarded" `Quick
            test_router_forwards_long_responses;
          Alcotest.test_case "stats answers mute shards within one deadline"
            `Quick test_stats_deadline_with_mute_shards;
          Alcotest.test_case "a never-reading flood does not grow the heap"
            `Quick test_router_flood_is_bounded;
        ] );
      ( "proc",
        [
          Alcotest.test_case "with_server never reads a stale port file"
            `Quick test_with_server_ignores_stale_port_file;
          Alcotest.test_case "with_server fails a nonzero exit on SIGTERM"
            `Quick test_with_server_nonzero_exit_fails;
          Alcotest.test_case "send_and_collect returns a 5000-request batch"
            `Quick test_send_and_collect_large_batch;
        ] );
    ]
