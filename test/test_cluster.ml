(* lib/cluster: the consistent-hash ring (QCheck-tested spread and
   stability), the question-ledger merge, the stats wire op at the
   serving door, and the router's survival of abruptly dying shards
   (the SIGPIPE/kill -9 regression: a dead shard is a typed error,
   never a dead router). *)

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
        ]
      in
      (* the router dials its upstream asynchronously after start; a
         request routed before that connect lands is a typed
         oracle_unavailable, so wait for the shard to be up *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        (Router.counters router).Router.shards_up < 1
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.01
      done;
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

(* A "shard" that accepts one connection, reads a little, then slams
   the socket shut — the router's subsequent writes hit EPIPE/ECONNRESET
   exactly as they would against a kill -9'd process. *)
let slammer_shard () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", 0));
  Unix.listen fd 8;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  (* not joined: a thread blocked in [accept] is not woken by closing
     the listening fd on Linux; it parks harmlessly until process exit *)
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        let rec serve () =
          match Unix.accept fd with
          | conn, _ ->
              (* linger 0 turns close into RST — the abrupt death *)
              (try Unix.setsockopt_optint conn Unix.SO_LINGER (Some 0)
               with Unix.Unix_error _ -> ());
              let buf = Bytes.create 256 in
              (try ignore (Unix.read conn buf 0 256)
               with Unix.Unix_error _ -> ());
              (try Unix.close conn with Unix.Unix_error _ -> ());
              serve ()
          | exception Unix.Unix_error _ -> ()
        in
        serve ())
      ()
  in
  (port, fd)

let test_dead_shard_is_typed_never_fatal () =
  let p1, fd1 = slammer_shard () in
  let p2, fd2 = slammer_shard () in
  let router =
    Router.start ~stats:false ~queue_timeout_s:2.0
      ~shards:[ ("127.0.0.1", p1); ("127.0.0.1", p2) ]
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Router.drain ~timeout_s:10.0 router);
      (try Unix.close fd1 with Unix.Unix_error _ -> ());
      (try Unix.close fd2 with Unix.Unix_error _ -> ()))
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
