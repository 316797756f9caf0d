(* lib/net: frames, admission control, the TCP server and its
   interaction with the Def. 3.9 oracle-question ledger. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Client plumbing                                                     *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let send_raw fd s =
  let b = Bytes.of_string s in
  let n = ref 0 in
  while !n < Bytes.length b do
    n := !n + Unix.write fd b !n (Bytes.length b - !n)
  done

let send_line fd s = send_raw fd (s ^ "\n")

let read_line_exn reader =
  match Frame.read reader with
  | Frame.Line l -> l
  | Frame.Eof -> Alcotest.fail "unexpected EOF from server"
  | Frame.Truncated _ -> Alcotest.fail "unexpected truncated frame"
  | Frame.Oversized _ -> Alcotest.fail "unexpected oversized frame"

let parse_exn line =
  match Json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.fail ("response is not JSON: " ^ e)

let response_id j =
  match Json.member "id" j with Some (Json.Int i) -> i | _ -> -1

let error_kind j =
  match Option.bind (Json.member "error" j) (Json.member "kind") with
  | Some (Json.String k) -> Some k
  | _ -> None

let stats_field j name =
  match Option.bind (Json.member "stats" j) (Json.member name) with
  | Some (Json.Int n) -> n
  | _ -> -1

let classes_line id = Printf.sprintf "{\"id\":%d,\"op\":\"classes\",\"type\":[2,1],\"rank\":2}" id

let with_server ?window ?per_conn_window ?max_line ?stats f =
  let server =
    Server.start ?window ?per_conn_window ?max_line ?stats ~domains:2 ()
  in
  Fun.protect
    ~finally:(fun () -> ignore (Server.drain ~timeout_s:30.0 server))
    (fun () -> f server)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let test_admission_window () =
  let a = Admission.create ~window:2 in
  check Alcotest.bool "1st admitted" true (Admission.try_admit a);
  check Alcotest.bool "2nd admitted" true (Admission.try_admit a);
  check Alcotest.bool "3rd shed" false (Admission.try_admit a);
  check Alcotest.int "inflight" 2 (Admission.inflight a);
  Admission.release a;
  check Alcotest.bool "slot freed" true (Admission.try_admit a);
  Admission.release a;
  Admission.release a;
  check Alcotest.int "drained" 0 (Admission.inflight a);
  check Alcotest.int "high water" 2 (Admission.high_water a);
  check Alcotest.int "admitted" 3 (Admission.admitted a);
  check Alcotest.int "shed" 1 (Admission.shed a);
  Alcotest.check_raises "window < 1 rejected"
    (Invalid_argument "Admission.create: window < 1") (fun () ->
      ignore (Admission.create ~window:0))

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)

(* Drive the reader over a socketpair so it sees exactly the byte
   stream a TCP peer would produce. *)
let frame_feed bytes ~max_line =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  send_raw a bytes;
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  let reader = Frame.reader ~max_line b in
  let rec drain acc =
    match Frame.read reader with
    | Frame.Eof -> List.rev (Frame.Eof :: acc)
    | x -> drain (x :: acc)
  in
  let inputs = drain [] in
  Unix.close a;
  Unix.close b;
  inputs

let test_frame_lines () =
  let inputs = frame_feed "one\ntwo\r\n\nthree" ~max_line:64 in
  check Alcotest.int "4 inputs + eof" 5 (List.length inputs);
  (match inputs with
  | [ Frame.Line a; Frame.Line b; Frame.Line c; Frame.Truncated d; Frame.Eof ]
    ->
      check Alcotest.string "plain line" "one" a;
      check Alcotest.string "CR stripped" "two" b;
      check Alcotest.string "empty line survives" "" c;
      check Alcotest.string "unterminated tail is truncated" "three" d
  | _ -> Alcotest.fail "unexpected input shapes")

let test_frame_oversized () =
  let big = String.make 200 'x' in
  let inputs = frame_feed (big ^ "\nafter\n") ~max_line:64 in
  match inputs with
  | [ Frame.Oversized n; Frame.Line l; Frame.Eof ] ->
      check Alcotest.bool "reported size exceeds limit" true (n > 64);
      check Alcotest.string "next line intact after discard" "after" l
  | _ -> Alcotest.fail "oversized frame did not resync to the next line"

let test_decode_line () =
  (match Request.decode_line ~default_id:3 "   " with
  | `Empty -> ()
  | _ -> Alcotest.fail "blank line should be `Empty");
  (match Request.decode_line ~default_id:3 (classes_line 9) with
  | `Request r -> check Alcotest.int "declared id wins" 9 r.Request.id
  | _ -> Alcotest.fail "valid line should decode");
  match Request.decode_line ~default_id:3 "{not json" with
  | `Error r ->
      check Alcotest.int "default id on parse failure" 3 r.Request.id;
      check Alcotest.bool "typed error" true (Result.is_error r.Request.result)
  | _ -> Alcotest.fail "bad line should be `Error"

(* ------------------------------------------------------------------ *)
(* Server: bad frames never kill the connection                        *)

(* One exchange of broken frames against a front door on [port],
   checked line by line; returns the raw response lines so two doors
   can be compared byte for byte. *)
let survives_bad_frames port =
  let fd = connect port in
  let reader = Frame.reader fd in
  let next () =
    let line = read_line_exn reader in
    (line, parse_exn line)
  in
  (* malformed JSON *)
  send_line fd "{definitely not json";
  let l1, r1 = next () in
  check Alcotest.(option string) "malformed -> parse_error"
    (Some "parse_error") (error_kind r1);
  check Alcotest.int "line number as id" 1 (response_id r1);
  (* oversized frame *)
  send_line fd (String.make 300 'z');
  let l2, r2 = next () in
  check Alcotest.(option string) "oversized -> parse_error"
    (Some "parse_error") (error_kind r2);
  (* valid JSON, bad request *)
  send_line fd "{\"id\":5,\"op\":\"nonsense\"}";
  let l3, r3 = next () in
  check Alcotest.(option string) "unknown op -> bad_request"
    (Some "bad_request") (error_kind r3);
  (* decode errors carry the line number, exactly as in serve-batch *)
  check Alcotest.int "line number as id on decode error" 3 (response_id r3);
  (* ...and the connection still serves real work *)
  send_line fd (classes_line 6);
  let l4, r4 = next () in
  check Alcotest.int "served after three bad frames" 6 (response_id r4);
  check Alcotest.(option string) "no error" None (error_kind r4);
  (* truncated frame: bytes but no newline, then half-close *)
  send_raw fd "{\"id\":7";
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let l5, r5 = next () in
  check Alcotest.(option string) "truncated -> parse_error"
    (Some "parse_error") (error_kind r5);
  (match Frame.read reader with
  | Frame.Eof -> ()
  | _ -> Alcotest.fail "expected EOF after half-close");
  Unix.close fd;
  [ l1; l2; l3; l4; l5 ]

let test_server_survives_bad_frames () =
  with_server ~max_line:128 ~stats:false (fun server ->
      ignore (survives_bad_frames (Server.port server)))

(* The router serves its clients through the same Conn as serve, so
   the same broken frames get the same bytes back — the served line
   forwarded from a shard included. *)
let test_router_answers_bad_frames_as_serve () =
  let direct =
    with_server ~max_line:128 ~stats:false (fun server ->
        survives_bad_frames (Server.port server))
  in
  with_server ~stats:false (fun shard ->
      let router =
        Router.start ~max_line:128 ~stats:false
          ~shards:[ ("127.0.0.1", Server.port shard) ]
          ()
      in
      Fun.protect
        ~finally:(fun () -> ignore (Router.drain ~timeout_s:30.0 router))
        (fun () ->
          (* the upstream connects asynchronously after start *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            (Router.counters router).Router.shards_up < 1
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.01
          done;
          check
            Alcotest.(list string)
            "router lines = serve bytes" direct
            (survives_bad_frames (Router.port router))))

(* ------------------------------------------------------------------ *)
(* Server: overload sheds are typed and ask zero oracle questions      *)

let test_server_sheds_typed_and_question_free () =
  with_server ~window:1 (fun server ->
      (* Occupy the whole admission window from outside, so the next
         request over the wire must be shed — deterministically, with
         no timing dependence. *)
      let adm = Server.admission server in
      check Alcotest.bool "window occupied" true (Admission.try_admit adm);
      let fd = connect (Server.port server) in
      let reader = Frame.reader fd in
      send_line fd (classes_line 1);
      let r = parse_exn (read_line_exn reader) in
      check Alcotest.(option string) "typed overloaded error"
        (Some "overloaded") (error_kind r);
      check Alcotest.int "declared id echoed" 1 (response_id r);
      check Alcotest.int "zero oracle calls in stats" 0
        (stats_field r "oracle_calls");
      check Alcotest.int "zero T_B calls in stats" 0 (stats_field r "tb_calls");
      check Alcotest.int "a shed asks the pool nothing" 0
        (Pool.oracle_questions (Server.pool server));
      check Alcotest.int "ledger: one shed" 1 (Admission.shed adm);
      (* free the window: the same connection serves again *)
      Admission.release adm;
      (* a sentence, not a classes count: sentences genuinely consult
         the oracle, so the contrast with the shed's zero is visible
         in the pool ledger *)
      send_line fd
        "{\"id\":2,\"op\":\"sentence\",\"instance\":\"triangles\",\
         \"sentence\":\"exists x. exists y. R1(x, y)\"}";
      let r2 = parse_exn (read_line_exn reader) in
      check Alcotest.(option string) "served once window is free" None
        (error_kind r2);
      check Alcotest.bool "the served request did ask questions" true
        (Pool.oracle_questions (Server.pool server) > 0);
      Unix.close fd)

(* ------------------------------------------------------------------ *)
(* Server: a client disconnecting mid-request harms nobody else        *)

let test_server_survives_disconnect () =
  with_server (fun server ->
      (* connection A fires a request and vanishes without reading *)
      let a = connect (Server.port server) in
      send_line a (classes_line 100);
      Unix.close a;
      (* connection B, meanwhile, gets everything it asked for *)
      let b = connect (Server.port server) in
      let reader = Frame.reader b in
      for i = 1 to 5 do
        send_line b (classes_line i)
      done;
      let ids =
        List.sort compare
          (List.init 5 (fun _ -> response_id (parse_exn (read_line_exn reader))))
      in
      check Alcotest.(list int) "all of B's requests answered"
        [ 1; 2; 3; 4; 5 ] ids;
      Unix.close b;
      (* A's request was still admitted, computed and accounted — the
         ledger keeps the question count even though the response was
         dropped on the dead socket. *)
      let adm = Server.admission server in
      (* B's answers can all arrive before A's reader thread has even
         read A's line, so wait for the admission rather than race it *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Admission.admitted adm < 6 && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      check Alcotest.int "A's request admitted" 6 (Admission.admitted adm))

(* ------------------------------------------------------------------ *)
(* Server: drain answers everything it admitted                        *)

let test_server_drain_answers_admitted () =
  let server = Server.start ~domains:2 () in
  let fd = connect (Server.port server) in
  let n = 8 in
  for i = 1 to n do
    send_line fd (classes_line i)
  done;
  (* Wait until the server has admitted all of them — bytes still
     sitting in the socket buffer are not "admitted" and a drain may
     legitimately drop them with the half-close. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    Admission.admitted (Server.admission server) < n
    && Unix.gettimeofday () < deadline
  do
    Thread.yield ()
  done;
  check Alcotest.int "all admitted before drain" n
    (Admission.admitted (Server.admission server));
  (* Drain with the responses unread: the half-close must still let
     every admitted request answer before the sockets come down. *)
  (match Server.drain ~timeout_s:30.0 server with
  | `Clean -> ()
  | `Forced k -> Alcotest.failf "drain aborted %d connection(s)" k);
  let reader = Frame.reader fd in
  let rec collect acc =
    match Frame.read reader with
    | Frame.Line l -> collect (response_id (parse_exn l) :: acc)
    | Frame.Eof | Frame.Truncated _ -> List.rev acc
    | Frame.Oversized _ -> Alcotest.fail "oversized response"
  in
  let ids = List.sort compare (collect []) in
  Unix.close fd;
  check Alcotest.(list int) "every admitted request answered, then EOF"
    (List.init n (fun i -> i + 1))
    ids

(* ------------------------------------------------------------------ *)
(* Server: the wire changes nothing — byte identity with the engine    *)

let test_server_byte_identity () =
  let batch = Workload.mixed 60 in
  let reference =
    List.map
      (fun r -> Json.to_string (Request.response_to_json ~stats:false r))
      (Engine.handle_all (Engine.create ()) batch)
  in
  with_server ~stats:false ~window:128 ~per_conn_window:64 (fun server ->
      let fd = connect (Server.port server) in
      let reader = Frame.reader fd in
      let sender =
        Thread.create
          (fun () ->
            List.iter
              (fun r -> send_line fd (Json.to_string (Request.to_json r)))
              batch)
          ()
      in
      let served =
        List.init (List.length batch) (fun _ -> read_line_exn reader)
      in
      Thread.join sender;
      Unix.close fd;
      let sort lines =
        List.sort compare
          (List.map (fun l -> (response_id (parse_exn l), l)) lines)
        |> List.map snd
      in
      check
        Alcotest.(list string)
        "socket responses byte-identical to Engine.handle_all (sorted by id)"
        (sort reference) (sort served))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "net"
    [
      ( "admission",
        [
          Alcotest.test_case "window, high water, ledger" `Quick
            test_admission_window;
        ] );
      ( "frame",
        [
          Alcotest.test_case "lines, CRLF, truncated tail" `Quick
            test_frame_lines;
          Alcotest.test_case "oversized frames resync" `Quick
            test_frame_oversized;
          Alcotest.test_case "decode_line (shared per-line step)" `Quick
            test_decode_line;
        ] );
      ( "server",
        [
          Alcotest.test_case "bad frames never kill the connection" `Quick
            test_server_survives_bad_frames;
          Alcotest.test_case "router answers bad frames as serve does" `Quick
            test_router_answers_bad_frames_as_serve;
          Alcotest.test_case "sheds are typed and question-free" `Quick
            test_server_sheds_typed_and_question_free;
          Alcotest.test_case "disconnect mid-request harms nobody" `Quick
            test_server_survives_disconnect;
          Alcotest.test_case "drain answers everything admitted" `Quick
            test_server_drain_answers_admitted;
          Alcotest.test_case "byte identity with the engine" `Quick
            test_server_byte_identity;
        ] );
    ]
