(* Child-process plumbing shared by the shard supervisor, the cluster
   bench and the CI smokes: spawn a real recdb process, discover the
   ephemeral port it bound through its --port-file, talk to it over a
   one-shot connection.  Everything here forks genuine processes — the
   cluster tier's tests exercise real crash/respawn behaviour, not an
   in-process fake. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let spawn ?log argv =
  if Array.length argv = 0 then invalid_arg "Proc.spawn: empty argv";
  let out_fd =
    match log with
    | None -> Unix.stdout
    | Some log ->
        Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out_fd out_fd in
  (match log with Some _ -> Unix.close out_fd | None -> ());
  pid

let wait_port_file ?(timeout_s = 20.0) path =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let read () =
      let ic = open_in path in
      let p = int_of_string (String.trim (input_line ic)) in
      let mp =
        match input_line ic with
        | l -> int_of_string_opt (String.trim l)
        | exception End_of_file -> None
      in
      close_in ic;
      (p, mp)
    in
    (* the child writes port then metrics-port non-atomically; a
       half-written file parses on the next poll *)
    let again () =
      if Unix.gettimeofday () > deadline then
        Error (Printf.sprintf "no port file at %s within %.0fs" path timeout_s)
      else begin
        Unix.sleepf 0.05;
        go ()
      end
    in
    match if Sys.file_exists path then Some (read ()) else None with
    | Some r -> Ok r
    | None -> again ()
    | exception _ -> again ()
  in
  go ()

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Ok fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printexc.to_string e)

let send_and_collect ?host ?timeout_s ~port lines =
  Frame.ignore_sigpipe ();
  match connect ?host ~port () with
  | Error e -> Error e
  | Ok fd ->
      (match timeout_s with
      | None -> ()
      | Some s ->
          (* a stalled peer must not park the caller forever: the read
             times out as EAGAIN -> Error, never a hang *)
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
           with Unix.Unix_error _ -> ());
          (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
           with Unix.Unix_error _ -> ()));
      let result =
        try
          List.iter (Frame.write_line fd) lines;
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          let reader = Frame.reader fd in
          let rec collect acc =
            match Frame.read reader with
            | Frame.Line line -> collect (line :: acc)
            | Frame.Oversized _ | Frame.Truncated _ -> collect acc
            | Frame.Eof -> List.rev acc
          in
          Ok (collect [])
        with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      result

(* One endpoint of [ask_all]: connecting, reading its answer, or done
   with the answer line ([None]: refused, reset, closed short, late).
   Only the first two own an open socket. *)
type asking =
  | Dialling of Unix.file_descr
  | Reading of Unix.file_descr * Buffer.t
  | Answered of string option

let ask_all ~timeout_s endpoints line =
  Frame.ignore_sigpipe ();
  let deadline = Unix.gettimeofday () +. timeout_s in
  let request = line ^ "\n" in
  let chunk = Bytes.create 4096 in
  let answered fd answer =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Answered answer
  in
  let dial (host, port) =
    match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> Answered None
    | fd -> (
        Unix.set_nonblock fd;
        match
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
        with
        | () -> Dialling fd
        | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> Dialling fd
        | exception (Unix.Unix_error _ | Failure _) -> answered fd None)
  in
  (* a connect completes when the socket turns writable: send the line
     and half-close, as send_and_collect does *)
  let send fd =
    match Unix.getsockopt_error fd with
    | Some _ -> answered fd None
    | None -> (
        try
          ignore (Unix.write_substring fd request 0 (String.length request));
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          Reading (fd, Buffer.create 256)
        with Unix.Unix_error _ -> answered fd None)
  in
  let receive fd buf =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> answered fd None (* EOF before a whole line *)
    | n -> (
        Buffer.add_subbytes buf chunk 0 n;
        match String.index_opt (Buffer.contents buf) '\n' with
        | Some i -> answered fd (Some (Buffer.sub buf 0 i))
        | None when Buffer.length buf > 1 lsl 20 -> answered fd None
        | None -> Reading (fd, buf))
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        Reading (fd, buf)
    | exception Unix.Unix_error _ -> answered fd None
  in
  let slots = List.map (fun e -> ref (dial e)) endpoints in
  let rec loop () =
    let dialling =
      List.filter_map
        (fun s -> match !s with Dialling fd -> Some fd | _ -> None)
        slots
    in
    let reading =
      List.filter_map
        (fun s -> match !s with Reading (fd, _) -> Some fd | _ -> None)
        slots
    in
    let left = deadline -. Unix.gettimeofday () in
    if (dialling <> [] || reading <> []) && left > 0. then begin
      let readable, writable, _ =
        try Unix.select reading dialling [] left
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun s ->
          match !s with
          | Dialling fd when List.mem fd writable -> s := send fd
          | Reading (fd, buf) when List.mem fd readable -> s := receive fd buf
          | _ -> ())
        slots;
      loop ()
    end
  in
  (* whatever ends the loop, late endpoints are unanswered and closed *)
  Fun.protect loop ~finally:(fun () ->
      List.iter
        (fun s ->
          match !s with
          | Dialling fd | Reading (fd, _) -> s := answered fd None
          | Answered _ -> ())
        slots);
  List.map (fun s -> match !s with Answered a -> a | _ -> None) slots

let id_of line =
  match Json.parse line with
  | Ok j -> ( match Json.member "id" j with Some (Json.Int i) -> i | _ -> -1)
  | Error _ -> -1

let sort_by_id lines =
  List.sort (fun a b -> compare (id_of a) (id_of b)) lines

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

let kill_and_reap pid signal =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let with_server ~log ~port_file argv body =
  (try Sys.remove port_file with Sys_error _ -> ());
  let pid = spawn ~log (Array.append argv [| "--port-file"; port_file |]) in
  let failed fmt =
    Printf.ksprintf (fun s -> Error (Printf.sprintf "%s (log: %s)" s log)) fmt
  in
  match wait_port_file port_file with
  | Error e ->
      kill_and_reap pid Sys.sigkill;
      failed "%s" e
  | Ok (port, metrics_port) -> (
      let v =
        try body ~port ~metrics_port
        with e ->
          kill_and_reap pid Sys.sigkill;
          raise e
      in
      Unix.kill pid Sys.sigterm;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Ok v
      | _, Unix.WEXITED n -> failed "server exited %d on SIGTERM" n
      | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
          failed "server stopped by signal %d on SIGTERM" n)
