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
