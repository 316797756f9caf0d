type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  stopped : bool Atomic.t;
  mutable thread : Thread.t option;
}

let bind ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  { listen_fd = fd; bound_port; stopped = Atomic.make false; thread = None }

let port t = t.bound_port

let accept_loop t on_accept =
  let rec loop () =
    if not (Atomic.get t.stopped) then
      match Unix.select [ t.listen_fd ] [] [] 0.05 with
      | [], _, _ -> loop ()
      | _ ->
          (match Unix.accept t.listen_fd with
          | fd, _addr ->
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              on_accept fd
          | exception Unix.Unix_error _ ->
              (* the peer gave up between select and accept (or EINTR):
                 that one connection is lost, the listener is not *)
              ());
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ ->
          (* the listening socket is broken beyond accepting *)
          ()
  in
  loop ()

let run t on_accept =
  t.thread <- Some (Thread.create (accept_loop t) on_accept)

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Option.iter Thread.join t.thread;
    t.thread <- None;
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end
