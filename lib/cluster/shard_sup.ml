(* The shard parent: spawn N child servers (each a full engine + pool
   + net stack — an ordinary [recdb serve]), then supervise.  A child
   that dies for any reason is respawned on the SAME port it first
   bound (the first spawn uses --port 0; Server.start sets
   SO_REUSEADDR), so the endpoint list handed to routers stays valid
   across crashes — respawn is invisible except as a brief connection
   outage, which the router's retry/hedge machinery absorbs. *)

type shard = {
  index : int;
  mutable pid : int;
  mutable port : int;  (* 0 until first discovery, then stable *)
  mutable up : bool;  (* bound and (as far as waitpid knows) running *)
  port_file : string;
  log : string;
}

type t = {
  exe : string;
  extra_args : string list;
  shards : shard array;
  lock : Mutex.t;
  mutable stopping : bool;
  mutable respawns : int;
  mutable sup_thread : Thread.t option;
  mutable expo_source : Obs.Expo.source option;
}

let argv ~exe ~extra_args (s : shard) =
  Array.of_list
    ([ exe; "serve"; "--port"; string_of_int s.port; "--port-file";
       s.port_file ]
    @ extra_args)

let spawn_shard ~exe ~extra_args s =
  (try Sys.remove s.port_file with Sys_error _ -> ());
  s.pid <- Proc.spawn ~log:s.log (argv ~exe ~extra_args s);
  match Proc.wait_port_file s.port_file with
  | Ok (port, _) ->
      s.port <- port;
      s.up <- true;
      Ok ()
  | Error e ->
      s.up <- false;
      Error (Printf.sprintf "shard %d: %s" s.index e)

let monitor t =
  let rec loop () =
    Mutex.lock t.lock;
    let stopping = t.stopping in
    Mutex.unlock t.lock;
    if not stopping then begin
      Array.iter
        (fun s ->
          if not (Proc.alive s.pid) then begin
            Mutex.lock t.lock;
            let respawn = not t.stopping in
            if respawn then t.respawns <- t.respawns + 1;
            s.up <- false;
            Mutex.unlock t.lock;
            if respawn then
              match spawn_shard ~exe:t.exe ~extra_args:t.extra_args s with
              | Ok () -> ()
              | Error _ ->
                  (* bind race with the dying socket; the next monitor
                     pass tries again (the child exits fast on bind
                     failure, so [alive] goes false again) *)
                  ()
          end)
        t.shards;
      Unix.sleepf 0.05;
      loop ()
    end
  in
  loop ()

let register_expo t =
  Obs.Expo.register "cluster_sup" (fun () ->
      Mutex.lock t.lock;
      let up =
        Array.fold_left (fun a s -> if s.up then a + 1 else a) 0 t.shards
      in
      let respawns = t.respawns in
      let rows =
        Array.to_list
          (Array.map
             (fun s ->
               Obs.Expo.Labeled_gauge
                 {
                   name = "cluster_shard_up";
                   help = "1 while the shard child process is running";
                   labels = [ ("shard", Printf.sprintf "127.0.0.1:%d" s.port) ];
                   value = (if s.up then 1.0 else 0.0);
                 })
             t.shards)
      in
      Mutex.unlock t.lock;
      Obs.Expo.Gauge
        {
          name = "cluster_shards_up";
          help = "shard children currently running";
          value = float_of_int up;
        }
      :: Obs.Expo.Counter
           {
             name = "cluster_respawns";
             help = "shard children respawned after a death";
             value = respawns;
           }
      :: rows)

let start ?(dir = "_shards") ?(extra_args = [ "-j"; "1" ]) ~exe ~n () =
  if n < 1 then invalid_arg "Shard_sup.start: n < 1";
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let shards =
    Array.init n (fun i ->
        {
          index = i;
          pid = -1;
          port = 0;
          up = false;
          port_file = Filename.concat dir (Printf.sprintf "shard%d.port" i);
          log = Filename.concat dir (Printf.sprintf "shard%d.log" i);
        })
  in
  let rec first_spawns i =
    if i = n then Ok ()
    else
      match spawn_shard ~exe ~extra_args shards.(i) with
      | Ok () -> first_spawns (i + 1)
      | Error e ->
          (* roll back the ones already running *)
          for k = 0 to i - 1 do
            Proc.kill_and_reap shards.(k).pid Sys.sigkill
          done;
          Error e
  in
  match first_spawns 0 with
  | Error e -> Error e
  | Ok () ->
      let t =
        {
          exe;
          extra_args;
          shards;
          lock = Mutex.create ();
          stopping = false;
          respawns = 0;
          sup_thread = None;
          expo_source = None;
        }
      in
      t.expo_source <- Some (register_expo t);
      t.sup_thread <- Some (Thread.create monitor t);
      Ok t

let endpoints t =
  Array.to_list (Array.map (fun s -> ("127.0.0.1", s.port)) t.shards)

let shards_up t =
  Mutex.lock t.lock;
  let n = Array.fold_left (fun a s -> if s.up then a + 1 else a) 0 t.shards in
  Mutex.unlock t.lock;
  n

let respawns t =
  Mutex.lock t.lock;
  let n = t.respawns in
  Mutex.unlock t.lock;
  n

let kill t i signal =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Shard_sup.kill: bad index";
  try Unix.kill t.shards.(i).pid signal with Unix.Unix_error _ -> ()

let stop t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Mutex.unlock t.lock;
  (match t.sup_thread with
  | Some th ->
      Thread.join th;
      t.sup_thread <- None
  | None -> ());
  (match t.expo_source with
  | Some s ->
      Obs.Expo.unregister s;
      t.expo_source <- None
  | None -> ());
  (* SIGTERM first for a graceful drain (children flush and exit 0),
     then reap; a child stuck past its own drain timeout is killed. *)
  Array.iter
    (fun s -> try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ())
    t.shards;
  Array.iter
    (fun s ->
      let deadline = Unix.gettimeofday () +. 40.0 in
      let rec reap () =
        match Unix.waitpid [ Unix.WNOHANG ] s.pid with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then
              Proc.kill_and_reap s.pid Sys.sigkill
            else begin
              Unix.sleepf 0.05;
              reap ()
            end
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      reap ();
      s.up <- false)
    t.shards
