(* Child processes of the benchmark: real `recdb serve` / `recdb router`
   processes, found by their port files, measured through /proc, and
   always stopped and reaped before the benchmark exits. *)

let recdb = "_build/default/bin/recdb.exe"

(* Everything a run writes lives under this directory of the checkout:
   port files, server logs, store directories and the result files. *)
let work_dir = ".perfbench"
let tmp_dir = Filename.concat work_dir "tmp"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type child = { name : string; pid : int; port : int; metrics_port : int option }

let live : child list ref = ref []

let read_ports path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let line () = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
      let p = line () in
      let mp = line () in
      close_in ic;
      Option.map (fun p -> (p, mp)) p

(* Spawn [recdb args --port-file F] and wait until F names the bound
   port(s).  Port files are written by rename, so a complete read is a
   complete file. *)
let spawn ~name args =
  mkdir_p tmp_dir;
  let port_file = Filename.concat tmp_dir (name ^ ".port") in
  (try Sys.remove port_file with Sys_error _ -> ());
  let log =
    Unix.openfile
      (Filename.concat tmp_dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let argv = Array.of_list ((recdb :: args) @ [ "--port-file"; port_file ]) in
  let pid = Unix.create_process recdb argv Unix.stdin log log in
  Unix.close log;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match read_ports port_file with
    | Some (port, metrics_port) ->
        let c = { name; pid; port; metrics_port } in
        live := c :: !live;
        c
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith (Printf.sprintf "%s exited during start-up" name));
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith (Printf.sprintf "%s did not start within 30s" name)
        end;
        Unix.sleepf 0.002;
        wait ()
  in
  wait ()

(* SIGTERM (a graceful drain, which for a durable server writes the
   final snapshot), then SIGKILL if it has not exited within [grace]. *)
let stop ?(grace = 30.) c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.002;
        wait ()
    | 0, _ ->
        (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] c.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (fun l -> l.pid <> c.pid) !live

let stop_all () = List.iter (fun c -> stop ~grace:5. c) !live

(* user + system CPU of a process, all threads, in seconds. *)
let clk_tck = 100.

let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let l = input_line ic in
  close_in ic;
  (* fields after the parenthesised command: state is field 3, utime
     and stime are fields 14 and 15 *)
  let rest = String.sub l (String.rindex l ')' + 2) (String.length l - String.rindex l ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

(* CPU time the hypervisor gave to other guests ("steal"), summed over
   this host's CPUs, in seconds: a run with a lot of it was measured on
   a busy machine. *)
let steal_s () =
  let ic = open_in "/proc/stat" in
  let l = input_line ic in
  close_in ic;
  match List.filter (( <> ) "") (String.split_on_char ' ' l) with
  | "cpu" :: fields when List.length fields >= 8 ->
      float_of_string (List.nth fields 7) /. clk_tck
  | _ -> 0.

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  let v = go () in
  close_in ic;
  v

(* A blocking line exchange on its own connection: set-up traffic and
   the stats op, never the timed window. *)
type line_conn = { ic : in_channel; oc : out_channel }

let open_line_conn port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let exchange c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close_line_conn c = close_in_noerr c.ic

(* The serving node's cumulative Def. 3.9 ledger (the stats op). *)
let ledger c ~id =
  let l = exchange c (Printf.sprintf "{\"id\":%d,\"op\":\"stats\"}" id) in
  match Ledger_merge.of_response_line l with
  | Some led -> led
  | None -> failwith ("bad stats response: " ^ l)

(* GET /metrics on a metrics listener: (name, value) of every sample
   line. *)
let scrape port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  output_string oc "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
  flush oc;
  let rec go acc =
    match input_line ic with
    | l -> (
        match String.split_on_char ' ' (String.trim l) with
        | [ name; v ] when l <> "" && l.[0] <> '#' -> (
            match float_of_string_opt v with
            | Some x -> go ((name, x) :: acc)
            | None -> go acc)
        | _ -> go acc)
    | exception End_of_file -> acc
  in
  let r = go [] in
  close_in_noerr ic;
  r
