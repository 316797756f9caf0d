(* A single-threaded, select-based load generator.

   One thread owns every connection (at most nproc of them), so the
   generator never hands a response between threads and never hides a
   stall: in open loop each request is timed from the moment it was
   {e due}, and the generator's own lateness (sent minus due) is kept
   per request so a run can show the generator kept up.

   Request [i] is encoded at send time by [line i] and carries id
   [base + i]; a response is matched to its request by the id at the
   head of the line, so responses may come back in any order. *)

type sample = {
  mutable due : float;  (** when the request was scheduled *)
  mutable sent : float;  (** when the generator queued its bytes *)
  mutable recv : float;  (** 0. until answered *)
  mutable resp : string;
}

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;  (* bytes queued, from [out_off] on *)
  mutable out_off : int;
  inbuf : Buffer.t;  (* an incomplete trailing line *)
  mutable outstanding : int;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  {
    fd;
    out = Buffer.create 65536;
    out_off = 0;
    inbuf = Buffer.create 65536;
    outstanding = 0;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* The id at the head of a response line: every response starts with
   {"id":N — the router rewrites the prefix back to the client's id. *)
let id_of_line l =
  let n = String.length l in
  let rec digits i acc =
    if i < n && l.[i] >= '0' && l.[i] <= '9' then
      digits (i + 1) ((acc * 10) + Char.code l.[i] - 48)
    else acc
  in
  if n > 6 && String.sub l 0 6 = "{\"id\":" then digits 6 0 else -1

let flush c =
  let len = Buffer.length c.out - c.out_off in
  if len > 0 then
    match
      Unix.single_write_substring c.fd (Buffer.contents c.out) c.out_off len
    with
    | k ->
        c.out_off <- c.out_off + k;
        if c.out_off = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()

let chunk = Bytes.create 65536

(* Read what is there; hand each complete line to [on_line].  Returns
   false on EOF. *)
let drain_input c on_line =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | k ->
      Buffer.add_subbytes c.inbuf chunk 0 k;
      let s = Buffer.contents c.inbuf in
      let start = ref 0 in
      String.iteri
        (fun i ch ->
          if ch = '\n' then begin
            on_line (String.sub s !start (i - !start));
            start := i + 1
          end)
        s;
      Buffer.clear c.inbuf;
      Buffer.add_substring c.inbuf s !start (String.length s - !start);
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      true

type mode =
  | Closed  (** each connection keeps one request outstanding *)
  | Open of float  (** offered rate, requests/s, across all connections *)

type run = {
  samples : sample array;  (** the [attempted] requests, by index *)
  attempted : int;
  window_s : float;  (** start to last response *)
  lost : int;  (** no response by the drain deadline *)
}

(* Drive [conns] with requests [first], [first + 1], ... (at most
   [count] of them) for [seconds] of sending, then wait up to [drain_s]
   for the stragglers. *)
let drive ~conns ~line ~count ~base ~first ~mode ~seconds ~drain_s =
  let conns = Array.of_list conns in
  let nconn = Array.length conns in
  let total = count - first in
  (* grown on demand: a slice uses a small part of a long stream *)
  let samples = ref [||] in
  let sample i =
    if i >= Array.length !samples then begin
      let grown = Array.make (max 4096 (2 * i)) { due = 0.; sent = 0.; recv = 0.; resp = "" } in
      Array.blit !samples 0 grown 0 (Array.length !samples);
      for j = Array.length !samples to Array.length grown - 1 do
        grown.(j) <- { due = 0.; sent = 0.; recv = 0.; resp = "" }
      done;
      samples := grown
    end;
    !samples.(i)
  in
  let next = ref 0 and answered = ref 0 in
  let t0 = Unix.gettimeofday () in
  let t_end = t0 +. seconds in
  let send ci now due =
    let i = !next in
    let c = conns.(ci) in
    let s = sample i in
    Buffer.add_string c.out (line (first + i));
    s.due <- due;
    s.sent <- (match mode with Closed -> Unix.gettimeofday () | Open _ -> now);
    Buffer.add_char c.out '\n';
    c.outstanding <- c.outstanding + 1;
    incr next;
    flush c
  in
  let on_line ci now l =
    let i = id_of_line l - base - first in
    if i >= 0 && i < !next && !samples.(i).recv = 0. then begin
      !samples.(i).recv <- now;
      !samples.(i).resp <- l;
      incr answered
    end;
    conns.(ci).outstanding <- conns.(ci).outstanding - 1
  in
  (match mode with
  | Closed ->
      Array.iteri (fun ci _ -> if !next < total then send ci t0 t0) conns
  | Open _ -> ());
  let deadline = ref infinity in
  let fin = ref false in
  while not !fin do
    let now = Unix.gettimeofday () in
    let sending = now < t_end && !next < total in
    (match mode with
    | Open rate when sending ->
        let due_of i = t0 +. (float_of_int i /. rate) in
        while !next < total && due_of !next <= now && now < t_end do
          send (!next mod nconn) now (due_of !next)
        done
    | _ -> ());
    if (not sending) && !deadline = infinity then deadline := now +. drain_s;
    if !answered = !next && not sending then fin := true
    else if now > !deadline then fin := true
    else begin
      let timeout =
        match mode with
        | Open rate when sending ->
            Float.max 0. (t0 +. (float_of_int !next /. rate) -. now)
        | _ -> if sending then 0.05 else Float.min 0.05 (!deadline -. now)
      in
      let rd = Array.to_list (Array.map (fun c -> c.fd) conns) in
      let wr =
        Array.fold_left
          (fun acc c -> if Buffer.length c.out > c.out_off then c.fd :: acc else acc)
          [] conns
      in
      match Unix.select rd wr [] timeout with
      | r, w, _ ->
          let now = Unix.gettimeofday () in
          Array.iteri
            (fun ci c ->
              if List.mem c.fd w then flush c;
              if List.mem c.fd r then
                if not (drain_input c (on_line ci now)) then
                  (* the server hung up: nothing more will arrive here *)
                  deadline := now;
              (match mode with
              | Closed ->
                  if c.outstanding = 0 && now < t_end && !next < total then
                    send ci now now
              | Open _ -> ()))
            conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  let attempted = !next in
  let samples = Array.sub !samples 0 attempted in
  let last = Array.fold_left (fun m s -> Float.max m s.recv) t0 samples in
  {
    samples;
    attempted;
    window_s = Float.max 1e-9 (last -. t0);
    lost = attempted - !answered;
  }

(* Latency of an answered sample, from due time (open loop) or send
   time (closed loop: due = sent). *)
let latency s = s.recv -. s.due
let lateness s = s.sent -. s.due
