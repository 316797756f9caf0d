type limits = { max_oracle_calls : int option; deadline_s : float option }

let no_limits = { max_oracle_calls = None; deadline_s = None }
let unlimited l = l.max_oracle_calls = None && l.deadline_s = None

exception Budget_hit of { limit : int }
exception Deadline_hit of { deadline_s : float; elapsed_s : float }

(* The hot-path state is four mutable ints/floats so a tick is a
   decrement, a compare, and (every [deadline_check_mask]+1 ticks) one
   gettimeofday.  Disarmed means calls_left = max_int and deadline =
   infinity, so the same code runs — and never raises — outside a
   request. *)
type t = {
  mutable calls_left : int;
  mutable limit : int;
  mutable deadline : float;  (* absolute, seconds since epoch *)
  mutable deadline_rel : float;  (* as armed, for error reporting *)
  mutable started : float;
  mutable ticks : int;
}

let deadline_check_mask = 15

let create () =
  {
    calls_left = max_int;
    limit = max_int;
    deadline = infinity;
    deadline_rel = infinity;
    started = 0.0;
    ticks = 0;
  }

let arm t l =
  let now = Unix.gettimeofday () in
  t.started <- now;
  t.ticks <- 0;
  (match l.max_oracle_calls with
  | Some n when n >= 0 ->
      t.calls_left <- n;
      t.limit <- n
  | _ ->
      t.calls_left <- max_int;
      t.limit <- max_int);
  match l.deadline_s with
  | Some d when d >= 0.0 ->
      t.deadline <- now +. d;
      t.deadline_rel <- d
  | _ ->
      t.deadline <- infinity;
      t.deadline_rel <- infinity

let disarm t =
  t.calls_left <- max_int;
  t.limit <- max_int;
  t.deadline <- infinity;
  t.deadline_rel <- infinity

let tick t =
  t.calls_left <- t.calls_left - 1;
  if t.calls_left < 0 then begin
    t.calls_left <- 0;
    raise (Budget_hit { limit = t.limit })
  end;
  t.ticks <- t.ticks + 1;
  if t.ticks land deadline_check_mask = 0 && t.deadline <> infinity then begin
    let now = Unix.gettimeofday () in
    if now > t.deadline then
      raise
        (Deadline_hit
           { deadline_s = t.deadline_rel; elapsed_s = now -. t.started })
  end
