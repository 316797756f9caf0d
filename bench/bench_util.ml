let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let best_of trials f =
  let rec go n (x, best) =
    if n <= 0 then (x, best)
    else
      let y, s = time f in
      go (n - 1) (y, Float.min best s)
  in
  go (trials - 1) (time f)

let bytes r = Json.to_string (Request.response_to_json ~stats:false r)

let sequential batch =
  List.map bytes (Engine.handle_all (Engine.create ()) batch)

type row = {
  b_name : string;
  b_requests : int;
  b_wall_s : float;
  b_detail : (string * Json.t) list;
}

let row_to_json r =
  Json.Obj
    ([
       ("name", Json.String r.b_name);
       ("requests", Json.Int r.b_requests);
       ("wall_s", Json.Float r.b_wall_s);
     ]
    @ r.b_detail)

let write_opt out f =
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Json.to_string (f ()));
      output_char oc '\n';
      close_out oc)
    out
