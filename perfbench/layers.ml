(* The traced run's in-process half: replay a workload's stream through
   each layer's public entry points, with a bench-side span around every
   call, and reduce the spans to per-layer self times.

   Spans are kept in memory and written once, at the end of the run.
   Engine-internal phases (parse, plan, compile, attempt) come from the
   spans [Engine.create ?trace] already records; everything else is a
   span recorded here around the call into the layer. *)

type span = {
  sid : int;
  parent : int;  (** 0 for a root *)
  name : string;
  req : int;  (** request id *)
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let next_sid = ref 0

let fresh_sid () =
  incr next_sid;
  !next_sid

let record ?(sid = fresh_sid ()) ~parent ~req name t0 t1 =
  spans := { sid; parent; name; req; t0; t1 } :: !spans

(* Time [f] as a span named [name]; returns the value and the duration. *)
let time_span ?(parent = 0) ~req name f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  record ~parent ~req name t0 t1;
  (x, t1 -. t0)

let span_to_json s =
  Printf.sprintf
    "{\"span\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"start\":%.6f,\"end\":%.6f}"
    s.sid s.parent s.name s.req s.t0 s.t1

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let ratio hits misses =
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

let questions (s : Request.stats) =
  s.Request.oracle_calls + s.Request.tb_calls + s.Request.equiv_calls

(* Self time of every engine span, summed by name over a trace tree:
   a span's duration minus the part its children cover. *)
let rec add_self tbl (s : Obs.Trace.span) =
  let covered =
    List.fold_left (fun acc (c : Obs.Trace.span) -> acc +. c.Obs.Trace.dur_s) 0. s.children
  in
  let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.Obs.Trace.name) in
  Hashtbl.replace tbl s.Obs.Trace.name (prev +. Float.max 0. (s.dur_s -. covered));
  List.iter (add_self tbl) s.children

type replay = {
  responses : Request.response array;  (** timed requests, in order *)
  decode_s : float array;
  encode_s : float array;
  bytes : float array;
  journal_s : float array;
  traced_handle_s : float array;
  engine_self : (string, float) Hashtbl.t;  (** summed over timed requests *)
  slices_exact : bool;  (** every trace's ledger slices sum to its stats *)
  ledger_delta : int * int * int;  (** raw, T_B, ≅_B over the timed requests *)
  memo : Shared_memo.stats * Shared_memo.stats;  (** before, after *)
  cache : Oracle_cache.stats * Oracle_cache.stats;
  snapshots : Store.snapshot_report list;  (** oldest first *)
}

let req_of id p = Request.make ~id p

(* The traced replay: a fresh engine with a shared memo (what a one
   worker pool runs), a store on [dir] journaling every request, and a
   synchronous snapshot after each quarter of the timed requests. *)
let traced_replay ~warm ~timed ~base ~dir =
  let shared = Shared_memo.create () in
  let n = Array.length timed in
  let trace =
    Obs.Trace.make ~capacity:(n + Array.length warm + 1) ~sampling:Obs.Trace.All ()
  in
  let engine = Engine.create ~shared ~trace () in
  let store, _ =
    Store.open_store ~snapshot_interval_s:0. ~write_behind:false ~dir shared
  in
  Array.iteri (fun i p -> ignore (Engine.handle engine (req_of (i + 1) p))) warm;
  let memo0 = Shared_memo.stats shared and cache0 = Engine.cache_stats engine in
  let raw0, tb0, eq0, _ = Engine.ledger_counts engine in
  let decode_s = Array.make n 0. and encode_s = Array.make n 0. in
  let bytes = Array.make n 0. and journal_s = Array.make n 0. in
  let handle_s = Array.make n 0. in
  let snaps = ref [] in
  let responses =
    Array.mapi
      (fun i p ->
        let id = base + i in
        let line = Gen.line ~id p in
        let t0 = Unix.gettimeofday () in
        let root = fresh_sid () in
        let req, d =
          time_span ~parent:root ~req:id "request.decode" (fun () ->
              match Request.of_line line with
              | Ok r -> r
              | Error e -> failwith (Request.error_to_string e))
        in
        decode_s.(i) <- d;
        let seq, j =
          time_span ~parent:root ~req:id "store.journal_admit" (fun () ->
              Store.journal_admit store ~line)
        in
        journal_s.(i) <- j;
        let r, h =
          time_span ~parent:root ~req:id "engine.handle" (fun () -> Engine.handle engine req)
        in
        handle_s.(i) <- h;
        Store.journal_complete store seq;
        let s, e =
          time_span ~parent:root ~req:id "request.encode" (fun () ->
              Json.to_string (Request.response_to_json r))
        in
        encode_s.(i) <- e;
        bytes.(i) <- float_of_int (String.length s);
        if (i + 1) mod (max 1 (n / 4)) = 0 then begin
          let rep, _ =
            time_span ~parent:root ~req:id "store.snapshot" (fun () -> Store.snapshot_now store)
          in
          snaps := rep :: !snaps
        end;
        record ~sid:root ~parent:0 ~req:id "request" t0 (Unix.gettimeofday ());
        r)
      timed
  in
  let last, _ = time_span ~req:0 "store.snapshot" (fun () -> Store.snapshot_now store) in
  Store.close store;
  let raw1, tb1, eq1, _ = Engine.ledger_counts engine in
  let by_id = Hashtbl.create n in
  Array.iter (fun (r : Request.response) -> Hashtbl.replace by_id r.Request.id r) responses;
  let self = Hashtbl.create 8 in
  let exact = ref true in
  List.iter
    (fun (tr : Obs.Trace.trace) ->
      match Hashtbl.find_opt by_id tr.Obs.Trace.req_id with
      | Some r when tr.Obs.Trace.req_id >= base ->
          add_self self tr.Obs.Trace.root;
          if Obs.Trace.trace_questions tr <> questions r.Request.stats then exact := false
      | _ -> ())
    (Engine.traces engine);
  {
    responses;
    decode_s;
    encode_s;
    bytes;
    journal_s;
    traced_handle_s = handle_s;
    engine_self = self;
    slices_exact = !exact;
    ledger_delta = (raw1 - raw0, tb1 - tb0, eq1 - eq0);
    memo = (memo0, Shared_memo.stats shared);
    cache = (cache0, Engine.cache_stats engine);
    snapshots = List.rev (last :: !snaps);
  }

(* The same requests through an untraced engine: per-request handle
   time without tracing (the reference for the trace overhead and for
   the differenced layers). *)
let plain_replay ~warm ~timed ~base =
  let engine = Engine.create ~shared:(Shared_memo.create ()) () in
  Array.iteri (fun i p -> ignore (Engine.handle engine (req_of (i + 1) p))) warm;
  Array.mapi
    (fun i p ->
      let req = req_of (base + i) p in
      let t0 = Unix.gettimeofday () in
      ignore (Engine.handle engine req);
      Unix.gettimeofday () -. t0)
    timed

(* Submit-to-callback round trips through a one-domain pool. *)
let pool_round_trips ~warm ~timed ~base =
  let pool = Pool.create ~domains:1 () in
  ignore
    (Pool.run_batch pool (Array.to_list (Array.mapi (fun i p -> req_of (i + 1) p) warm)));
  let m = Mutex.create () and cv = Condition.create () in
  let rts =
    Array.mapi
      (fun i p ->
        let id = base + i in
        let req = req_of id p in
        let t_done = ref 0. in
        let t0 = Unix.gettimeofday () in
        Pool.submit pool req (fun _ ->
            let t = Unix.gettimeofday () in
            Mutex.lock m;
            t_done := t;
            Condition.signal cv;
            Mutex.unlock m);
        Mutex.lock m;
        while !t_done = 0. do
          Condition.wait cv m
        done;
        Mutex.unlock m;
        record ~parent:0 ~req:id "pool.round_trip" t0 !t_done;
        !t_done -. t0)
      timed
  in
  Pool.shutdown ~timeout_s:10. pool;
  rts

(* Parse, plan and prepare every RQL text of the stream, each phase
   timed on its own. *)
let rql_phases ~timed ~base =
  let insts = Hashtbl.create 8 in
  let inst name =
    match Hashtbl.find_opt insts name with
    | Some i -> i
    | None ->
        let i = Option.get (Engine.build_instance name) in
        Hashtbl.add insts name i;
        i
  in
  let parse = ref [] and plan = ref [] and prep = ref [] in
  Array.iteri
    (fun i (p : Request.payload) ->
      match p with
      | Request.Rql { instance; text; _ } -> (
          let req = base + i in
          try
            let ast, a = time_span ~req "rql.parse" (fun () -> Rql.Rql_plan.parse text) in
            let plan_t, b =
              time_span ~req "rql.plan" (fun () ->
                  Rql.Rql_plan.compile ~mode:Rql.Rql_plan.Planned ast)
            in
            let hs = inst instance in
            let _, c = time_span ~req "rql.prepare" (fun () -> Rql.Rql_compile.prepare hs plan_t) in
            parse := a :: !parse;
            plan := b :: !plan;
            prep := c :: !prep
          with _ -> ())
      | _ -> ())
    timed;
  let arr l = Array.of_list l in
  (arr !parse, arr !plan, arr !prep)

(* Reopen the store a traced replay left behind, on an empty memo. *)
let store_load ~dir =
  let memo = Shared_memo.create () in
  let (store, report), dt =
    time_span ~req:0 "store.open" (fun () ->
        Store.open_store ~snapshot_interval_s:0. ~write_behind:false ~dir memo)
  in
  Store.close store;
  (dt, report.Store.entries_loaded)
