(* E30: the durability benchmark ([recdb bench store],
   [BENCH_store.json]).

   Cold vs warm start on the mixed workload (the E24 batch plus RQL
   requests so plan-cache entries are exercised): serve cold, snapshot,
   then reload into a fresh memo and serve the same batch warm.  The
   gates are the durability contract itself — warm responses
   byte-identical to cold, warm genuine-question count < 5% of cold —
   plus fault rows (truncated snapshot, bit-flipped record, future
   format version) that must each recover to a correct, possibly
   colder, state. *)

type phase = {
  p_questions : int;  (** Def. 3.9 ledger for the whole batch *)
  p_wall_s : float;
  p_first_response_s : float;  (** time to answer the batch's head *)
  p_load_s : float;  (** snapshot load time (0 when cold) *)
  p_entries_loaded : int;
  p_identical : bool;  (** responses byte-identical to the cold run *)
}

type fault_row = {
  f_name : string;
  f_entries_loaded : int;
  f_entries_skipped : int;
  f_torn_tail : bool;
  f_refused : bool;
  f_questions : int;
  f_identical : bool;  (** still byte-identical — never a wrong answer *)
}

type result = {
  b_requests : int;
  cold : phase;
  warm : phase;
  question_ratio : float;  (** warm / cold *)
  snapshot_entries : int;
  snapshot_bytes : int;
  faults : fault_row list;
  b_violations : string list;
}

let response_bytes resp =
  Json.to_string (Request.response_to_json ~stats:false resp)

let build_workload n =
  let base = Engine_bench.build_batch (max 1 (n * 3 / 4)) in
  let rql =
    Engine_bench.build_rql_batch ~planner:Request.Plan_cost (max 1 (n / 4))
  in
  base @ rql

(* Serve [batch] on a fresh single-domain pool over [memo], returning
   the ledger and the response bytes.  One domain keeps the ledger
   deterministic on any host (no cross-worker cold-key races). *)
let serve memo batch =
  let pool = Pool.create ~domains:1 ~shared:memo () in
  let t0 = Unix.gettimeofday () in
  let first =
    match batch with
    | [] -> []
    | r :: _ -> Pool.run_batch pool [ r ]
  in
  let first_s = Unix.gettimeofday () -. t0 in
  let rest = match batch with [] -> [] | _ :: rs -> Pool.run_batch pool rs in
  let wall = Unix.gettimeofday () -. t0 in
  let questions = Pool.oracle_questions pool in
  Pool.shutdown ~timeout_s:10. pool;
  (List.map response_bytes (first @ rest), questions, wall, first_s)

let load_into_fresh_memo ~dir =
  let memo = Shared_memo.create () in
  let t0 = Unix.gettimeofday () in
  let store, report = Store.open_store ~write_behind:false ~dir memo in
  let load_s = Unix.gettimeofday () -. t0 in
  (memo, store, report, load_s)

(* Flip one byte well inside the snapshot body (past the header and
   first frame header, so the damage lands in a record payload). *)
let corrupt_snapshot ~dir =
  let path = Filename.concat dir "snapshot.rdb" in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  let off = Store_codec.header_len + 8 + 2 in
  if off < n then
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let truncate_snapshot ~dir =
  let path = Filename.concat dir "snapshot.rdb" in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let keep = max Store_codec.header_len (n - (n / 3)) in
  let b = Bytes.create keep in
  really_input ic b 0 keep;
  close_in ic;
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let future_version_snapshot ~dir =
  let path = Filename.concat dir "snapshot.rdb" in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  (* bump the u32 LE version field at offset 4 *)
  Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) + 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat src f) in
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      close_in ic;
      let oc = open_out_bin (Filename.concat dst f) in
      output_bytes oc b;
      close_out oc)
    (Sys.readdir src)

let fault_run ~name ~golden ~pristine ~batch ~cold_bytes damage =
  let dir = pristine ^ "." ^ name in
  copy_dir golden dir;
  damage ~dir;
  let memo, store, report, _ = load_into_fresh_memo ~dir in
  let bytes, questions, _, _ = serve memo batch in
  Store.close store;
  let row =
    {
      f_name = name;
      f_entries_loaded = report.Store.entries_loaded;
      f_entries_skipped = report.Store.entries_skipped;
      f_torn_tail = report.Store.torn_tail;
      f_refused = report.Store.refused <> None;
      f_questions = questions;
      f_identical = bytes = cold_bytes;
    }
  in
  rm_rf dir;
  row

let workload ?(requests = 160) () =
  let dir = "_store_bench" in
  let batch = build_workload requests in
  rm_rf dir;
  (* --- cold ------------------------------------------------------- *)
  let memo = Shared_memo.create () in
  let store, _ = Store.open_store ~write_behind:false ~dir memo in
  let cold_bytes, cold_questions, cold_wall, cold_first = serve memo batch in
  let snap = Store.snapshot_now store in
  Store.close store;
  let cold =
    {
      p_questions = cold_questions;
      p_wall_s = cold_wall;
      p_first_response_s = cold_first;
      p_load_s = 0.;
      p_entries_loaded = 0;
      p_identical = true;
    }
  in
  (* --- warm ------------------------------------------------------- *)
  let golden = dir ^ ".golden" in
  copy_dir dir golden;
  let memo2, store2, report2, load_s = load_into_fresh_memo ~dir in
  let warm_bytes, warm_questions, warm_wall, warm_first = serve memo2 batch in
  Store.close store2;
  let warm =
    {
      p_questions = warm_questions;
      p_wall_s = warm_wall;
      p_first_response_s = warm_first;
      p_load_s = load_s;
      p_entries_loaded = report2.Store.entries_loaded;
      p_identical = warm_bytes = cold_bytes;
    }
  in
  (* --- fault rows -------------------------------------------------- *)
  let faults =
    [
      fault_run ~name:"truncated" ~golden ~pristine:dir ~batch ~cold_bytes
        (fun ~dir -> truncate_snapshot ~dir);
      fault_run ~name:"bit_flip" ~golden ~pristine:dir ~batch ~cold_bytes
        (fun ~dir -> corrupt_snapshot ~dir);
      fault_run ~name:"future_version" ~golden ~pristine:dir ~batch
        ~cold_bytes (fun ~dir -> future_version_snapshot ~dir);
    ]
  in
  rm_rf golden;
  rm_rf dir;
  let ratio =
    if cold_questions = 0 then 0.
    else float_of_int warm_questions /. float_of_int cold_questions
  in
  let violations =
    List.concat
      [
        (if warm.p_identical then []
         else [ "warm responses not byte-identical to cold" ]);
        (if ratio < 0.05 then []
         else
           [
             Printf.sprintf
               "warm questions %d not < 5%% of cold %d (ratio %.3f)"
               warm_questions cold_questions ratio;
           ]);
        List.concat_map
          (fun f ->
            if f.f_identical then []
            else [ Printf.sprintf "fault %s produced non-identical responses" f.f_name ])
          faults;
        (match List.find_opt (fun f -> f.f_name = "future_version") faults with
        | Some f when not f.f_refused ->
            [ "future-version snapshot was not refused" ]
        | _ -> []);
        (match List.find_opt (fun f -> f.f_name = "truncated") faults with
        | Some f when not f.f_torn_tail ->
            [ "truncated snapshot not detected as torn" ]
        | _ -> []);
        (match List.find_opt (fun f -> f.f_name = "bit_flip") faults with
        | Some f when f.f_entries_skipped = 0 ->
            [ "bit-flipped snapshot skipped no record" ]
        | _ -> []);
      ]
  in
  {
    b_requests = List.length batch;
    cold;
    warm;
    question_ratio = ratio;
    snapshot_entries = snap.Store.entries_written;
    snapshot_bytes = snap.Store.bytes_written;
    faults;
    b_violations = violations;
  }

let phase_json p =
  Json.Obj
    [
      ("questions", Json.Int p.p_questions);
      ("wall_s", Json.Float p.p_wall_s);
      ("first_response_s", Json.Float p.p_first_response_s);
      ("load_s", Json.Float p.p_load_s);
      ("entries_loaded", Json.Int p.p_entries_loaded);
      ("identical", Json.Bool p.p_identical);
    ]

let to_json (r : result) =
  Json.Obj
    [
      ( "workload",
        Json.String "mixed batch + RQL over five instances, cold vs warm start"
      );
      ("requests", Json.Int r.b_requests);
      ("cold", phase_json r.cold);
      ("warm", phase_json r.warm);
      ("question_ratio", Json.Float r.question_ratio);
      ( "snapshot",
        Json.Obj
          [
            ("entries", Json.Int r.snapshot_entries);
            ("bytes", Json.Int r.snapshot_bytes);
          ] );
      ( "faults",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("name", Json.String f.f_name);
                   ("entries_loaded", Json.Int f.f_entries_loaded);
                   ("entries_skipped", Json.Int f.f_entries_skipped);
                   ("torn_tail", Json.Bool f.f_torn_tail);
                   ("refused", Json.Bool f.f_refused);
                   ("questions", Json.Int f.f_questions);
                   ("identical", Json.Bool f.f_identical);
                 ])
             r.faults) );
      ( "violations",
        Json.List (List.map (fun s -> Json.String s) r.b_violations) );
    ]

let run ?out ?requests () =
  Format.printf "Durability benchmark (E30):@.";
  let r = workload ?requests () in
  Format.printf
    "  cold: %d questions, %.3fs (first response %.4fs)@."
    r.cold.p_questions r.cold.p_wall_s r.cold.p_first_response_s;
  Format.printf
    "  warm: %d questions (%.1f%% of cold), %.3fs (load %.4fs + first \
     response %.4fs), %d entries loaded@."
    r.warm.p_questions
    (100. *. r.question_ratio)
    r.warm.p_wall_s r.warm.p_load_s r.warm.p_first_response_s
    r.warm.p_entries_loaded;
  Format.printf "  snapshot: %d entries, %d bytes@." r.snapshot_entries
    r.snapshot_bytes;
  List.iter
    (fun f ->
      Format.printf
        "  fault %-14s loaded %d, skipped %d%s%s, %d questions, identical %b@."
        f.f_name f.f_entries_loaded f.f_entries_skipped
        (if f.f_torn_tail then ", torn tail" else "")
        (if f.f_refused then ", refused" else "")
        f.f_questions f.f_identical)
    r.faults;
  Format.printf "  warm and fault responses byte-identical: %b@."
    (r.warm.p_identical && List.for_all (fun f -> f.f_identical) r.faults);
  Json.write_opt out (fun () -> to_json r);
  r.b_violations
