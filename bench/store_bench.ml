(* E30: the durability benchmark ([recdb bench store],
   [BENCH_store.json]).

   Cold vs warm start on {!Workload.mixed_with_rql} (the mixed batch
   plus RQL requests, so plan-cache entries are exercised): serve
   cold, snapshot, then reload into a fresh memo and serve the same
   batch warm.  The
   gates are the durability contract itself — warm responses
   byte-identical to cold, warm genuine-question count < 5% of cold —
   plus fault rows (truncated snapshot, bit-flipped record, future
   format version) that must each recover to a correct, possibly
   colder, state. *)

let gate = Bench_util.gate

(* Serve [batch] on a fresh single-domain pool over [memo], returning
   the response bytes, the ledger, and the phase's timing fields.  One
   domain keeps the ledger deterministic on any host (no cross-worker
   cold-key races). *)
let serve memo batch =
  let pool = Pool.create ~domains:1 ~shared:memo () in
  let head, rest = match batch with [] -> ([], []) | r :: rs -> ([ r ], rs) in
  let first, first_s = Bench_util.time (fun () -> Pool.run_batch pool head) in
  let rest, rest_s = Bench_util.time (fun () -> Pool.run_batch pool rest) in
  let questions = Pool.oracle_questions pool in
  Pool.shutdown ~timeout_s:10. pool;
  ( List.map Bench_util.bytes (first @ rest),
    questions,
    [
      ("questions", Json.Int questions);
      ("wall_s", Json.Float (first_s +. rest_s));
      ("first_response_s", Json.Float first_s);
    ] )

let load_into_fresh_memo ~dir =
  let memo = Shared_memo.create () in
  let (store, report), load_s =
    Bench_util.time (fun () -> Store.open_store ~write_behind:false ~dir memo)
  in
  (memo, store, report, load_s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

(* Rewrite the snapshot in [dir] through [f]. *)
let damage_snapshot f ~dir =
  let path = Filename.concat dir "snapshot.rdb" in
  write_file path (f (Bytes.of_string (read_file path)))

(* Flip one byte well inside the snapshot body (past the header and
   first frame header, so the damage lands in a record payload). *)
let corrupt_snapshot =
  damage_snapshot (fun b ->
      let off = Store_codec.header_len + 8 + 2 in
      if off < Bytes.length b then
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xFF));
      Bytes.to_string b)

let truncate_snapshot =
  damage_snapshot (fun b ->
      let n = Bytes.length b in
      Bytes.sub_string b 0 (max Store_codec.header_len (n - (n / 3))))

(* bump the u32 LE version field at offset 4 *)
let future_version_snapshot =
  damage_snapshot (fun b ->
      Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) + 1));
      Bytes.to_string b)

let copy_dir src dst =
  Proc.rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

(* Serve the batch from a damaged copy of the golden store: the
   fault's report row and its violations — the responses must stay
   byte-identical, and [detected] must hold of the load report. *)
let fault_run ~name ~golden ~pristine ~batch ~cold_bytes damage detected =
  let dir = pristine ^ "." ^ name in
  copy_dir golden dir;
  damage ~dir;
  let memo, store, report, _ = load_into_fresh_memo ~dir in
  let bytes, questions, _ = serve memo batch in
  Store.close store;
  Proc.rm_rf dir;
  let identical = bytes = cold_bytes in
  let noticed, what = detected report in
  ( Json.Obj
      [
        ("name", Json.String name);
        ("entries_loaded", Json.Int report.Store.entries_loaded);
        ("entries_skipped", Json.Int report.Store.entries_skipped);
        ("torn_tail", Json.Bool report.Store.torn_tail);
        ("refused", Json.Bool (report.Store.refused <> None));
        ("questions", Json.Int questions);
        ("identical", Json.Bool identical);
      ],
    gate identical "fault %s produced non-identical responses" name
    @ gate noticed "%s" what )

let run ?(requests = 160) () =
  let dir = "_store_bench" in
  let batch = Workload.mixed_with_rql requests in
  Proc.rm_rf dir;
  (* --- cold ------------------------------------------------------- *)
  let memo = Shared_memo.create () in
  let store, _ = Store.open_store ~write_behind:false ~dir memo in
  let cold_bytes, cold_questions, cold = serve memo batch in
  let snap = Store.snapshot_now store in
  Store.close store;
  (* --- warm ------------------------------------------------------- *)
  let golden = dir ^ ".golden" in
  copy_dir dir golden;
  let memo2, store2, report2, load_s = load_into_fresh_memo ~dir in
  let warm_bytes, warm_questions, warm = serve memo2 batch in
  Store.close store2;
  let warm_identical = warm_bytes = cold_bytes in
  (* --- fault rows -------------------------------------------------- *)
  let fault = fault_run ~golden ~pristine:dir ~batch ~cold_bytes in
  let faults, fault_violations =
    List.split
      [
        fault ~name:"truncated" truncate_snapshot (fun r ->
            (r.Store.torn_tail, "truncated snapshot not detected as torn"));
        fault ~name:"bit_flip" corrupt_snapshot (fun r ->
            ( r.Store.entries_skipped > 0,
              "bit-flipped snapshot skipped no record" ));
        fault ~name:"future_version" future_version_snapshot (fun r ->
            ( r.Store.refused <> None,
              "future-version snapshot was not refused" ));
      ]
  in
  Proc.rm_rf golden;
  Proc.rm_rf dir;
  let ratio =
    if cold_questions = 0 then 0.
    else float_of_int warm_questions /. float_of_int cold_questions
  in
  let violations =
    gate warm_identical "warm responses not byte-identical to cold"
    @ gate (ratio < 0.05) "warm questions %d not < 5%% of cold %d (ratio %.3f)"
        warm_questions cold_questions ratio
    @ List.concat fault_violations
  in
  ( Json.Obj
      [
        ( "workload",
          Json.String "mixed batch + RQL over five instances, cold vs warm start"
        );
        ("requests", Json.Int (List.length batch));
        ( "cold",
          Json.Obj
            (cold
            @ [
                ("load_s", Json.Float 0.);
                ("entries_loaded", Json.Int 0);
                ("identical", Json.Bool true);
              ]) );
        ( "warm",
          Json.Obj
            (warm
            @ [
                ("load_s", Json.Float load_s);
                ("entries_loaded", Json.Int report2.Store.entries_loaded);
                ("identical", Json.Bool warm_identical);
              ]) );
        ("question_ratio", Json.Float ratio);
        ( "snapshot",
          Json.Obj
            [
              ("entries", Json.Int snap.Store.entries_written);
              ("bytes", Json.Int snap.Store.bytes_written);
            ] );
        ("faults", Json.List faults);
        ("violations", Bench_util.strings violations);
      ],
    violations )
