(* lib/store: the binary codec, snapshot round-trips, journal recovery,
   and the fault-injection matrix — recovery may lose warmth but must
   never load a wrong answer, and persistence must never turn a cached
   error into a success or a nondeterministic abort into an answer. *)

let check = Alcotest.check

let t l : Prelude.Tuple.t = Array.of_list l

let with_tmpdir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "store_test_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let snapshot_path dir = Filename.concat dir "snapshot.rdb"
let journal_path dir = Filename.concat dir "journal.rdb"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let write_file path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let render rs =
  List.map (fun r -> Json.to_string (Request.response_to_json ~stats:false r)) rs

(* Structural equality is wrong for Tupleset (AVL shape depends on
   insertion order), so compare entries with set-aware equality. *)
let entry_equal a b =
  match (a, b) with
  | Shared_memo.D_rql_def x, Shared_memo.D_rql_def y ->
      x.key = y.key && Prelude.Tupleset.equal x.value y.value
  | _ -> a = b

(* ------------------------------------------------------------------ *)
(* Codec: generators + round-trip property (QCheck)                    *)

open Test_support

let gen_entry =
  let open QCheck2.Gen in
  oneof
    [
      map2
        (fun name nrels -> Shared_memo.D_instance { name; nrels })
        string_printable (int_range 0 6);
      map3
        (fun inst key value -> Shared_memo.D_children { inst; key; value })
        string_printable gen_tuple
        (list_size (int_range 0 6) (int_range 0 50));
      map3
        (fun inst (u, v) value -> Shared_memo.D_equiv { inst; u; v; value })
        string_printable (pair gen_tuple gen_tuple) bool;
      map3
        (fun inst (index, key) value ->
          Shared_memo.D_rel { inst; index; key; value })
        string_printable
        (pair (int_range 0 5) gen_tuple)
        bool;
      map2
        (fun key value -> Shared_memo.D_result { key; value })
        string_printable
        (map2
           (fun value cert -> { Shared_memo.value; cert })
           (oneof
              [
                map (fun o -> Ok (Request.outcome_bytes o)) gen_outcome;
                map Result.error gen_error;
              ])
           gen_cert);
      map2
        (fun key tuples ->
          Shared_memo.D_rql_def
            { key; value = Prelude.Tupleset.of_list tuples })
        string_printable
        (list_size (int_range 0 6) gen_tuple);
    ]

let qcheck_entry_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"encode/decode dump_entry = id"
       gen_entry (fun e ->
         entry_equal e (Store_codec.decode_entry (Store_codec.encode_entry e))))

let qcheck_journal_roundtrip =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:200 ~name:"encode/decode journal_record = id"
       Gen.(pair (int_range 0 1_000_000) (option string_printable))
       (fun (seq, line) ->
         let r =
           match line with
           | Some line -> Store_codec.Admitted { seq; line }
           | None -> Store_codec.Completed { seq }
         in
         r = Store_codec.decode_journal (Store_codec.encode_journal r)))

let qcheck_int_roundtrip =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:500 ~name:"zigzag varint round-trips any int"
       Gen.(oneof [ int; int_range (-1000) 1000 ])
       (fun n ->
         let buf = Buffer.create 10 in
         Store_codec.w_int buf n;
         let r = Store_codec.reader (Buffer.contents buf) in
         let n' = Store_codec.r_int r in
         n = n' && Store_codec.at_end r))

let codec_rejects_garbage () =
  (* arbitrary bytes must decode to an error, never to a value *)
  List.iter
    (fun s ->
      match Store_codec.decode_entry s with
      | exception Store_codec.Decode_error _ -> ()
      | _ -> Alcotest.fail ("garbage decoded: " ^ String.escaped s))
    [ ""; "\255"; "\007"; "\000"; "\001\004ab" ]

(* ------------------------------------------------------------------ *)
(* Export / seed                                                       *)

let export_seed_roundtrip () =
  let memo = Shared_memo.create () in
  let m = Shared_memo.instance memo ~name:"i1" ~nrels:2 in
  let _ = Shared_memo.children m (t [ 1; 2 ]) ~compute:(fun () -> [ 3; 4 ]) in
  let _ = Shared_memo.equiv m (t [ 1 ]) (t [ 2 ]) ~compute:(fun () -> true) in
  let _ = Shared_memo.rel m 1 (t [ 5 ]) ~compute:(fun () -> false) in
  let _ =
    Shared_memo.result memo ~key:"k" ~compute:(fun () ->
        {
          Shared_memo.value = Ok (Request.outcome_bytes (Request.Count 7));
          cert = Request.Cert_exact;
        })
  in
  let _ =
    Shared_memo.rql_def memo ~key:"d" ~compute:(fun () ->
        Prelude.Tupleset.of_lists [ [ 1; 2 ]; [ 3; 4 ] ])
  in
  let entries = Shared_memo.export memo in
  check Alcotest.int "six entries" 6 (List.length entries);
  let memo2 = Shared_memo.create () in
  List.iter
    (fun e ->
      ignore (Shared_memo.seed memo2 e))
    entries;
  (* probes must hit the seeded values, and the ledger must read as
     hits, not as questions *)
  let m2 = Shared_memo.instance memo2 ~name:"i1" ~nrels:2 in
  check (Alcotest.list Alcotest.int) "children seeded" [ 3; 4 ]
    (Shared_memo.children m2 (t [ 1; 2 ]) ~compute:(fun () ->
         Alcotest.fail "children recomputed"));
  check Alcotest.bool "equiv seeded" true
    (Shared_memo.equiv m2 (t [ 1 ]) (t [ 2 ]) ~compute:(fun () ->
         Alcotest.fail "equiv recomputed"));
  check Alcotest.bool "rel seeded" false
    (Shared_memo.rel m2 1 (t [ 5 ]) ~compute:(fun () ->
         Alcotest.fail "rel recomputed"));
  (match
     Shared_memo.result memo2 ~key:"k" ~compute:(fun () ->
         Alcotest.fail "result recomputed")
   with
  | { Shared_memo.value = Ok {|{"kind":"count","value":7}|};
      cert = Request.Cert_exact } ->
      ()
  | _ -> Alcotest.fail "result value wrong");
  check Alcotest.bool "rql_def seeded" true
    (Prelude.Tupleset.equal
       (Prelude.Tupleset.of_lists [ [ 1; 2 ]; [ 3; 4 ] ])
       (Shared_memo.rql_def memo2 ~key:"d" ~compute:(fun () ->
            Alcotest.fail "rql_def recomputed")))

let seed_does_not_count_as_questions () =
  let memo = Shared_memo.create () in
  ignore
    (Shared_memo.seed memo
       (Shared_memo.D_result
          {
            key = "x";
            value =
              {
                Shared_memo.value = Ok (Request.outcome_bytes (Request.Count 1));
                cert = Request.Cert_exact;
              };
          }));
  let s = Shared_memo.stats memo in
  check Alcotest.int "no hits from seeding" 0 s.Shared_memo.results.Shared_memo.hits;
  check Alcotest.int "no misses from seeding" 0
    s.Shared_memo.results.Shared_memo.misses

let aborted_compute_never_exported () =
  let memo = Shared_memo.create () in
  (* a budget/deadline abort raises through compute: nothing stored *)
  (try
     ignore
       (Shared_memo.result memo ~key:"aborted" ~compute:(fun () -> raise Exit))
   with Exit -> ());
  check Alcotest.int "aborted insert left no entry" 0
    (List.length (Shared_memo.export memo))

(* ------------------------------------------------------------------ *)
(* Plans are never exported; errors stay errors                        *)

let plans_never_exported () =
  let memo = Shared_memo.create () in
  (* a cached compile error and a cached success, the way the engine
     caches them *)
  List.iter
    (fun (key, r) ->
      ignore
        (Shared_memo.plan memo ~key ~compute:(fun () -> Shared_memo.Rql_plan r)))
    [
      ("rn:c:let x = fix", Error "compile error");
      ( "rn:c:query {(v0) | R1(v0,v0)}",
        Ok
          (Rql.Rql_plan.plan_of_text ~mode:Rql.Rql_plan.Planned
             "query {(x) | R1(x,x)}") );
    ];
  check Alcotest.int "no plan entry exported" 0
    (List.length (Shared_memo.export memo));
  (* a seeded memo therefore recomputes every plan: a persisted error
     can never come back as a success, nor a success as an error *)
  let memo2 = Shared_memo.create () in
  List.iter
    (fun e -> ignore (Shared_memo.seed memo2 e))
    (Shared_memo.export memo);
  let ran = ref false in
  ignore
    (Shared_memo.plan memo2 ~key:"rn:c:let x = fix" ~compute:(fun () ->
         ran := true;
         Shared_memo.Rql_plan (Error "compile error")));
  check Alcotest.bool "plan recomputed after seed" true !ran

let nondet_errors_filtered_at_save () =
  with_tmpdir (fun dir ->
      let memo = Shared_memo.create () in
      let _ =
        Shared_memo.result memo ~key:"det" ~compute:(fun () ->
            {
              Shared_memo.value = Error (Request.Parse_error "x");
              cert = Request.Cert_exact;
            })
      in
      let _ =
        Shared_memo.result memo ~key:"nondet" ~compute:(fun () ->
            {
              Shared_memo.value = Error (Request.Budget_exceeded { limit = 7 });
              cert = Request.Cert_exact;
            })
      in
      let store, _ = Store.open_store ~write_behind:false ~dir memo in
      let snap = Store.snapshot_now store in
      Store.close store;
      check Alcotest.int "one nondeterministic error dropped" 1
        snap.Store.errors_dropped;
      let memo2 = Shared_memo.create () in
      let store2, report = Store.open_store ~write_behind:false ~dir memo2 in
      Store.close store2;
      check Alcotest.int "only the deterministic entry loaded" 1
        report.Store.entries_loaded;
      (* deterministic parse error round-trips as an error *)
      (match
         Shared_memo.result memo2 ~key:"det" ~compute:(fun () ->
             Alcotest.fail "deterministic error was not persisted")
       with
      | { Shared_memo.value = Error (Request.Parse_error _); _ } -> ()
      | _ -> Alcotest.fail "persisted error changed shape");
      (* the nondeterministic one is gone: compute runs again *)
      let ran = ref false in
      ignore
        (Shared_memo.result memo2 ~key:"nondet" ~compute:(fun () ->
             ran := true;
             {
               Shared_memo.value = Ok (Request.outcome_bytes (Request.Count 0));
               cert = Request.Cert_exact;
             }));
      check Alcotest.bool "nondet result not persisted" true !ran)

(* ------------------------------------------------------------------ *)
(* Whole-system round-trip through a real engine                       *)

let engine_roundtrip_zero_questions () =
  with_tmpdir (fun dir ->
      let batch = Workload.mixed_with_rql 40 in
      let memo = Shared_memo.create () in
      let store, _ = Store.open_store ~write_behind:false ~dir memo in
      let eng = Engine.create ~shared:memo () in
      let cold = render (Engine.handle_all eng batch) in
      let cold_questions = Engine.question_count eng in
      ignore (Store.snapshot_now store);
      Store.close store;
      check Alcotest.bool "cold run asked questions" true (cold_questions > 0);
      let memo2 = Shared_memo.create () in
      let store2, report = Store.open_store ~write_behind:false ~dir memo2 in
      Store.close store2;
      check Alcotest.bool "entries loaded" true (report.Store.entries_loaded > 0);
      let eng2 = Engine.create ~shared:memo2 () in
      let warm = render (Engine.handle_all eng2 batch) in
      check (Alcotest.list Alcotest.string) "warm byte-identical" cold warm;
      check Alcotest.int "warm run asked zero questions" 0
        (Engine.question_count eng2))

(* The snapshot's record payloads, in file order, and a snapshot file
   rewritten from payloads under a given format version. *)
let read_payloads dir =
  let ic = open_in_bin (snapshot_path dir) in
  ignore (Store_codec.read_exactly_header ic);
  let rec frames acc =
    match Store_codec.read_frame ic with
    | Store_codec.Frame p -> frames (p :: acc)
    | _ -> List.rev acc
  in
  let payloads = frames [] in
  close_in ic;
  payloads

let write_snapshot ?(version = Store_codec.format_version) dir payloads =
  let header = Bytes.of_string (Store_codec.header Store_codec.snapshot_magic) in
  Bytes.set header 4 (Char.chr version);
  let oc = open_out_bin (snapshot_path dir) in
  output_bytes oc header;
  List.iter (fun p -> output_string oc (Store_codec.frame p)) payloads;
  close_out oc

(* Snapshots written before plans stopped being persisted carry tag-4
   plan records (one varint tag, then the cache key as a string).  Such
   a record no longer decodes: the loader skips it, seeds everything
   else, and the warm replay still asks nothing — planning never asks. *)
let parent_plan_records_skipped () =
  with_tmpdir (fun dir ->
      let batch = Workload.mixed_with_rql 40 in
      let memo = Shared_memo.create () in
      let store, _ = Store.open_store ~write_behind:false ~dir memo in
      let cold = render (Engine.handle_all (Engine.create ~shared:memo ()) batch) in
      let snap = Store.snapshot_now store in
      Store.close store;
      (* rewrite the snapshot in the older layout: the same records,
         with plan records between the per-instance entries and the
         results, where the older exporter put them *)
      let payloads = read_payloads dir in
      check Alcotest.int "every written entry read back"
        snap.Store.entries_written (List.length payloads);
      let plan_record key =
        let b = Buffer.create 32 in
        Store_codec.w_uint b 4;
        Store_codec.w_string b key;
        Buffer.contents b
      in
      let plans =
        List.map plan_record
          [
            "s:exists x. exists y. R1(x, y)";
            "q:{(x,y) | R1(x,y) && x != y}";
            "p:x0 := R1";
            "rn:c:query {(v0,v1) | R1(v0,v1)}";
            "rn:n:query {(v0,v1) | R1(v0,v1)}";
          ]
      in
      let is_result p =
        match Store_codec.decode_entry p with
        | Shared_memo.D_result _ | Shared_memo.D_rql_def _ -> true
        | _ -> false
      in
      let before = List.filter (fun p -> not (is_result p)) payloads in
      let after = List.filter is_result payloads in
      check Alcotest.bool "results were exported" true (after <> []);
      write_snapshot dir (before @ plans @ after);
      let memo2 = Shared_memo.create () in
      let store2, report = Store.open_store ~write_behind:false ~dir memo2 in
      Store.close store2;
      check Alcotest.int "plan records count as skipped" (List.length plans)
        report.Store.entries_skipped;
      check Alcotest.int "every other entry seeds" (List.length payloads)
        report.Store.entries_loaded;
      let eng2 = Engine.create ~shared:memo2 () in
      check (Alcotest.list Alcotest.string) "warm byte-identical" cold
        (render (Engine.handle_all eng2 batch));
      check Alcotest.int "warm replay asks zero questions" 0
        (Engine.question_count eng2))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let build_store_with_data dir =
  let memo = Shared_memo.create () in
  let eng = Engine.create ~shared:memo () in
  let batch = Workload.mixed 20 in
  let reference =
    List.map
      (fun r -> Json.to_string (Request.response_to_json ~stats:false r))
      (Engine.handle_all eng batch)
  in
  let store, _ = Store.open_store ~write_behind:false ~dir memo in
  ignore (Store.snapshot_now store);
  Store.close store;
  (batch, reference)

let serve_from dir batch =
  let memo = Shared_memo.create () in
  let store, report = Store.open_store ~write_behind:false ~dir memo in
  Store.close store;
  let eng = Engine.create ~shared:memo () in
  let got =
    List.map
      (fun r -> Json.to_string (Request.response_to_json ~stats:false r))
      (Engine.handle_all eng batch)
  in
  (report, got)

(* A result record's v3 payload is [7 | key | 0 | body | cert] or
   [7 | key | 1 | error | cert]; [result_record] writes one from its
   parts, with [cert] given as its encoded bytes. *)
let result_record ~tag ~key write_value cert =
  let b = Buffer.create 64 in
  Store_codec.w_uint b tag;
  Store_codec.w_string b key;
  write_value b;
  Buffer.add_string b cert;
  Buffer.contents b

(* The certificate bytes that end a v3 result record. *)
let cert_bytes payload key (v : Shared_memo.result_value) =
  let prefix =
    result_record ~tag:7 ~key
      (fun b ->
        match v.Shared_memo.value with
        | Ok body ->
            Store_codec.w_uint b 0;
            Store_codec.w_string b body
        | Error _ -> ())
      ""
  in
  match v.Shared_memo.value with
  | Ok _ ->
      String.sub payload (String.length prefix)
        (String.length payload - String.length prefix)
  | Error _ -> Alcotest.fail "cert_bytes: an error record"

(* The same result in the v2 layout: tag 5, and the outcome as a tree of
   varints.  Errors and certificates kept their v2 encodings in v3. *)
let v2_record payload =
  match Store_codec.decode_entry payload with
  | Shared_memo.D_result { key; value } -> (
      match value.Shared_memo.value with
      | Error _ -> Some ("\005" ^ String.sub payload 1 (String.length payload - 1))
      | Ok body ->
          let w_tuple b u =
            Store_codec.w_uint b (Array.length u);
            Array.iter (Store_codec.w_int b) u
          in
          let w_list w b xs =
            Store_codec.w_uint b (List.length xs);
            List.iter (w b) xs
          in
          let w_outcome b = function
            | Request.Bool x ->
                Store_codec.w_uint b 0;
                Store_codec.w_bool b x
            | Request.Count n ->
                Store_codec.w_uint b 1;
                Store_codec.w_int b n
            | Request.Rel { rank; reps; members } ->
                Store_codec.w_uint b 2;
                Store_codec.w_int b rank;
                w_list w_tuple b reps;
                w_list w_tuple b members
            | Request.Levels l ->
                Store_codec.w_uint b 3;
                w_list (w_list w_tuple) b l
            | Request.Undefined -> Store_codec.w_uint b 4
            | Request.Ledger_report _ -> Alcotest.fail "a memoized ledger"
          in
          let o =
            match Request.outcome_of_json body with
            | Ok o -> o
            | Error _ -> Alcotest.fail "stored body does not decode"
          in
          Some
            (result_record ~tag:5 ~key
               (fun b ->
                 Store_codec.w_uint b 0;
                 w_outcome b o)
               (cert_bytes payload key value)))
  | _ -> None

(* A v2 snapshot read by v3 code: its result records fail to decode and
   are skipped, every other entry loads, and the results are recomputed
   with the same bytes. *)
let v2_result_records_skipped () =
  with_tmpdir (fun dir ->
      let batch = Workload.mixed_with_rql 40 in
      let memo = Shared_memo.create () in
      let store, _ = Store.open_store ~write_behind:false ~dir memo in
      let cold = render (Engine.handle_all (Engine.create ~shared:memo ()) batch) in
      ignore (Store.snapshot_now store);
      Store.close store;
      let payloads = read_payloads dir in
      let v2 =
        List.map (fun p -> Option.value (v2_record p) ~default:p) payloads
      in
      let results = List.length (List.filter_map v2_record payloads) in
      check Alcotest.bool "results were exported" true (results > 0);
      write_snapshot ~version:2 dir v2;
      let memo2 = Shared_memo.create () in
      let store2, report = Store.open_store ~write_behind:false ~dir memo2 in
      Store.close store2;
      check Alcotest.bool "a v2 header is not refused" true
        (report.Store.refused = None);
      check Alcotest.int "every v2 result record skipped" results
        report.Store.entries_skipped;
      check Alcotest.int "every other entry loads"
        (List.length payloads - results)
        report.Store.entries_loaded;
      check (Alcotest.list Alcotest.string) "recomputed byte-identical" cold
        (render (Engine.handle_all (Engine.create ~shared:memo2 ()) batch)))

(* A CRC-valid result record whose body is not the canonical bytes of an
   outcome — not JSON, JSON of the wrong shape, or an outcome spelled
   with other bytes — is skipped at load, so it never reaches the
   wire: the request is recomputed. *)
let hostile_result_bodies_skipped () =
  with_tmpdir (fun dir ->
      let batch, reference = build_store_with_data dir in
      let payloads = read_payloads dir in
      let hostile =
        [
          {|{"kind":"count","value":7}],"x":[|};
          {|{"kind":"relation","rank":"two"}|};
          {|{ "kind":"bool", "value":true }|};
        ]
      in
      let left = ref hostile and replaced = ref 0 in
      let payloads =
        List.map
          (fun p ->
            match (!left, Store_codec.decode_entry p) with
            | body :: rest, Shared_memo.D_result { key; value = { value = Ok _; _ } as v }
              ->
                left := rest;
                incr replaced;
                result_record ~tag:7 ~key
                  (fun b ->
                    Store_codec.w_uint b 0;
                    Store_codec.w_string b body)
                  (cert_bytes p key v)
            | _ -> p)
          payloads
      in
      check Alcotest.int "three records made hostile" 3 !replaced;
      write_snapshot dir payloads;
      let memo = Shared_memo.create () in
      let store, report = Store.open_store ~write_behind:false ~dir memo in
      Store.close store;
      check Alcotest.int "each hostile record skipped" 3
        report.Store.entries_skipped;
      let eng = Engine.create ~shared:memo () in
      check (Alcotest.list Alcotest.string) "served bytes are the reference"
        reference
        (List.map
           (fun r -> Request.reply_line ~stats:false (Engine.serve eng r))
           batch);
      check Alcotest.int "the three answers were recomputed" 3
        (Shared_memo.stats memo).Shared_memo.results.Shared_memo.misses)

(* E30 on the wire path: a v3 store's warm replay writes the stored
   bytes, byte-identical to the cold run, and asks no question. *)
let v3_warm_wire_replay () =
  with_tmpdir (fun dir ->
      let batch = Workload.mixed_with_rql 40 in
      let wire eng =
        List.map (fun r -> Request.reply_line ~stats:false (Engine.serve eng r)) batch
      in
      let memo = Shared_memo.create () in
      let store, _ = Store.open_store ~write_behind:false ~dir memo in
      let cold = wire (Engine.create ~shared:memo ()) in
      ignore (Store.snapshot_now store);
      Store.close store;
      let head = Bytes.to_string (read_file (snapshot_path dir)) in
      check Alcotest.int "snapshot written as format v3" 3 (Char.code head.[4]);
      let memo2 = Shared_memo.create () in
      let store2, report = Store.open_store ~write_behind:false ~dir memo2 in
      Store.close store2;
      check Alcotest.int "nothing skipped" 0 report.Store.entries_skipped;
      let eng2 = Engine.create ~shared:memo2 () in
      check (Alcotest.list Alcotest.string) "warm wire bytes = cold" cold (wire eng2);
      check Alcotest.int "warm replay asks zero questions" 0
        (Engine.question_count eng2))

let fault_truncated_snapshot () =
  with_tmpdir (fun dir ->
      let batch, reference = build_store_with_data dir in
      let b = read_file (snapshot_path dir) in
      write_file (snapshot_path dir)
        (Bytes.sub b 0 (Bytes.length b - (Bytes.length b / 3)));
      let report, got = serve_from dir batch in
      check Alcotest.bool "torn tail detected" true report.Store.torn_tail;
      check (Alcotest.list Alcotest.string)
        "truncated store still answers correctly" reference got)

let fault_bit_flip () =
  with_tmpdir (fun dir ->
      let batch, reference = build_store_with_data dir in
      let b = read_file (snapshot_path dir) in
      (* land the flip inside the first record's payload (past the file
         header and the frame's own length+CRC header) so it reads as a
         CRC failure, not lost framing *)
      let off = Store_codec.header_len + 8 + 2 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
      write_file (snapshot_path dir) b;
      let report, got = serve_from dir batch in
      check Alcotest.bool "at least one record skipped" true
        (report.Store.entries_skipped >= 1);
      check (Alcotest.list Alcotest.string)
        "bit-flipped store still answers correctly" reference got)

let fault_future_version () =
  with_tmpdir (fun dir ->
      let batch, reference = build_store_with_data dir in
      let b = read_file (snapshot_path dir) in
      Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) + 1));
      write_file (snapshot_path dir) b;
      let report, got = serve_from dir batch in
      check Alcotest.bool "future version refused" true
        (report.Store.refused <> None);
      check Alcotest.int "nothing loaded from a refused file" 0
        report.Store.entries_loaded;
      check (Alcotest.list Alcotest.string)
        "refused store serves fully cold but correct" reference got)

let fault_bad_magic () =
  with_tmpdir (fun dir ->
      let batch, reference = build_store_with_data dir in
      let b = read_file (snapshot_path dir) in
      Bytes.blit_string "NOPE" 0 b 0 4;
      write_file (snapshot_path dir) b;
      let report, got = serve_from dir batch in
      check Alcotest.bool "bad magic refused" true (report.Store.refused <> None);
      check (Alcotest.list Alcotest.string) "still correct" reference got)

let fault_hostile_counts () =
  (* CRC-valid frames whose relation count or index does not fit the
     live instance must be skipped, not used to size tables: at 2^40
     they would exhaust memory at startup. *)
  with_tmpdir (fun dir ->
      Unix.mkdir dir 0o755;
      let frame e = Store_codec.frame (Store_codec.encode_entry e) in
      write_file (snapshot_path dir)
        (Bytes.of_string
           (String.concat ""
              [
                Store_codec.header Store_codec.snapshot_magic;
                frame
                  (Shared_memo.D_instance { name = "rado"; nrels = 1 lsl 40 });
                frame
                  (Shared_memo.D_rel
                     {
                       inst = "rado";
                       index = 1 lsl 40;
                       key = t [ 0; 1 ];
                       value = true;
                     });
                frame
                  (Shared_memo.D_children
                     { inst = "rado"; key = t [ 0 ]; value = [ 1 ] });
              ]));
      let memo = Shared_memo.create () in
      let store, report = Store.open_store ~write_behind:false ~dir memo in
      Store.close store;
      check Alcotest.int "hostile frames skipped" 2 report.Store.entries_skipped;
      check Alcotest.int "valid entry loaded" 1 report.Store.entries_loaded)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

let journal_recovers_pending () =
  with_tmpdir (fun dir ->
      let memo = Shared_memo.create () in
      let store, report0 = Store.open_store ~write_behind:false ~dir memo in
      check Alcotest.int "fresh journal empty" 0
        (List.length report0.Store.pending);
      let s1 = Store.journal_admit store ~line:"{\"id\":1}" in
      let s2 = Store.journal_admit store ~line:"{\"id\":2}" in
      let s3 = Store.journal_admit store ~line:"{\"id\":3}" in
      check Alcotest.bool "seqs increase" true (s1 < s2 && s2 < s3);
      Store.journal_complete store s2;
      (* what a flusher tick does; the reopen below simulates a crash,
         which loses only records appended since the last sync *)
      Store.journal_sync store;
      (* crash: no close, no snapshot — reopen sees the raw journal *)
      let memo2 = Shared_memo.create () in
      let store2, report = Store.open_store ~write_behind:false ~dir memo2 in
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
        "pending = admitted minus completed"
        [ (s1, "{\"id\":1}"); (s3, "{\"id\":3}") ]
        report.Store.pending;
      (* seq numbering continues past the recovered maximum *)
      let s4 = Store.journal_admit store2 ~line:"{\"id\":4}" in
      check Alcotest.bool "seq continues" true (s4 > s3);
      Store.close store2;
      Store.close store)

let journal_torn_tail_truncated () =
  with_tmpdir (fun dir ->
      let memo = Shared_memo.create () in
      let store, _ = Store.open_store ~write_behind:false ~dir memo in
      let s1 = Store.journal_admit store ~line:"{\"id\":1}" in
      ignore (Store.journal_admit store ~line:"{\"id\":2}");
      Store.journal_complete store s1;
      Store.close store;
      (* torn last record: a frame header promising more than exists *)
      let oc =
        open_out_gen [ Open_binary; Open_append ] 0o644 (journal_path dir)
      in
      output_string oc "\100\000\000\000\042\042\042\042partial";
      close_out oc;
      let memo2 = Shared_memo.create () in
      let store2, report = Store.open_store ~write_behind:false ~dir memo2 in
      check Alcotest.bool "torn journal detected" true report.Store.journal_torn;
      check Alcotest.int "uncompleted request recovered" 1
        (List.length report.Store.pending);
      (* the rotation rewrote a clean journal: reopening is quiet *)
      Store.close store2;
      let memo3 = Shared_memo.create () in
      let store3, report3 = Store.open_store ~write_behind:false ~dir memo3 in
      check Alcotest.bool "rotated journal is clean" false
        report3.Store.journal_torn;
      Store.close store3)

let snapshot_rotates_journal () =
  with_tmpdir (fun dir ->
      let memo = Shared_memo.create () in
      let store, _ = Store.open_store ~write_behind:false ~dir memo in
      let s1 = Store.journal_admit store ~line:"{\"id\":1}" in
      ignore (Store.journal_admit store ~line:"{\"id\":2}");
      Store.journal_complete store s1;
      check Alcotest.int "one inflight" 1 (Store.inflight_count store);
      ignore (Store.snapshot_now store);
      Store.close store;
      let memo2 = Shared_memo.create () in
      let store2, report = Store.open_store ~write_behind:false ~dir memo2 in
      Store.close store2;
      check Alcotest.int "rotation kept only the inflight admission" 1
        (List.length report.Store.pending))

(* ------------------------------------------------------------------ *)
(* Gauges + flush age                                                  *)

let flush_age_and_gauges () =
  with_tmpdir (fun dir ->
      let memo = Shared_memo.create () in
      let store, _ = Store.open_store ~write_behind:false ~dir memo in
      let rendered = Obs.Expo.render_all () in
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i =
          i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool "last-flush gauge exposed" true
        (contains rendered "store_last_flush_age_seconds");
      let before = Store.last_flush_age_s store in
      Unix.sleepf 0.05;
      check Alcotest.bool "age grows" true (Store.last_flush_age_s store > before);
      ignore (Store.snapshot_now store);
      check Alcotest.bool "snapshot resets the age" true
        (Store.last_flush_age_s store < 0.05);
      Store.close store;
      check Alcotest.bool "gauges unregistered after close" false
        (contains (Obs.Expo.render_all ()) "store_last_flush_age_seconds"))

let close_is_idempotent () =
  with_tmpdir (fun dir ->
      let memo = Shared_memo.create () in
      let store, _ = Store.open_store ~write_behind:false ~dir memo in
      Store.close store;
      Store.close store;
      check Alcotest.bool "snapshot written by close" true
        (Sys.file_exists (snapshot_path dir)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          qcheck_entry_roundtrip;
          qcheck_journal_roundtrip;
          qcheck_int_roundtrip;
          Alcotest.test_case "garbage never decodes" `Quick codec_rejects_garbage;
        ] );
      ( "export-seed",
        [
          Alcotest.test_case "round-trip via export/seed" `Quick
            export_seed_roundtrip;
          Alcotest.test_case "seeding is ledger-silent" `Quick
            seed_does_not_count_as_questions;
          Alcotest.test_case "aborted compute exports nothing" `Quick
            aborted_compute_never_exported;
        ] );
      ( "errors",
        [
          Alcotest.test_case "plans are never exported" `Quick
            plans_never_exported;
          Alcotest.test_case "nondeterministic errors filtered at save" `Quick
            nondet_errors_filtered_at_save;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "warm engine: identical bytes, zero questions"
            `Quick engine_roundtrip_zero_questions;
          Alcotest.test_case "older snapshot: plan records skipped" `Quick
            parent_plan_records_skipped;
          Alcotest.test_case "v2 snapshot: result records skipped" `Quick
            v2_result_records_skipped;
          Alcotest.test_case "hostile result bodies skipped, never served"
            `Quick hostile_result_bodies_skipped;
          Alcotest.test_case "v3 store: warm wire replay, zero questions"
            `Quick v3_warm_wire_replay;
        ] );
      ( "faults",
        [
          Alcotest.test_case "truncated snapshot" `Quick fault_truncated_snapshot;
          Alcotest.test_case "bit-flipped record" `Quick fault_bit_flip;
          Alcotest.test_case "future format version" `Quick fault_future_version;
          Alcotest.test_case "bad magic" `Quick fault_bad_magic;
          Alcotest.test_case "hostile relation counts" `Quick
            fault_hostile_counts;
        ] );
      ( "journal",
        [
          Alcotest.test_case "pending = admitted - completed" `Quick
            journal_recovers_pending;
          Alcotest.test_case "torn tail truncated" `Quick
            journal_torn_tail_truncated;
          Alcotest.test_case "snapshot rotates the journal" `Quick
            snapshot_rotates_journal;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "flush age + gauge registration" `Quick
            flush_age_and_gauges;
          Alcotest.test_case "close is idempotent" `Quick close_is_idempotent;
        ] );
    ]
