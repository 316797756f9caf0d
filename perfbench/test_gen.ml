(* The benchmark's request streams: reproducible from the seed, different
   across seeds, valid on the reference engine, and described truthfully
   by BENCHMARK.json. *)

let workloads = Gen.[ Cold_mix; Hot_zipf; Routed_zipf; Durable_mix ]

let all (s : Gen.stream) = Array.append s.Gen.warm s.Gen.timed
let digest w ~seed = Gen.digest (all (Gen.stream w ~seed ~n:300))

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* Digests of the seed-1 streams (warm-up plus 300 timed requests).  A
   change to the generator changes these, and with them every
   benchmark baseline: update them only together with a new baseline. *)
let pinned =
  [
    (Gen.Cold_mix, "abc878671ff61093a0ccacfc1c8e28bb");
    (Gen.Hot_zipf, "b8e217645dd0bda6e3a809501abfb9c0");
    (Gen.Routed_zipf, "b8e217645dd0bda6e3a809501abfb9c0");
    (Gen.Durable_mix, "281622a664d9ff80262473558226b59e");
  ]

let () =
  List.iter
    (fun w ->
      let name = Gen.workload_name w in
      let d = digest w ~seed:1 in
      if d <> digest w ~seed:1 then fail "%s: same seed, different streams" name;
      if d <> List.assoc w pinned then
        fail "%s: seed-1 digest %s, pinned %s" name d (List.assoc w pinned);
      if d = digest w ~seed:2 then fail "%s: seeds 1 and 2 give the same stream" name)
    workloads

(* Every line decodes and answers without a typed error. *)
let () =
  let engine = Engine.create () in
  List.iter
    (fun w ->
      let s = Gen.stream w ~seed:3 ~n:150 in
      Array.iteri
        (fun i p ->
          let line = Gen.line ~id:(i + 1) p in
          match Request.of_line line with
          | Error e -> fail "undecodable: %s (%s)" line (Request.error_to_string e)
          | Ok req -> (
              match (Engine.handle engine req).Request.result with
              | Ok _ -> ()
              | Error e -> fail "typed error on %s: %s" line (Request.error_to_string e)))
        (all s))
    workloads

(* The hot set holds [hot_size] distinct requests, the Zipf draws stay
   inside it, and BENCHMARK.json states both parameters. *)
let () =
  let hot = Gen.hot_set ~seed:5 in
  let keys = Array.map (Gen.line ~id:0) hot in
  let distinct = List.sort_uniq compare (Array.to_list keys) in
  if Array.length hot <> Gen.hot_size || List.length distinct <> Gen.hot_size then
    fail "hot set: %d requests, %d distinct" (Array.length hot) (List.length distinct);
  let draws = Gen.zipf_draws ~seed:5 ~n:10_000 ~size:Gen.hot_size in
  let top = Array.fold_left (fun a k -> if k = 0 then a + 1 else a) 0 draws in
  if Array.exists (fun k -> k < 0 || k >= Gen.hot_size) draws then fail "zipf draw out of range";
  (* rank 1 carries 1/H(256, 1.1) of the mass, about 0.21 *)
  if top < 1800 || top > 2400 then fail "zipf rank-1 share %d/10000" top;
  let bench = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  let phrase = Printf.sprintf "Zipf s=%g over %d" Gen.zipf_s Gen.hot_size in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  if not (contains bench phrase) then fail "BENCHMARK.json does not state %S" phrase

let () = print_endline "test_gen: ok"
