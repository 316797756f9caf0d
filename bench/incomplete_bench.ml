(* E33: incompleteness-aware answering.  Four claims, each a row:

   - subset: on open-world instances (the {!Incomplete.Decl.demo}
     declarations), per request, certain ⊆ exact ⊆ possible — Bool
     answers by implication, Rel answers by member containment — and
     every certificate kind is legal for its mode.
   - closed_world: on instances whose relations are all total (no
     declaration, or an explicit all-total one), the three modes serve
     byte-identical responses with no cert field: requests that never
     touch an open relation certify exact for free.
   - approximate: approximate answers converge to the certain answer
     (byte-identically) as the consult budget grows, every
     [budget_spent] stays within its budget, and an untripped
     approximate response already equals the certain one.
   - overhead: an engine with declarations configured serves an
     exact-mode workload with the identical Def. 3.9 question ledger
     and identical bytes as a plain engine — certificates are computed
     structurally, never by asking oracles. *)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

let parse_decl name spec =
  match Incomplete.Decl.parse spec with
  | Ok d -> (name, d)
  | Error msg -> failwith (Printf.sprintf "decl %s: %s" name msg)

let demo_decls () =
  List.map (fun (name, spec) -> parse_decl name spec) Incomplete.Decl.demo

(* The open-world payload pool: every demo instance, every op kind the
   incomplete evaluator supports (sentences, FO queries, RQL with and
   without fixpoints), plus one colored sentence over the total colour
   relation R1 — the exact-for-free probe. *)
let open_payloads =
  let s inst sentence = Request.Sentence { instance = inst; sentence } in
  let q inst query = Request.Query { instance = inst; query; cutoff = 3 } in
  let rq inst text =
    Request.Rql { instance = inst; text; cutoff = 3; planner = Request.Plan_cost }
  in
  [
    s "rado" "exists x. exists y. R1(x, y)";
    s "rado" "forall x. exists y. R1(x, y)";
    q "rado" "{(x, y) | R1(x, y)}";
    q "rado" "{(x) | exists y. R1(x, y)}";
    rq "rado" "query {(x, y) | R1(x, y)} cutoff 3";
    s "mod3" "exists x. exists y. R1(x, y)";
    s "mod3" "forall x. exists y. R1(x, y)";
    q "mod3" "{(x, y) | R1(x, y)}";
    rq "mod3"
      "fix p(x, y) = R1(x, y) || exists z. (R1(x, z) && p(z, y)); query \
       {(x, y) | p(x, y)} cutoff 3";
    s "unary012" "exists x. R1(x)";
    s "unary012" "forall x. R1(x)";
    q "unary012" "{(x) | R1(x)}";
    rq "unary012" "query {(x) | R1(x)} cutoff 3";
    s "colored" "exists x. R1(x)";
    s "colored" "exists x. exists y. R2(x, y)";
    q "colored" "{(x, y) | R2(x, y)}";
    q "colored" "{(x) | exists y. R2(x, y)}";
  ]

let closed_payloads =
  let s inst sentence = Request.Sentence { instance = inst; sentence } in
  let q inst query = Request.Query { instance = inst; query; cutoff = 3 } in
  [
    s "triangles" "exists x. exists y. R1(x, y)";
    s "triangles" "forall x. exists y. R1(x, y)";
    q "triangles" "{(x, y) | R1(x, y)}";
    s "mod2" "exists x. exists y. R1(x, y)";
    q "mod2" "{(x) | exists y. R1(x, y)}";
  ]

let cycle pool n = List.init n (fun i -> List.nth pool (i mod List.length pool))

let tuples_subset small big =
  List.for_all (fun t -> List.exists (Prelude.Tuple.equal t) big) small

(* ------------------------------------------------------------------ *)
(* Row 1: certain ⊆ exact ⊆ possible                                   *)

let subset_row ~requests ~violations =
  let engine =
    Engine.create
      ~config:{ Engine.default_config with decls = demo_decls () }
      ()
  in
  let payloads = cycle open_payloads requests in
  let next_id = ref 0 in
  let serve mode payload =
    incr next_id;
    Engine.handle engine (Request.make ?mode ~id:!next_id payload)
  in
  let certain_lower = ref 0 and exact_free = ref 0 in
  let possible_upper = ref 0 in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let check i payload =
    let rc = serve (Some Request.M_certain) payload in
    let re = serve None payload in
    let rp = serve (Some Request.M_possible) payload in
    (match rc.Request.cert with
    | Request.Cert_exact -> incr exact_free
    | Request.Cert_certain_lower -> incr certain_lower
    | _ -> violate "subset: request %d: illegal certificate in certain mode" i);
    (match rp.Request.cert with
    | Request.Cert_exact | Request.Cert_possible_upper -> incr possible_upper
    | _ -> violate "subset: request %d: illegal certificate in possible mode" i);
    if re.Request.cert <> Request.Cert_exact then
      violate "subset: request %d: exact mode served a non-exact certificate" i;
    match (rc.Request.result, re.Request.result, rp.Request.result) with
    | Ok (Request.Bool c), Ok (Request.Bool e), Ok (Request.Bool p) ->
        if (c && not e) || (e && not p) then
          violate "subset: request %d: certain ⇒ exact ⇒ possible fails" i
    | ( Ok (Request.Rel { members = mc; _ }),
        Ok (Request.Rel { members = me; _ }),
        Ok (Request.Rel { members = mp; _ }) ) ->
        if not (tuples_subset mc me && tuples_subset me mp) then
          violate "subset: request %d: member containment fails" i
    | Ok _, Ok _, Ok _ ->
        violate "subset: request %d: modes disagree on outcome shape" i
    | _ -> violate "subset: request %d: a mode returned an error" i
  in
  let (), wall = Bench_util.time (fun () -> List.iteri check payloads) in
  Json.Obj
    [
      ("name", Json.String "subset");
      ("requests", Json.Int requests);
      ("wall_s", Json.Float wall);
      ("certain_lower_certs", Json.Int !certain_lower);
      ("exact_certs_in_certain_mode", Json.Int !exact_free);
      ("possible_mode_certs", Json.Int !possible_upper);
    ]

(* ------------------------------------------------------------------ *)
(* Row 2: closed world — all three modes byte-identical                *)

let closed_world_row ~requests ~violations =
  (* triangles gets an explicit all-total declaration, mod2 none at
     all: both paths must downgrade every mode to exact. *)
  let decls = demo_decls () @ [ parse_decl "triangles" "R1 total" ] in
  let engine = Engine.create ~config:{ Engine.default_config with decls } () in
  let payloads = cycle closed_payloads requests in
  let next_id = ref 0 in
  let serve mode payload =
    incr next_id;
    Engine.handle engine (Request.make ?mode ~id:!next_id payload)
  in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let check i payload =
    let re = serve None payload in
    let rc = serve (Some Request.M_certain) payload in
    let rp = serve (Some Request.M_possible) payload in
    let ra =
      serve
        (Some (Request.M_approximate { budget = Request.default_budget }))
        payload
    in
    let reference = Bench_util.bytes { re with Request.id = 0 } in
    List.iter
      (fun (mode, r) ->
        if Bench_util.bytes { r with Request.id = 0 } <> reference then
          violate "closed_world: request %d: %s mode differs from exact" i mode;
        if r.Request.cert <> Request.Cert_exact then
          violate "closed_world: request %d: %s mode attached a certificate" i
            mode)
      [ ("certain", rc); ("possible", rp); ("approximate", ra) ]
  in
  let (), wall = Bench_util.time (fun () -> List.iteri check payloads) in
  Json.Obj
    [
      ("name", Json.String "closed_world");
      ("requests", Json.Int requests);
      ("wall_s", Json.Float wall);
      ("modes_compared", Json.Int 4);
    ]

(* ------------------------------------------------------------------ *)
(* Row 3: approximate converges to certain as the budget grows         *)

let approximate_row ~violations =
  let engine =
    Engine.create
      ~config:{ Engine.default_config with decls = demo_decls () }
      ()
  in
  let next_id = ref 0 in
  let serve mode payload =
    incr next_id;
    Engine.handle engine (Request.make ?mode ~id:!next_id payload)
  in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let reference =
    List.map
      (fun p ->
        Bench_util.bytes
          { (serve (Some Request.M_certain) p) with Request.id = 0 })
      open_payloads
  in
  let total = List.length open_payloads in
  let sweep = ref [] in
  let budget = ref 1 in
  let matched = ref 0 in
  let cap = 10_000_000 in
  let run_budget b =
    let n = ref 0 in
    List.iteri
      (fun i p ->
        let r = serve (Some (Request.M_approximate { budget = b })) p in
        let bytes = Bench_util.bytes { r with Request.id = 0 } in
        let ref_bytes = List.nth reference i in
        (match r.Request.cert with
        | Request.Cert_approximate { budget_spent; _ } ->
            if budget_spent > b then
              violate
                "approximate: request %d: budget_spent %d exceeds budget %d" i
                budget_spent b
        | _ ->
            (* did not trip: the answer must already be the certain one *)
            if bytes <> ref_bytes then
              violate
                "approximate: request %d: untripped at budget %d but differs \
                 from certain"
                i b);
        if bytes = ref_bytes then incr n)
      open_payloads;
    !n
  in
  let (), wall =
    Bench_util.time (fun () ->
        matched := run_budget !budget;
        sweep := (!budget, !matched) :: !sweep;
        while !matched < total && !budget < cap do
          budget := !budget * 8;
          matched := run_budget !budget;
          sweep := (!budget, !matched) :: !sweep
        done)
  in
  if !matched < total then
    violate "approximate: %d/%d requests still differ from certain at budget %d"
      (total - !matched) total !budget;
  Json.Obj
    [
      ("name", Json.String "approximate");
      ("requests", Json.Int total);
      ("wall_s", Json.Float wall);
      ("converged_at_budget", Json.Int !budget);
      ( "sweep",
        Json.List
          (List.rev_map
             (fun (b, n) ->
               Json.Obj
                 [ ("budget", Json.Int b); ("matching_certain", Json.Int n) ])
             !sweep) );
    ]

(* ------------------------------------------------------------------ *)
(* Row 4: the certificate machinery costs no oracle questions          *)

let overhead_row ~requests ~violations =
  let payloads = cycle open_payloads requests in
  let serve_all engine =
    List.map
      (fun p -> Bench_util.bytes (Engine.handle engine (Request.make ~id:0 p)))
      payloads
  in
  let plain = Engine.create () in
  let declared =
    Engine.create
      ~config:{ Engine.default_config with decls = demo_decls () }
      ()
  in
  (* best of three passes each: the first pays the oracle evaluation,
     the warm repeats measure the per-request serving path (where a
     certificate scan would show up if exact mode ever ran one) *)
  let best engine = Bench_util.best_of 3 (fun () -> serve_all engine) in
  let plain_bytes, plain_s = best plain in
  let declared_bytes, declared_s = best declared in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  if plain_bytes <> declared_bytes then
    violate "overhead: declared engine served different bytes in exact mode";
  let pq = Engine.question_count plain in
  let dq = Engine.question_count declared in
  if pq <> dq then
    violate "overhead: question ledgers differ (plain %d, declared %d)" pq dq;
  let frac = if plain_s > 0. then (declared_s /. plain_s) -. 1. else 0. in
  (* wall gate with an absolute slack so sub-50ms smoke runs don't
     flake on scheduler noise; the ledger equality above is the real
     claim *)
  if frac >= 0.05 && declared_s -. plain_s >= 0.05 then
    violate "overhead: wall overhead %.1f%% >= 5%%" (100. *. frac);
  Json.Obj
    [
      ("name", Json.String "overhead");
      ("requests", Json.Int requests);
      ("wall_s", Json.Float (plain_s +. declared_s));
      ("plain_s", Json.Float plain_s);
      ("declared_s", Json.Float declared_s);
      ("overhead_frac", Json.Float frac);
      ("questions", Json.Int pq);
    ]

(* ------------------------------------------------------------------ *)

let run ?(requests = 120) () =
  let violations = ref [] in
  let rows =
    [
      subset_row ~requests ~violations;
      closed_world_row ~requests ~violations;
      approximate_row ~violations;
      overhead_row ~requests ~violations;
    ]
  in
  let violations = List.rev !violations in
  ( Json.Obj
      [
        ("experiment", Json.String "E33 incomplete");
        ("requests", Json.Int requests);
        ("rows", Json.List rows);
        ("violations", Bench_util.strings violations);
      ],
    violations )
