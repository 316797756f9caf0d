(* Seeded request streams for the serving benchmark.

   One generator feeds all four workloads, so the workloads differ only
   in how they draw from it (novel draws, a Zipf-ranked hot set, a
   populate set plus novel draws) and never in what a request looks
   like.  Every stream is a pure function of the seed: the same seed
   gives byte-identical lines (the tests pin a digest), and the servers
   only ever see the generated lines.

   The mix is chosen so the whole-request memo almost never hits on
   novel draws: FO sentences and queries come from a random grammar
   (millions of distinct texts), RQL texts combine a handful of fixpoint
   templates with random names, spacing and a random FO tail (so the
   normalized plan key repeats across alpha-variants while the raw key
   does not), and trees, QL programs and class counts add the other
   operations in small shares. *)

(* Graph instances (database type (2)): every generated formula uses
   only R1, so each is well-formed on each of them. *)
let instances =
  [| "clique"; "mod2"; "mod3"; "triangles"; "paths3"; "arrows"; "bipartite" |]

(* The hot set and its Zipf skew.  BENCHMARK.json states both in the
   hot_zipf rationale; the tests check that it still does. *)
let hot_size = 256
let zipf_s = 1.1

let pick st a = a.(Random.State.int st (Array.length a))
let range st lo hi = lo + Random.State.int st (hi - lo + 1)

(* FO formulas over R1 whose free variables all lie in [scope].
   Quantifiers bind [vars.(fresh)], so nested binders never shadow and
   a formula never needs more than [Array.length vars] variables. *)
let vars = [| "x"; "y"; "z"; "w" |]

let rec formula st ~scope ~fresh ~depth ~max_vars =
  if depth = 0 || Random.State.int st 4 = 0 then atom st scope
  else
    let sub ?(scope = scope) ?(fresh = fresh) () =
      formula st ~scope ~fresh ~depth:(depth - 1) ~max_vars
    in
    match Random.State.int st 6 with
    | (0 | 1) when fresh < max_vars ->
        let v = vars.(fresh) in
        let q = if Random.State.bool st then "exists" else "forall" in
        Printf.sprintf "%s %s. (%s)" q v (sub ~scope:(v :: scope) ~fresh:(fresh + 1) ())
    | 2 -> Printf.sprintf "!(%s)" (sub ())
    | 3 -> Printf.sprintf "(%s && %s)" (sub ()) (sub ())
    | 4 -> Printf.sprintf "(%s || %s)" (sub ()) (sub ())
    | _ -> Printf.sprintf "(%s -> %s)" (sub ()) (sub ())

and atom st scope =
  match scope with
  | [] -> if Random.State.bool st then "true" else "false"
  | _ -> (
      let s = Array.of_list scope in
      let a = pick st s and b = pick st s in
      match Random.State.int st 4 with
      | 0 | 1 -> Printf.sprintf "R1(%s, %s)" a b
      | 2 -> Printf.sprintf "%s = %s" a b
      | _ -> Printf.sprintf "%s != %s" a b)

let sentence st =
  let q = if Random.State.bool st then "exists" else "forall" in
  Printf.sprintf "%s x. (%s)" q
    (formula st ~scope:[ "x" ] ~fresh:1 ~depth:(range st 3 5) ~max_vars:4)

let query st =
  if Random.State.int st 3 = 0 then
    Printf.sprintf "{(x) | %s}"
      (formula st ~scope:[ "x" ] ~fresh:1 ~depth:(range st 1 3) ~max_vars:3)
  else
    Printf.sprintf "{(x,y) | %s}"
      (formula st ~scope:[ "x"; "y" ] ~fresh:2 ~depth:(range st 1 2) ~max_vars:3)

(* RQL: a fixpoint template with freshly drawn names and spacing (an
   alpha/whitespace variant of the template) and a random FO filter in
   the target. *)
let def_names = [| "conn"; "reach"; "tc"; "path"; "r"; "p"; "q"; "link" |]
let var_names = [| "a"; "b"; "c"; "u"; "v"; "s"; "t"; "m"; "n" |]

let distinct3 st a =
  let x = pick st a in
  let rec other excl =
    let y = pick st a in
    if List.mem y excl then other excl else y
  in
  let y = other [ x ] in
  (x, y, other [ x; y ])

let rql_text st =
  let p = pick st def_names in
  let a, b, c = distinct3 st var_names in
  let sp = if Random.State.bool st then " " else "" in
  let closure =
    Printf.sprintf "fix %s(%s,%s%s)%s=%sR1(%s,%s%s)%s||%sexists %s.%s(R1(%s,%s%s)%s&&%s%s(%s,%s%s));"
      p a sp b sp sp a sp b sp sp c sp a sp c sp sp p c sp b
  in
  let filter () = formula st ~scope:[ a; b ] ~fresh:0 ~depth:1 ~max_vars:0 in
  match Random.State.int st 4 with
  | 0 ->
      Printf.sprintf "%s query {(%s,%s) | %s(%s,%s) && %s}" closure a b p a b
        (filter ())
  | 1 ->
      Printf.sprintf "%s sentence exists %s. exists %s. (%s(%s,%s) && %s)"
        closure a b p a b (filter ())
  | 2 ->
      let l = pick st [| "live"; "src"; "from" |] in
      Printf.sprintf "%s let %s(%s) = exists %s. %s(%s,%s); query {(%s) | %s(%s)}"
        closure l a b p a b a l a
  | _ ->
      let e = pick st [| "e"; "sym"; "und" |] in
      Printf.sprintf
        "let %s(%s,%s) = R1(%s,%s) || R1(%s,%s); sentence forall %s. exists %s. (%s(%s,%s) || %s)"
        e a b a b b a a b e a b (filter ())

let programs =
  [|
    "Y1 <- ~(Rel1 & E)";
    "Y1 <- E; Y2 <- Y1^; Y3 <- Y2!%";
    "Y1 <- Rel1; while |Y2| = 0 do { Y2 <- E^ }";
    "Y1 <- Rel1^";
    "Y1 <- E; Y2 <- ~Y1";
  |]

(* One novel draw.  Shares: queries 50% (they carry most of the
   evaluation cost), sentences 20%, RQL 15%, and trees, QL programs and
   class counts 5% each. *)
let cold_payload st : Request.payload =
  let instance = pick st instances in
  match Random.State.int st 100 with
  | n when n < 20 -> Request.Sentence { instance; sentence = sentence st }
  | n when n < 70 ->
      Request.Query { instance; query = query st; cutoff = range st 8 32 }
  | n when n < 85 ->
      Request.Rql
        {
          instance;
          text = rql_text st;
          cutoff = range st 8 16;
          planner = Request.Plan_cost;
        }
  | n when n < 90 -> Request.Tree { instance; depth = range st 1 4 }
  | n when n < 95 ->
      Request.Program
        { instance; program = pick st programs; fuel = 1000; cutoff = range st 4 8 }
  | _ ->
      Request.Classes
        { db_type = pick st [| [| 2 |]; [| 1; 1 |]; [| 2; 1 |] |]; rank = range st 1 2 }

(* Independent sub-streams of one seed, so that (say) the length of the
   timed stream never shifts the hot set. *)
let state ~seed salt = Random.State.make [| seed; salt |]

let cold ~seed ~salt n =
  let st = state ~seed salt in
  Array.init n (fun _ -> cold_payload st)

(* The hot set: [hot_size] distinct requests with small answers, rank k
   of the op given by [hot_ops].  Zipf puts a fifth of the traffic on
   rank 1, so without a fixed op per rank and a bound on answer size,
   whichever request a seed happened to put near the top would set that
   seed's whole serving cost.  Trees and class counts have too few
   distinct small instances to fill their share, and class counts
   bypass the result memo, so the hot set draws queries, sentences, RQL
   and QL programs only. *)
let hot_max_bytes = 512

let hot_ops = "QSQRQSQPQSQRQSQRQSQP"

let op_code : Request.payload -> char = function
  | Request.Sentence _ -> 'S'
  | Request.Query _ -> 'Q'
  | Request.Rql _ -> 'R'
  | Request.Tree _ -> 'T'
  | Request.Program _ -> 'P'
  | Request.Classes _ | Request.Stats -> 'C'

let hot_set ~seed =
  let st = state ~seed 1 in
  let engine = Engine.create ~shared:(Shared_memo.create ()) () in
  let small p =
    let r = Engine.handle engine (Request.make ~id:0 p) in
    String.length (Json.to_string (Request.response_to_json ~stats:false r)) <= hot_max_bytes
  in
  let seen = Hashtbl.create hot_size in
  Array.init hot_size (fun k ->
      let op = hot_ops.[k mod String.length hot_ops] in
      let rec draw () =
        let p = cold_payload st in
        let key = Json.to_string (Request.to_json (Request.make ~id:0 p)) in
        if op_code p = op && (not (Hashtbl.mem seen key)) && small p then begin
          Hashtbl.add seen key ();
          p
        end
        else draw ()
      in
      draw ())

let zipf_cdf n s =
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draws ~seed ~n ~size =
  let cdf = zipf_cdf size zipf_s in
  let st = state ~seed 2 in
  Array.init n (fun _ ->
      let u = Random.State.float st 1.0 in
      let lo = ref 0 and hi = ref (size - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      !lo)

(* Touch every instance once, so instance construction is set-up work
   and not charged to the first timed requests. *)
let touch_instances () =
  Array.map
    (fun instance -> Request.Sentence { instance; sentence = "exists x. x = x" })
    instances

type workload = Cold_mix | Hot_zipf | Routed_zipf | Durable_mix

let workload_of_string = function
  | "cold_mix" -> Some Cold_mix
  | "hot_zipf" -> Some Hot_zipf
  | "routed_zipf" -> Some Routed_zipf
  | "durable_mix" -> Some Durable_mix
  | _ -> None

let workload_name = function
  | Cold_mix -> "cold_mix"
  | Hot_zipf -> "hot_zipf"
  | Routed_zipf -> "routed_zipf"
  | Durable_mix -> "durable_mix"

let populate_size = 400

(* A workload's requests: [warm] is served during set-up (untimed),
   [timed] in the measured window. *)
type stream = { warm : Request.payload array; timed : Request.payload array }

let stream w ~seed ~n =
  match w with
  | Cold_mix -> { warm = touch_instances (); timed = cold ~seed ~salt:3 n }
  | Hot_zipf | Routed_zipf ->
      let hot = hot_set ~seed in
      {
        warm = hot;
        timed = Array.map (fun k -> hot.(k)) (zipf_draws ~seed ~n ~size:hot_size);
      }
  | Durable_mix ->
      (* Even positions re-read a populate request (a loaded-memo hit),
         odd positions are novel (a journal append and fresh memo
         entries for the next snapshot). *)
      let populate = cold ~seed ~salt:4 populate_size in
      let novel = cold ~seed ~salt:5 ((n + 1) / 2) in
      let st = state ~seed 6 in
      {
        warm = populate;
        timed =
          Array.init n (fun i ->
              if i mod 2 = 0 then pick st populate else novel.(i / 2));
      }

(* Line [i] of a stream carries id [base + i]: ids are unique within a
   run, which is how the load generator correlates responses. *)
let line ~id p = Json.to_string (Request.to_json (Request.make ~id p))
let lines ~base ps = Array.mapi (fun i p -> line ~id:(base + i) p) ps

let digest ps =
  Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list (lines ~base:1 ps))))
