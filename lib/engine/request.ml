open Prelude

type planner = Plan_naive | Plan_cost

type payload =
  | Sentence of { instance : string; sentence : string }
  | Query of { instance : string; query : string; cutoff : int }
  | Classes of { db_type : int array; rank : int }
  | Tree of { instance : string; depth : int }
  | Program of { instance : string; program : string; fuel : int; cutoff : int }
  | Rql of { instance : string; text : string; cutoff : int; planner : planner }
  | Stats

(* Incompleteness-aware answering (lib/incomplete): which semantics the
   answer is computed under.  [None] on the wire means "server
   default" ([recdb serve --default-mode], exact unless overridden).
   The budget of [M_approximate] is consult-denominated — see
   [Incomplete.Budget] — so approximate answers are deterministic and
   memoizable. *)
type mode =
  | M_exact
  | M_certain
  | M_possible
  | M_approximate of { budget : int }

let default_budget = 10_000

let mode_to_string = function
  | M_exact -> "exact"
  | M_certain -> "certain"
  | M_possible -> "possible"
  | M_approximate _ -> "approximate"

type t = { id : int; payload : payload; mode : mode option }

let make ?mode ~id payload = { id; payload; mode }

(* The completeness certificate attached to every response.  [exact]
   certificates are mode-independent (the answer is the same in every
   completion of the instance) and are omitted from the wire encoding,
   which keeps responses byte-identical to the pre-incompleteness ABI
   whenever nothing open is involved. *)
type certificate =
  | Cert_exact
  | Cert_certain_lower
  | Cert_possible_upper
  | Cert_approximate of { budget_spent : int; open_rels : string list }

(* The cumulative Def. 3.9 question ledger of one serving node — what
   the [stats] op reports and what the cluster router sums.  Questions
   are the paper's genuine oracle questions (raw Rᵢ + T_B + ≅_B); the
   hedge/shed fields are router-side and identically zero on a shard,
   which is what makes the merge a plain componentwise sum. *)
type ledger = {
  l_node : string;
  l_questions : int;
  l_raw : int;
  l_tb : int;
  l_equiv : int;
  l_cache_hits : int;
  l_served : int;
  l_hedges_fired : int;
  l_hedge_wins : int;
  l_sheds : int;
  l_reachable : bool;
}

let ledger ?(served = 0) ?(hedges_fired = 0) ?(hedge_wins = 0) ?(sheds = 0)
    ~node ~raw ~tb ~equiv ~cache_hits () =
  {
    l_node = node;
    l_questions = raw + tb + equiv;
    l_raw = raw;
    l_tb = tb;
    l_equiv = equiv;
    l_cache_hits = cache_hits;
    l_served = served;
    l_hedges_fired = hedges_fired;
    l_hedge_wins = hedge_wins;
    l_sheds = sheds;
    l_reachable = true;
  }

type outcome =
  | Bool of bool
  | Count of int
  | Rel of { rank : int; reps : Tuple.t list; members : Tuple.t list }
  | Levels of Tuple.t list list
  | Undefined
  | Ledger_report of { cluster : ledger; shards : ledger list }

type error =
  | Parse_error of string
  | Unknown_instance of string
  | Not_a_sentence of string list
  | Timeout of int
  | Ill_formed of string
  | Bad_request of string
  | Budget_exceeded of { limit : int }
  | Deadline_exceeded of { deadline_s : float }
  | Oracle_unavailable of { oracle : string; attempts : int }
  | Worker_crash of string
  | Overloaded of { limit : int }

type stats = {
  oracle_calls : int;
  tb_calls : int;
  equiv_calls : int;
  cache_hits : int;
  wall_s : float;
}

let zero_stats =
  {
    oracle_calls = 0;
    tb_calls = 0;
    equiv_calls = 0;
    cache_hits = 0;
    wall_s = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Guard rails, shared by parse-time validation (here) and the engine's
   evaluation-time checks: class enumeration and tree expansion are
   exponential in rank/arity, so a serving stack bounds them at the
   door rather than letting one request starve a worker. *)

module Bounds = struct
  let max_rank = 4
  let max_arity = 4
  let max_width = 4
  let max_depth = 6
  let max_cutoff = 32
  let max_fuel = 10_000_000
end

let validate_payload = function
  | Sentence _ -> Ok ()
  | Query { cutoff; _ } ->
      if cutoff < 0 || cutoff > Bounds.max_cutoff then
        Error
          (Bad_request
             (Printf.sprintf "cutoff must be in 0..%d" Bounds.max_cutoff))
      else Ok ()
  | Classes { db_type; rank } ->
      if rank < 0 || rank > Bounds.max_rank then
        Error
          (Bad_request (Printf.sprintf "rank must be in 0..%d" Bounds.max_rank))
      else if Array.length db_type = 0 || Array.length db_type > Bounds.max_width
      then
        Error
          (Bad_request
             (Printf.sprintf "type must have 1..%d relations" Bounds.max_width))
      else if Array.exists (fun a -> a < 0 || a > Bounds.max_arity) db_type then
        Error
          (Bad_request
             (Printf.sprintf "arities must be in 0..%d" Bounds.max_arity))
      else Ok ()
  | Tree { depth; _ } ->
      if depth < 1 || depth > Bounds.max_depth then
        Error
          (Bad_request
             (Printf.sprintf "depth must be in 1..%d" Bounds.max_depth))
      else Ok ()
  | Program { fuel; cutoff; _ } ->
      if fuel < 1 || fuel > Bounds.max_fuel then
        Error
          (Bad_request
             (Printf.sprintf "fuel must be in 1..%d" Bounds.max_fuel))
      else if cutoff < 0 || cutoff > Bounds.max_cutoff then
        Error
          (Bad_request
             (Printf.sprintf "cutoff must be in 0..%d" Bounds.max_cutoff))
      else Ok ()
  | Rql { cutoff; _ } ->
      if cutoff < 0 || cutoff > Bounds.max_cutoff then
        Error
          (Bad_request
             (Printf.sprintf "cutoff must be in 0..%d" Bounds.max_cutoff))
      else Ok ()
  | Stats -> Ok ()

type 'body reply = {
  id : int;
  result : ('body, error) Stdlib.result;
  cert : certificate;
  stats : stats;
}

type response = outcome reply
type encoded = string reply

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

(* Error messages name the op and the offending field, so a bad wire
   line is diagnosable from the error response alone: the sender sees
   [op "query": missing required field "instance"], not a bare
   [missing field]. *)

let op_name = function
  | Sentence _ -> "sentence"
  | Query _ -> "query"
  | Classes _ -> "classes"
  | Tree _ -> "tree"
  | Program _ -> "program"
  | Rql _ -> "rql"
  | Stats -> "stats"

(* Every op's wire name, for the error messages below. *)
let known_ops =
  List.map op_name
    [
      Sentence { instance = ""; sentence = "" };
      Query { instance = ""; query = ""; cutoff = 0 };
      Classes { db_type = [||]; rank = 0 };
      Tree { instance = ""; depth = 0 };
      Program { instance = ""; program = ""; fuel = 0; cutoff = 0 };
      Rql { instance = ""; text = ""; cutoff = 0; planner = Plan_cost };
      Stats;
    ]

let in_op op msg =
  match op with
  | Some op -> Printf.sprintf "op %S: %s" op msg
  | None -> msg

let field_string ?op j key =
  match Json.member key j with
  | Some (Json.String s) -> Ok s
  | Some _ ->
      Error
        (Bad_request
           (in_op op (Printf.sprintf "field %S must be a string" key)))
  | None ->
      Error
        (Bad_request
           (in_op op (Printf.sprintf "missing required field %S" key)))

let field_int_default ?op j key default =
  match Json.member key j with
  | Some (Json.Int i) -> Ok i
  | Some _ ->
      Error
        (Bad_request
           (in_op op (Printf.sprintf "field %S must be an integer" key)))
  | None -> Ok default

let ( let* ) = Stdlib.Result.bind

(* The closed field vocabulary per op, for unknown-field detection: a
   typo'd field (say "mod" for "mode") must not silently serve the
   wrong semantics. *)
let allowed_fields op =
  let common = [ "id"; "op"; "mode"; "budget" ] in
  common
  @ (match op with
    | "sentence" -> [ "instance"; "sentence" ]
    | "query" -> [ "instance"; "query"; "cutoff" ]
    | "classes" -> [ "type"; "rank" ]
    | "tree" -> [ "instance"; "depth" ]
    | "program" -> [ "instance"; "program"; "fuel"; "cutoff" ]
    | "rql" -> [ "instance"; "text"; "cutoff"; "planner" ]
    | _ -> [])

let of_json ?(default_id = 0) ?on_unknown j =
  let* id = field_int_default j "id" default_id in
  let* op =
    match Json.member "op" j with
    | Some (Json.String s) -> Ok s
    | Some _ -> Error (Bad_request "field \"op\" must be a string")
    | None ->
        Error
          (Bad_request
             (Printf.sprintf "missing required field \"op\" (one of %s)"
                (String.concat ", "
                   (List.map (Printf.sprintf "%S") known_ops))))
  in
  (* Warn on unknown top-level fields as soon as the op is known, so
     the warning fires even when a later field fails validation. *)
  (match (on_unknown, j) with
  | Some warn, Json.Obj fields ->
      let allowed = allowed_fields op in
      List.iter
        (fun (k, _) -> if not (List.mem k allowed) then warn k)
        fields
  | _ -> ());
  let* payload =
    match op with
    | "sentence" ->
        let* instance = field_string ~op j "instance" in
        let* sentence = field_string ~op j "sentence" in
        Ok (Sentence { instance; sentence })
    | "query" ->
        let* instance = field_string ~op j "instance" in
        let* query = field_string ~op j "query" in
        let* cutoff = field_int_default ~op j "cutoff" 6 in
        Ok (Query { instance; query; cutoff })
    | "classes" ->
        let* rank = field_int_default ~op j "rank" 2 in
        let* db_type =
          match Json.member "type" j with
          | Some (Json.List xs) ->
              let ints = List.filter_map Json.to_int xs in
              if List.length ints <> List.length xs || ints = [] then
                Error
                  (Bad_request
                     (in_op (Some op)
                        "field \"type\" must be a non-empty list of arities"))
              else Ok (Array.of_list ints)
          | Some _ | None ->
              Error
                (Bad_request
                   (in_op (Some op)
                      "missing required field \"type\" (list of arities)"))
        in
        Ok (Classes { db_type; rank })
    | "tree" ->
        let* instance = field_string ~op j "instance" in
        let* depth = field_int_default ~op j "depth" 3 in
        Ok (Tree { instance; depth })
    | "program" ->
        let* instance = field_string ~op j "instance" in
        let* program = field_string ~op j "program" in
        let* fuel = field_int_default ~op j "fuel" 10_000 in
        let* cutoff = field_int_default ~op j "cutoff" 6 in
        Ok (Program { instance; program; fuel; cutoff })
    | "rql" ->
        let* instance = field_string ~op j "instance" in
        let* text = field_string ~op j "text" in
        let* cutoff = field_int_default ~op j "cutoff" 6 in
        let* planner =
          match Json.member "planner" j with
          | None -> Ok Plan_cost
          | Some (Json.String "cost") -> Ok Plan_cost
          | Some (Json.String "naive") -> Ok Plan_naive
          | Some _ ->
              Error
                (Bad_request
                   (in_op (Some op)
                      "field \"planner\" must be \"cost\" or \"naive\""))
        in
        Ok (Rql { instance; text; cutoff; planner })
    | "stats" -> Ok Stats
    | other ->
        Error
          (Bad_request
             (Printf.sprintf "unknown op %S (expected one of %s)" other
                (String.concat ", "
                   (List.map (Printf.sprintf "%S") known_ops))))
  in
  let* mode =
    let* budget =
      match Json.member "budget" j with
      | None -> Ok None
      | Some (Json.Int b) ->
          if b < 1 then
            Error (Bad_request (in_op (Some op) "field \"budget\" must be >= 1"))
          else Ok (Some b)
      | Some _ ->
          Error
            (Bad_request (in_op (Some op) "field \"budget\" must be an integer"))
    in
    match Json.member "mode" j with
    | None ->
        if budget <> None then
          Error
            (Bad_request
               (in_op (Some op)
                  "field \"budget\" requires \"mode\":\"approximate\""))
        else Ok None
    | Some (Json.String s) -> (
        match (s, budget) with
        | "exact", None -> Ok (Some M_exact)
        | "certain", None -> Ok (Some M_certain)
        | "possible", None -> Ok (Some M_possible)
        | "approximate", _ ->
            Ok
              (Some
                 (M_approximate
                    { budget = Option.value budget ~default:default_budget }))
        | ("exact" | "certain" | "possible"), Some _ ->
            Error
              (Bad_request
                 (in_op (Some op)
                    "field \"budget\" requires \"mode\":\"approximate\""))
        | _ ->
            Error
              (Bad_request
                 (in_op (Some op)
                    "field \"mode\" must be \"exact\", \"certain\", \
                     \"possible\" or \"approximate\"")))
    | Some _ ->
        Error (Bad_request (in_op (Some op) "field \"mode\" must be a string"))
  in
  let* () =
    Stdlib.Result.map_error
      (function
        | Bad_request m -> Bad_request (in_op (Some op) m)
        | e -> e)
      (validate_payload payload)
  in
  Ok { id; payload; mode }

let of_line ?default_id ?on_unknown line =
  match Json.parse line with
  | Error e -> Error (Parse_error (Printf.sprintf "bad JSON: %s" e))
  | Ok j -> of_json ?default_id ?on_unknown j

let decode_line ?on_unknown ~default_id line =
  if String.trim line = "" then `Empty
  else
    match of_line ~default_id ?on_unknown line with
    | Ok req -> `Request req
    | Error err ->
        (* Answer under the line's own id whenever it declares one, so
           the client can correlate the error; the line number only
           stands in for an id that is missing or does not decode. *)
        let id =
          match Json.parse line with
          | Ok j -> (
              match Json.member "id" j with
              | Some (Json.Int i) -> i
              | _ -> default_id)
          | Error _ -> default_id
        in
        `Error
          {
            id;
            result = Error err;
            cert = Cert_exact;
            stats = zero_stats;
          }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let to_json { id; payload; mode } =
  let fields =
    match payload with
    | Sentence { instance; sentence } ->
        [
          ("instance", Json.String instance);
          ("sentence", Json.String sentence);
        ]
    | Query { instance; query; cutoff } ->
        [
          ("instance", Json.String instance);
          ("query", Json.String query);
          ("cutoff", Json.Int cutoff);
        ]
    | Classes { db_type; rank } ->
        [
          ( "type",
            Json.List (Array.to_list (Array.map (fun a -> Json.Int a) db_type))
          );
          ("rank", Json.Int rank);
        ]
    | Tree { instance; depth } ->
        [
          ("instance", Json.String instance);
          ("depth", Json.Int depth);
        ]
    | Program { instance; program; fuel; cutoff } ->
        [
          ("instance", Json.String instance);
          ("program", Json.String program);
          ("fuel", Json.Int fuel);
          ("cutoff", Json.Int cutoff);
        ]
    | Rql { instance; text; cutoff; planner } ->
        [
          ("instance", Json.String instance);
          ("text", Json.String text);
          ("cutoff", Json.Int cutoff);
          ( "planner",
            Json.String
              (match planner with Plan_cost -> "cost" | Plan_naive -> "naive")
          );
        ]
    | Stats -> []
  in
  (* Mode at the end, and only when explicitly set: a request without
     one encodes byte-identically to the pre-incompleteness ABI (the
     memo key, the journal and every golden file depend on that). *)
  let mode_fields =
    match mode with
    | None -> []
    | Some M_exact -> [ ("mode", Json.String "exact") ]
    | Some M_certain -> [ ("mode", Json.String "certain") ]
    | Some M_possible -> [ ("mode", Json.String "possible") ]
    | Some (M_approximate { budget }) ->
        [ ("mode", Json.String "approximate"); ("budget", Json.Int budget) ]
  in
  Json.Obj
    ((("id", Json.Int id) :: ("op", Json.String (op_name payload)) :: fields)
    @ mode_fields)

let tuple_json u =
  Json.List (Array.to_list (Array.map (fun x -> Json.Int x) u))

let tuples_json us = Json.List (List.map tuple_json us)

let ledger_to_json l =
  Json.Obj
    ([
      ("node", Json.String l.l_node);
      ("questions", Json.Int l.l_questions);
      ("oracle_calls", Json.Int l.l_raw);
      ("tb_calls", Json.Int l.l_tb);
      ("equiv_calls", Json.Int l.l_equiv);
      ("cache_hits", Json.Int l.l_cache_hits);
      ("served", Json.Int l.l_served);
      ("hedges_fired", Json.Int l.l_hedges_fired);
      ("hedge_wins", Json.Int l.l_hedge_wins);
      ("sheds", Json.Int l.l_sheds);
    ]
    @ if l.l_reachable then [] else [ ("unreachable", Json.Bool true) ])

let ledger_of_json j =
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  let int0 k = Option.value (int k) ~default:0 in
  match (Json.member "node" j, int "oracle_calls") with
  | Some (Json.String node), Some raw ->
      let l =
        ledger ~node ~raw ~tb:(int0 "tb_calls") ~equiv:(int0 "equiv_calls")
          ~cache_hits:(int0 "cache_hits") ~served:(int0 "served")
          ~hedges_fired:(int0 "hedges_fired") ~hedge_wins:(int0 "hedge_wins")
          ~sheds:(int0 "sheds") ()
      in
      let unreachable = Json.member "unreachable" j = Some (Json.Bool true) in
      Some { l with l_reachable = not unreachable }
  | _ -> None

let outcome_to_json = function
  | Bool b -> Json.Obj [ ("kind", Json.String "bool"); ("value", Json.Bool b) ]
  | Count n -> Json.Obj [ ("kind", Json.String "count"); ("value", Json.Int n) ]
  | Rel { rank; reps; members } ->
      Json.Obj
        [
          ("kind", Json.String "relation");
          ("rank", Json.Int rank);
          ("reps", tuples_json reps);
          ("members", tuples_json members);
        ]
  | Levels levels ->
      Json.Obj
        [
          ("kind", Json.String "tree");
          ("levels", Json.List (List.map tuples_json levels));
        ]
  | Undefined -> Json.Obj [ ("kind", Json.String "undefined") ]
  | Ledger_report { cluster; shards } ->
      Json.Obj
        [
          ("kind", Json.String "stats");
          ("cluster", ledger_to_json cluster);
          ("shards", Json.List (List.map ledger_to_json shards));
        ]

let error_to_string = function
  | Parse_error m -> Printf.sprintf "parse error: %s" m
  | Unknown_instance i -> Printf.sprintf "unknown instance %S" i
  | Not_a_sentence vars ->
      Printf.sprintf "not a sentence: free variables %s"
        (String.concat ", " vars)
  | Timeout fuel -> Printf.sprintf "did not halt within %d steps" fuel
  | Ill_formed m -> Printf.sprintf "ill-formed: %s" m
  | Bad_request m -> Printf.sprintf "bad request: %s" m
  | Budget_exceeded { limit } ->
      Printf.sprintf "oracle budget of %d questions exhausted" limit
  | Deadline_exceeded { deadline_s } ->
      Printf.sprintf "deadline of %gs exceeded" deadline_s
  | Oracle_unavailable { oracle; attempts } ->
      Printf.sprintf "oracle %s unavailable after %d attempts" oracle attempts
  | Worker_crash m -> Printf.sprintf "worker crashed: %s" m
  | Overloaded { limit } ->
      Printf.sprintf "server overloaded: admission window of %d in-flight \
                      requests is full" limit

let error_to_json e =
  let tag =
    match e with
    | Parse_error _ -> "parse_error"
    | Unknown_instance _ -> "unknown_instance"
    | Not_a_sentence _ -> "not_a_sentence"
    | Timeout _ -> "timeout"
    | Ill_formed _ -> "ill_formed"
    | Bad_request _ -> "bad_request"
    | Budget_exceeded _ -> "budget_exceeded"
    | Deadline_exceeded _ -> "deadline_exceeded"
    | Oracle_unavailable _ -> "oracle_unavailable"
    | Worker_crash _ -> "worker_crash"
    | Overloaded _ -> "overloaded"
  in
  Json.Obj
    [ ("kind", Json.String tag); ("message", Json.String (error_to_string e)) ]

let stats_to_json s =
  Json.Obj
    [
      ("oracle_calls", Json.Int s.oracle_calls);
      ("tb_calls", Json.Int s.tb_calls);
      ("equiv_calls", Json.Int s.equiv_calls);
      ("cache_hits", Json.Int s.cache_hits);
      ("wall_s", Json.Float s.wall_s);
    ]

let certificate_to_json = function
  | Cert_exact -> Json.Obj [ ("kind", Json.String "exact") ]
  | Cert_certain_lower ->
      Json.Obj [ ("kind", Json.String "certain_lower_bound") ]
  | Cert_possible_upper ->
      Json.Obj [ ("kind", Json.String "possible_upper_bound") ]
  | Cert_approximate { budget_spent; open_rels } ->
      Json.Obj
        [
          ("kind", Json.String "approximate");
          ("budget_spent", Json.Int budget_spent);
          ( "open_relations_touched",
            Json.List (List.map (fun s -> Json.String s) open_rels) );
        ]

let certificate_of_json j =
  match Json.member "kind" j with
  | Some (Json.String "exact") -> Some Cert_exact
  | Some (Json.String "certain_lower_bound") -> Some Cert_certain_lower
  | Some (Json.String "possible_upper_bound") -> Some Cert_possible_upper
  | Some (Json.String "approximate") ->
      let budget_spent =
        match Json.member "budget_spent" j with
        | Some (Json.Int n) -> n
        | _ -> 0
      in
      let open_rels =
        match Json.member "open_relations_touched" j with
        | Some (Json.List xs) -> List.filter_map Json.to_string_opt xs
        | _ -> []
      in
      Some (Cert_approximate { budget_spent; open_rels })
  | _ -> None

let response_to_json ?(stats = true) r =
  let result_field =
    match r.result with
    | Ok o -> ("ok", outcome_to_json o)
    | Error e -> ("error", error_to_json e)
  in
  (* [exact] certificates are implicit — omitting them keeps every
     response that never touched an open relation byte-identical to
     the pre-incompleteness ABI. *)
  let cert_fields =
    match r.cert with
    | Cert_exact -> []
    | c -> [ ("cert", certificate_to_json c) ]
  in
  let base = [ ("id", Json.Int r.id); result_field ] @ cert_fields in
  Json.Obj (if stats then base @ [ ("stats", stats_to_json r.stats) ] else base)

(* ------------------------------------------------------------------ *)
(* Encoded answers: the result memo's values and the wire's bodies     *)

let outcome_bytes o = Json.to_string (outcome_to_json o)

(* [outcome_to_json (Rel …)] cut before its last field's value, which
   the memoized text of a member list completes. *)
let rel_prefix ~rank ~reps =
  let buf = Buffer.create 64 in
  Buffer.add_string buf {|{"kind":"relation","rank":|};
  Buffer.add_string buf (string_of_int rank);
  Buffer.add_string buf {|,"reps":|};
  Json.write buf (tuples_json reps);
  Buffer.add_string buf {|,"members":|};
  Buffer.contents buf

let tuples_bytes us = Json.to_string (tuples_json us)
let rel_bytes ~prefix ~members = String.concat "" [ prefix; members; "}" ]

let encode (r : response) = { r with result = Result.map outcome_bytes r.result }

(* The inverse of [outcome_bytes], total on arbitrary bytes: a hostile
   store record or a garbled body is a typed error, never an
   exception. *)
let outcome_of_json s =
  let bad what = Error (Ill_formed ("not an outcome: " ^ what)) in
  let tuple = function
    | Json.List xs -> (
        match List.filter_map Json.to_int xs with
        | ints when List.compare_lengths ints xs = 0 -> Some (Array.of_list ints)
        | _ -> None)
    | _ -> None
  in
  let all f = function
    | Json.List xs -> (
        match List.filter_map f xs with
        | ys when List.compare_lengths ys xs = 0 -> Some ys
        | _ -> None)
    | _ -> None
  in
  let field k j f = Option.bind (Json.member k j) f in
  let decode j =
    match Json.member "kind" j with
    | Some (Json.String "bool") -> (
        match Json.member "value" j with
        | Some (Json.Bool b) -> Ok (Bool b)
        | _ -> bad "bool without a boolean value")
    | Some (Json.String "count") -> (
        match Json.member "value" j with
        | Some (Json.Int n) -> Ok (Count n)
        | _ -> bad "count without an integer value")
    | Some (Json.String "relation") -> (
        match
          ( field "rank" j Json.to_int,
            field "reps" j (all tuple),
            field "members" j (all tuple) )
        with
        | Some rank, Some reps, Some members -> Ok (Rel { rank; reps; members })
        | _ -> bad "malformed relation")
    | Some (Json.String "tree") -> (
        match field "levels" j (all (all tuple)) with
        | Some levels -> Ok (Levels levels)
        | None -> bad "malformed tree")
    | Some (Json.String "undefined") -> Ok Undefined
    | Some (Json.String "stats") -> (
        match
          ( field "cluster" j ledger_of_json,
            field "shards" j (all ledger_of_json) )
        with
        | Some cluster, Some shards -> Ok (Ledger_report { cluster; shards })
        | _ -> bad "malformed ledger report")
    | _ -> bad "unknown kind"
  in
  match Json.parse s with
  | Ok j -> decode j
  | Error e -> Error (Parse_error e)
  | exception Stack_overflow -> bad "nested too deeply"

(* Byte-identical to [Json.to_string (response_to_json ~stats r)] with
   the outcome's bytes spliced in as they are: a memo hit writes its
   stored body without building or re-encoding a tree. *)
let write_reply ?(stats = true) buf (r : encoded) =
  Buffer.add_string buf "{\"id\":";
  Buffer.add_string buf (string_of_int r.id);
  (match r.result with
  | Ok body ->
      Buffer.add_string buf ",\"ok\":";
      Buffer.add_string buf body
  | Error e ->
      Buffer.add_string buf ",\"error\":";
      Json.write buf (error_to_json e));
  (match r.cert with
  | Cert_exact -> ()
  | c ->
      Buffer.add_string buf ",\"cert\":";
      Json.write buf (certificate_to_json c));
  if stats then begin
    Buffer.add_string buf ",\"stats\":";
    Json.write buf (stats_to_json r.stats)
  end;
  Buffer.add_char buf '}'

let reply_line ?stats (r : encoded) =
  let body = match r.result with Ok b -> String.length b | Error _ -> 0 in
  let buf = Buffer.create (body + 256) in
  write_reply ?stats buf r;
  Buffer.contents buf

let payload_instance = function
  | Sentence { instance; _ }
  | Query { instance; _ }
  | Tree { instance; _ }
  | Program { instance; _ }
  | Rql { instance; _ } ->
      Some instance
  | Classes _ | Stats -> None
