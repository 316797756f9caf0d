(** The engine's typed request/response ABI.

    A request names an operation over the library — evaluate an FO
    sentence or query on a named hs instance, count ≅ₗ classes, expand a
    characteristic tree, run a QL_hs program with fuel — plus a
    deterministic id used to match responses to requests.  Responses
    carry a structured outcome or error and per-request cost accounting
    in the paper's oracle model: raw oracle questions (to the Rᵢ),
    questions to the T_B and ≅_B oracles, cache hits, and wall time.

    The JSON wire format (one value per line, "JSON-lines"):

    {v
    {"id":1,"op":"sentence","instance":"triangles","sentence":"exists x. exists y. R1(x, y)"}
    {"id":2,"op":"query","instance":"rado","query":"{(x,y) | R1(x,y)}","cutoff":4}
    {"id":3,"op":"classes","type":[2,1],"rank":2}
    {"id":4,"op":"tree","instance":"mod2","depth":2}
    {"id":5,"op":"program","instance":"triangles","program":"Y1 <- ~(Rel1 & E)","fuel":1000,"cutoff":4}
    {"id":6,"op":"rql","instance":"paths3","text":"fix p(x,y) = R1(x,y) || exists z. (R1(x,z) && p(z,y)); query {(x,y) | p(x,y)}","cutoff":4,"planner":"cost"}
    v}

    Everything except the result's [stats] field is a deterministic
    function of the request — that is the {!Pool} byte-identity
    contract, checked by [to_json ~stats:false]. *)

type planner =
  | Plan_naive  (** literal compilation and evaluation *)
  | Plan_cost
      (** cost-based rewrites + question-saving evaluation — the
          default; both planners return byte-identical outcomes *)

type payload =
  | Sentence of { instance : string; sentence : string }
      (** Truth of an FO sentence in the infinite structure. *)
  | Query of { instance : string; query : string; cutoff : int }
      (** FO query: class representatives + concrete members below
          [cutoff]. *)
  | Classes of { db_type : int array; rank : int }
      (** |Cⁿ| for a database type — the paper's 68. *)
  | Tree of { instance : string; depth : int }
      (** Levels T¹..T^depth of the characteristic tree. *)
  | Program of { instance : string; program : string; fuel : int; cutoff : int }
      (** Run a QL_hs program; report Y1. *)
  | Rql of { instance : string; text : string; cutoff : int; planner : planner }
      (** Evaluate an RQL query (see [lib/rql]): [let]/[fix] bindings
          over FO formulas plus a sentence/query/tree target.  [cutoff]
          bounds the member window of query targets (an inline
          [cutoff N] in the text wins). *)
  | Stats
      (** Report the serving node's cumulative question {!ledger}.
          Answered by whichever tier receives it — an engine reports
          its own counters, a server its pool-wide ledger, the cluster
          router the componentwise sum over every shard — and asks
          zero Def. 3.9 questions itself. *)

(** Which incompleteness semantics the answer is computed under (see
    [lib/incomplete]).  Wire encoding: an optional ["mode"] string
    field — ["exact"], ["certain"], ["possible"] or ["approximate"] —
    plus an optional ["budget"] integer legal only with
    ["approximate"].  A request without a mode uses the serving node's
    default ([recdb serve --default-mode], exact out of the box). *)
type mode =
  | M_exact  (** today's semantics: the stored instance is complete *)
  | M_certain  (** true in {e every} completion of the declared instance *)
  | M_possible  (** true in {e some} completion *)
  | M_approximate of { budget : int }
      (** certain-mode evaluation under a consult-denominated budget —
          deterministic, hence memoizable (see [Incomplete.Budget]) *)

val default_budget : int
(** The ["budget"] default when ["mode":"approximate"] is sent without
    one (10,000 consults). *)

val mode_to_string : mode -> string
(** The wire keyword: ["exact"], ["certain"], ["possible"],
    ["approximate"] (the budget is not included). *)

type t = { id : int; payload : payload; mode : mode option }

val make : ?mode:mode -> id:int -> payload -> t
(** [mode] defaults to [None] — "use the server default". *)

(** The typed completeness certificate attached to every response.
    [Cert_exact] means the answer is the same in every completion —
    every answer that never touched an open relation, whatever mode
    was requested — and is omitted from the wire encoding, keeping
    such responses byte-identical to the pre-incompleteness ABI.
    Certificates are part of the deterministic response (they are
    persisted in store snapshots and shared via [Shared_memo]) but
    never change the Def. 3.9 ledger: certificate computation is
    structural, over the already-parsed payload, and asks no oracle
    questions. *)
type certificate =
  | Cert_exact
  | Cert_certain_lower
      (** sound lower bound: everything reported holds in every
          completion, but more may hold in some *)
  | Cert_possible_upper
      (** sound upper bound: everything that holds in some completion
          is reported, plus possibly more *)
  | Cert_approximate of { budget_spent : int; open_rels : string list }
      (** the approximation budget tripped after [budget_spent]
          consults; the answer is the certain lower bound established
          before the trip.  [open_rels] names the open relations the
          payload mentions (["R1"], …). *)

(** The cumulative Def. 3.9 question ledger of one serving node, as
    reported by the [stats] op and summed by the cluster router.
    [l_questions = l_raw + l_tb + l_equiv] always; the hedge/shed
    fields are zero except at a router, which is what makes
    {!Ledger_merge.sum} in [lib/cluster] a plain componentwise sum. *)
type ledger = {
  l_node : string;  (** "engine", "host:port", or "cluster" *)
  l_questions : int;  (** genuine questions: raw + T_B + ≅_B *)
  l_raw : int;
  l_tb : int;
  l_equiv : int;
  l_cache_hits : int;
  l_served : int;  (** requests admitted past this node's door *)
  l_hedges_fired : int;
  l_hedge_wins : int;
  l_sheds : int;
  l_reachable : bool;
      (** [false] only in a router's row for a shard that did not answer
          the [stats] op in time (all counts zero); rendered as
          ["unreachable":true], a field healthy rows never carry *)
}

val ledger :
  ?served:int ->
  ?hedges_fired:int ->
  ?hedge_wins:int ->
  ?sheds:int ->
  node:string ->
  raw:int ->
  tb:int ->
  equiv:int ->
  cache_hits:int ->
  unit ->
  ledger
(** Smart constructor enforcing [l_questions = raw + tb + equiv]; the
    row is reachable. *)

type outcome =
  | Bool of bool
  | Count of int
  | Rel of {
      rank : int;
      reps : Prelude.Tuple.t list;
      members : Prelude.Tuple.t list;
    }
  | Levels of Prelude.Tuple.t list list  (** T¹, T², ... *)
  | Undefined  (** the query/program denotes the undefined relation *)
  | Ledger_report of { cluster : ledger; shards : ledger list }
      (** Answer to {!Stats}: the answering node's own ledger in
          [cluster], plus the per-shard breakdown when the answerer is
          a router ([shards = []] on a single node). *)

type error =
  | Parse_error of string
  | Unknown_instance of string
  | Not_a_sentence of string list  (** free variables *)
  | Timeout of int  (** fuel spent *)
  | Ill_formed of string
  | Bad_request of string
  | Budget_exceeded of { limit : int }
      (** The per-request oracle-question quota ran out; exact
          cost-so-far is in the response's [stats] (the aborting check
          fires before the over-budget question is asked, so the ledger
          stays exact — see DESIGN.md). *)
  | Deadline_exceeded of { deadline_s : float }
      (** The per-request wall-clock deadline passed; elapsed time is
          the response's [stats.wall_s].  Only the armed bound is
          encoded so the error JSON stays deterministic. *)
  | Oracle_unavailable of { oracle : string; attempts : int }
      (** The cluster router could not reach the shard owning this
          request ([oracle] names the shard, [attempts] the tries). *)
  | Worker_crash of string
      (** The {!Pool} worker serving this request died; the batch's
          other requests were unaffected. *)
  | Overloaded of { limit : int }
      (** Shed at the server's admission door: the global in-flight
          window ([limit] requests) was full when this request arrived.
          A shed request never reaches an engine, so it asks {e zero}
          oracle questions — a typed, honest partial answer in the
          spirit of Def. 2.4, not a silent queueing delay. *)

type stats = {
  oracle_calls : int;  (** genuine questions to the Rᵢ oracles *)
  tb_calls : int;  (** questions to the T_B (children) oracle *)
  equiv_calls : int;  (** questions to the ≅_B oracle *)
  cache_hits : int;  (** lookups answered by the LRU, not the oracle *)
  wall_s : float;
}

val zero_stats : stats

(** Shared guard rails: parse-time validation ({!of_json}) and the
    engine's evaluation-time checks both read these bounds, so a
    request that decodes cleanly can never reach an unbounded
    combinatorial blow-up through its {e scalar} fields (evaluation
    itself is bounded separately, by budgets and deadlines). *)
module Bounds : sig
  val max_rank : int
  val max_arity : int
  val max_width : int
  val max_depth : int
  val max_cutoff : int
  val max_fuel : int
end

val validate_payload : payload -> (unit, error) Stdlib.result
(** [Error (Bad_request _)] when a scalar field (fuel, cutoff, depth,
    rank, arities) is outside {!Bounds} — negative or zero fuel, absurd
    ranks, etc.  Applied by {!of_json} so malformed requests are
    rejected at parse time instead of evaluated. *)

(** One answer to one request.  The body is the typed {!outcome} in a
    {!response}, and its encoded bytes in an {!encoded} reply — the
    form the result memo keeps and the wire writes. *)
type 'body reply = {
  id : int;
  result : ('body, error) Stdlib.result;
  cert : certificate;
  stats : stats;
}

type response = outcome reply

type encoded = string reply
(** [Ok body] holds [outcome_bytes o]: the canonical encoding of the
    outcome, built once on the miss that computed it and spliced into
    every response line after that.  Errors stay typed. *)

val of_json :
  ?default_id:int -> ?on_unknown:(string -> unit) -> Json.t ->
  (t, error) Stdlib.result
(** Decode one request object.  A missing ["id"] falls back to
    [default_id] (callers pass the 1-based line number, keeping ids
    deterministic).  Structural problems and out-of-range fields are
    [Bad_request]; the decoded payload has passed
    {!validate_payload}.  [on_unknown] is called once per top-level
    field outside the op's vocabulary — unknown fields stay accepted
    (a typo'd field must not break an otherwise-valid request mid-
    deploy) but the server counts and logs them, because a typo'd
    ["mode"] silently serving the wrong semantics is worse than a
    warning. *)

val of_line :
  ?default_id:int -> ?on_unknown:(string -> unit) -> string ->
  (t, error) Stdlib.result
(** Parse + decode one JSON line.  Malformed JSON is [Parse_error];
    either way the caller gets a typed error it can turn into a
    per-line error response instead of aborting a batch. *)

val decode_line :
  ?on_unknown:(string -> unit) ->
  default_id:int ->
  string ->
  [ `Empty | `Request of t | `Error of 'body reply ]
(** The per-line serving step shared by [recdb serve-batch] and the
    socket front-end ({!Conn} in [lib/net]): blank lines are skipped,
    a decodable line becomes a request, and a malformed line becomes a
    ready-made error {e response} (typed [Parse_error]/[Bad_request],
    zero stats) so one bad line never aborts a batch or kills a
    connection.  The error response carries the line's own integer
    ["id"] whenever the line is a JSON object that declares one, and
    [default_id] only when the id is missing or does not decode. *)

val to_json : t -> Json.t
(** Round-trips through {!of_json}. *)

val response_to_json : ?stats:bool -> response -> Json.t
(** [~stats:false] omits the stats field — the deterministic part used
    for byte-identity comparison.  The certificate {e is} part of the
    deterministic response; [Cert_exact] is encoded by omission. *)

(** {2 Encoded answers}

    The wire path never builds a {!Json.t} for an outcome it already
    holds as bytes: {!write_reply} splices the body in as it is. *)

val outcome_to_json : outcome -> Json.t

val outcome_bytes : outcome -> string
(** [Json.to_string (outcome_to_json o)] — the body of an {!encoded}
    reply and of a result-memo entry. *)

val rel_prefix : rank:int -> reps:Prelude.Tuple.t list -> string
(** The bytes of a relation outcome up to its last field's value:
    [rel_bytes ~prefix:(rel_prefix ~rank ~reps)
      ~members:(tuples_bytes members)]
    equals [outcome_bytes (Rel { rank; reps; members })].  The engine
    keeps a member list as its {!tuples_bytes} text and splices it into
    any answer with the same representatives. *)

val tuples_bytes : Prelude.Tuple.t list -> string
(** The JSON text of a tuple list, as a relation outcome writes its
    [reps] and [members]. *)

val rel_bytes : prefix:string -> members:string -> string
(** Close a {!rel_prefix} with a member list's {!tuples_bytes}. *)

val outcome_of_json : string -> (outcome, error) Stdlib.result
(** Decode a body written by {!outcome_bytes}:
    [outcome_of_json (outcome_bytes o) = Ok o].  Total on arbitrary
    bytes: malformed JSON is [Parse_error], a value of the wrong shape
    [Ill_formed]; it never raises.  The engine decodes a memo hit's
    bytes only when a caller asks for the typed {!response}, and the
    store checks every persisted body with it before loading. *)

val encode : response -> encoded
(** Encode the outcome (once); id, error, certificate and stats are
    kept as they are. *)

val write_reply : ?stats:bool -> Buffer.t -> encoded -> unit
(** Append one response line, without the newline:
    [{"id":N,"ok":<body>[,"cert":…][,"stats":…]}] or the same with an
    ["error"] object.  For every response [r] the bytes equal
    [Json.to_string (response_to_json ?stats r)] for [encode r].
    Every path that writes a response line — the socket connection,
    the server and [recdb serve-batch] — writes it with this. *)

val reply_line : ?stats:bool -> encoded -> string
(** {!write_reply} into a fresh buffer sized for the body. *)

val certificate_to_json : certificate -> Json.t
val certificate_of_json : Json.t -> certificate option
(** Decode a certificate object as emitted by {!certificate_to_json};
    [None] on an unknown kind. *)

val error_to_string : error -> string

val op_name : payload -> string
(** The wire ["op"] name of a payload (["sentence"], ["query"], …). *)

val payload_instance : payload -> string option
(** The instance a request touches, if any. *)

val ledger_to_json : ledger -> Json.t
val ledger_of_json : Json.t -> ledger option
(** Decode one ledger object as emitted by {!ledger_to_json}; [None]
    when the ["node"]/["oracle_calls"] fields are missing or mistyped.
    Missing optional fields default to zero, so older shards parse. *)
