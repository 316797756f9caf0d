(* All five instances are graphs (db type (2)), so the same sentences
   and queries are well-formed on each. *)
let batch_instances = [ "triangles"; "mod2"; "mod3"; "paths3"; "clique" ]

let batch_sentences =
  [
    "forall x. forall y. R1(x, y) -> (exists z. R1(x, z) && R1(y, z))";
    "exists x. forall y. y != x -> R1(x, y)";
    "forall x. exists y. forall z. exists w. R1(x, y) || z = w";
    "exists x. exists y. exists z. R1(x, y) && R1(y, z) && R1(x, z)";
  ]

(* Queries dominate the batch cost: a cold query sweeps cutoff^rank
   concrete tuples through the ≅_B oracle (Hsdb.members), a few hundred
   µs each, which keeps the pool's per-job dispatch overhead well under
   1%.  With a shared memo, a query whose (probe order, rank, cutoff,
   reps) an earlier one had is a member-memo hit and skips the sweep. *)
let batch_queries =
  [
    "{(x,y) | R1(x,y) && x != y}";
    "{(x,y) | exists z. R1(x,z) && R1(z,y)}";
    "{(x) | forall y. R1(x,y) -> (exists z. R1(y,z))}";
    "{(x,y) | R1(x,y) || R1(y,x)}";
  ]

let mixed n =
  let ninst = List.length batch_instances in
  let nsent = List.length batch_sentences in
  let nquer = List.length batch_queries in
  List.map
    (fun i ->
      let instance = List.nth batch_instances (i mod ninst) in
      let payload =
        match i mod 10 with
        | 9 ->
            (* an instance-free CPU-bound request for variety *)
            Request.Classes { db_type = [| 2; 1 |]; rank = 2 }
        | 0 | 1 | 2 | 3 ->
            let sentence = List.nth batch_sentences (i / ninst mod nsent) in
            Request.Sentence { instance; sentence }
        | _ ->
            let query = List.nth batch_queries (i / ninst mod nquer) in
            Request.Query { instance; query; cutoff = 10 }
      in
      Request.make ~id:(i + 1) payload)
    (Prelude.Ints.range 0 n)

let rql_instances = [ "triangles"; "mod2"; "paths3"; "arrows"; "bipartite" ]

(* Query targets carry no inline cutoff, so the request-level cutoff
   applies — the warm pass shrinks it by one, forcing a fresh
   whole-request evaluation whose member window is a subset of the cold
   pass's (hence answerable entirely from warm memos). *)
let rql_texts =
  [
    "fix conn(x, y) = R1(x, y) || exists z. (R1(x, z) && conn(z, y)); \
     query {(x, y) | conn(x, y)}";
    (* whitespace/alpha variant of the previous query: same normalized
       text, so the cold pass already shares its compiled plan *)
    "fix r(u,v)=R1(u,v)||exists w.(R1(u,w)&&r(w,v));query {(u,v)|r(u,v)}";
    "fix dead(x, y) = R1(x, y) || exists z. (R1(x, z) && dead(z, y)); \
     let live(x) = exists y. R1(x, y); query {(x) | live(x)}";
    "let e(x, y) = R1(x, y) || R1(y, x); let ee(x, y) = e(x, y); \
     sentence exists x. exists y. ee(x, y)";
    "fix p(x, y) = R1(x, y) || exists z. (R1(x, z) && p(z, y)); \
     fix q(u, v) = R1(u, v) || exists w. (R1(u, w) && q(w, v)); \
     sentence exists x. exists y. (p(x, y) && q(y, x))";
    "sentence forall x. forall y. (R1(x, y) -> exists z. R1(y, z))";
    "query {(x, y) | R1(x, y) && x != y}";
    "tree 2";
  ]

let rql ?(cutoff = 4) ~planner n =
  let ninst = List.length rql_instances in
  let ntext = List.length rql_texts in
  List.map
    (fun i ->
      let instance = List.nth rql_instances (i mod ninst) in
      let text = List.nth rql_texts (i / ninst mod ntext) in
      Request.make ~id:(i + 1)
        (Request.Rql { instance; text; cutoff; planner }))
    (Prelude.Ints.range 0 n)

let mixed_with_rql n =
  mixed (max 1 (n * 3 / 4)) @ rql ~planner:Request.Plan_cost (max 1 (n / 4))
