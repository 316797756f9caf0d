open Prelude

(* Body compilation: the same frame discipline as Fo_compile (slots
   [0 .. nvars-1] hold the free tuple, quantifier depth [d] owns slot
   [nvars + d]), extended with definition slots — a derived atom reads
   [vals.(j)] at evaluation time, so a fixpoint's growing set is seen
   exactly as the interpreter sees it. *)

let rec comp t mode (vals : Tupleset.t array) db arena frame env pos = function
  | Rlogic.Ast.True -> fun () -> true
  | Rlogic.Ast.False -> fun () -> false
  | Rlogic.Ast.Eq (x, y) -> (
      match (Env.lookup_opt env x, Env.lookup_opt env y) with
      | Some px, Some py -> fun () -> frame.(px) = frame.(py)
      | _ -> fun () -> raise Not_found)
  | Rlogic.Ast.Mem (i, xs) -> (
      let n = Array.length xs in
      let slots = Array.map (Env.lookup_opt env) xs in
      let args = Arena.scratch arena n in
      let fill () =
        Array.iteri
          (fun k s ->
            match s with
            | Some p -> args.(k) <- frame.(p)
            | None -> raise Not_found)
          slots
      in
      if i >= Rql_plan.def_base then begin
        let j = i - Rql_plan.def_base in
        fun () ->
          fill ();
          Rql_eval.mem_derived t mode vals.(j) args
      end
      else
        match
          if i >= 0 && i < Rdb.Database.width db
             && Array.for_all Option.is_some slots
          then Some (Rdb.Database.relation db i)
          else None
        with
        | Some rel ->
            let sl = Array.map (function Some s -> s | None -> 0) slots in
            fun () ->
              for k = 0 to n - 1 do
                args.(k) <- frame.(sl.(k))
              done;
              Rdb.Relation.mem rel args
        | None ->
            fun () ->
              fill ();
              Rdb.Database.mem db i args)
  | Rlogic.Ast.Not f ->
      let cf = comp t mode vals db arena frame env pos f in
      fun () -> not (cf ())
  | Rlogic.Ast.And (f, g) ->
      let cf = comp t mode vals db arena frame env pos f
      and cg = comp t mode vals db arena frame env pos g in
      fun () -> cf () && cg ()
  | Rlogic.Ast.Or (f, g) ->
      let cf = comp t mode vals db arena frame env pos f
      and cg = comp t mode vals db arena frame env pos g in
      fun () -> cf () || cg ()
  | Rlogic.Ast.Implies (f, g) ->
      let cf = comp t mode vals db arena frame env pos f
      and cg = comp t mode vals db arena frame env pos g in
      fun () -> (not (cf ())) || cg ()
  | Rlogic.Ast.Exists (x, f) ->
      let cf =
        comp t mode vals db arena frame (Env.bind x pos env) (pos + 1) f
      in
      fun () ->
        let path = Arena.fill_prefix arena frame pos in
        List.exists
          (fun a ->
            frame.(pos) <- a;
            cf ())
          (Hs.Hsdb.children t path)
  | Rlogic.Ast.Forall (x, f) ->
      let cf =
        comp t mode vals db arena frame (Env.bind x pos env) (pos + 1) f
      in
      fun () ->
        let path = Arena.fill_prefix arena frame pos in
        List.for_all
          (fun a ->
            frame.(pos) <- a;
            cf ())
          (Hs.Hsdb.children t path)

(* Compile a body into [Tuple.t -> bool] over paths of rank [nvars] —
   the direct-evaluation entry Rql_eval uses for definitions and query
   targets (no is_path validation there, so none here). *)
let compile_body t mode vals ~vars body =
  let arena = Arena.create () in
  let nvars = List.length vars in
  let frame =
    Array.make (max 1 (nvars + max 0 (Rlogic.Ast.quantifier_rank body))) 0
  in
  let cf =
    comp t mode vals (Hs.Hsdb.db t) arena frame (Env.of_vars vars) nvars body
  in
  fun p ->
    Array.blit p 0 frame 0 nvars;
    cf ()

type ctarget =
  | CSentence of (unit -> bool)
  | CTree of int
  | CQuery of {
      rank : int;
      holds : Tuple.t -> bool;
      qcutoff : int option;
    }

type prepared = {
  t : Hs.Hsdb.t;
  plan : Rql_plan.t;
  vals : Tupleset.t array;
  def_holds : (Tuple.t -> bool) array;
  target : ctarget;
}

let prepare t (plan : Rql_plan.t) =
  Rql_eval.validate_atoms t plan;
  let mode = plan.mode in
  let vals = Array.make (Array.length plan.defs) Tupleset.empty in
  let def_holds =
    Array.map
      (fun (d : Rql_plan.def) ->
        compile_body t mode vals ~vars:(Array.to_list d.d_params) d.d_body)
      plan.defs
  in
  let target =
    match plan.target with
    | Rql_plan.Sentence body ->
        let c = compile_body t mode vals ~vars:[] body in
        CSentence (fun () -> c Tuple.empty)
    | Rql_plan.Tree d -> CTree d
    | Rql_plan.Query { rank; body; cutoff } ->
        let vars = List.init rank (Printf.sprintf "x%d") in
        CQuery
          {
            rank;
            holds = compile_body t mode vals ~vars body;
            qcutoff = cutoff;
          }
  in
  { t; plan; vals; def_holds; target }

let fail fmt = Printf.ksprintf (fun m -> raise (Rql_eval.Error m)) fmt

(* Rql_eval.materialize with the compiled body in place of [eval]:
   identical fixpoint schedules, identical round caps. *)
let materialize t mode vals j (d : Rql_plan.def) holds =
  let paths = Hs.Hsdb.paths t d.d_rank in
  if not d.d_recursive then Tupleset.of_list (List.filter holds paths)
  else begin
    let npaths = List.length paths in
    match mode with
    | Rql_plan.Naive ->
        let rec go cur round =
          if round > npaths + 1 then
            fail "fixpoint for %S did not converge" d.d_name;
          vals.(j) <- cur;
          let next = Tupleset.of_list (List.filter holds paths) in
          if Tupleset.equal next cur then cur else go next (round + 1)
        in
        go Tupleset.empty 0
    | Rql_plan.Planned ->
        let cur = ref Tupleset.empty in
        let changed = ref true in
        let rounds = ref 0 in
        while !changed do
          incr rounds;
          if !rounds > npaths + 1 then
            fail "fixpoint for %S did not converge" d.d_name;
          changed := false;
          List.iter
            (fun p ->
              if not (Tupleset.mem p !cur) then begin
                vals.(j) <- !cur;
                if holds p then begin
                  cur := Tupleset.add p !cur;
                  changed := true
                end
              end)
            paths
        done;
        !cur
  end

type answer =
  | Answer of Rql_eval.outcome
  | Reps of {
      rank : int;
      reps : Tupleset.t;
      cutoff : int;
      probe : Hs.Hsdb.probe;
    }

let eval ?memo ~cutoff pr =
  let t = pr.t in
  let mode = pr.plan.Rql_plan.mode in
  let vals = pr.vals in
  Array.iteri
    (fun j (d : Rql_plan.def) ->
      let v =
        match memo with
        | Some m ->
            m ~key:d.d_key ~compute:(fun () ->
                materialize t mode vals j d pr.def_holds.(j))
        | None -> materialize t mode vals j d pr.def_holds.(j)
      in
      vals.(j) <- v)
    pr.plan.Rql_plan.defs;
  match pr.target with
  | CSentence c -> Answer (Rql_eval.Bool (c ()))
  | CTree d ->
      Answer (Rql_eval.Levels (List.init d (fun i -> Hs.Hsdb.paths t (i + 1))))
  | CQuery { rank; holds; qcutoff } ->
      let cutoff = match qcutoff with Some c -> c | None -> cutoff in
      let reps =
        Hs.Hsdb.paths t rank |> List.filter holds |> Tupleset.of_list
      in
      (* the probe order of Rql_eval.mem_derived under this mode *)
      let probe =
        match mode with
        | Rql_plan.Planned -> Hs.Hsdb.Mem_then_scan
        | Rql_plan.Naive -> Hs.Hsdb.Scan
      in
      Reps { rank; reps; cutoff; probe }

let run ?memo ~cutoff pr =
  match eval ?memo ~cutoff pr with
  | Answer o -> o
  | Reps { rank; reps; cutoff; probe } ->
      Rql_eval.Rel
        {
          rank;
          reps = Tupleset.elements reps;
          members =
            Tupleset.elements (Hs.Hsdb.members pr.t ~probe ~rank ~reps ~cutoff);
        }
