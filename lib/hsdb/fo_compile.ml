open Prelude

(* The frame holds the current tree path: slots [0 .. nvars-1] are the
   free tuple, slot [nvars + depth] belongs to the quantifier at
   nesting [depth] (positions in a tree path are static — rank of the
   path at any AST node is the initial rank plus the quantifier depth
   above it).  Node closures are [unit -> bool] over the captured
   frame.

   Exceptions are compiled into closures so they fire when evaluation
   reaches the node, exactly as in the interpreter; the messages reuse
   Fo_eval's strings so a served error is byte-identical whichever
   evaluator produced it. *)

let rec comp t db arena frame env pos = function
  | Rlogic.Ast.True -> fun () -> true
  | Rlogic.Ast.False -> fun () -> false
  | Rlogic.Ast.Eq (x, y) -> (
      match (Env.lookup_opt env x, Env.lookup_opt env y) with
      | Some px, Some py -> fun () -> frame.(px) = frame.(py)
      | _ ->
          (* List.assoc semantics, as in the interpreter *)
          fun () -> raise Not_found)
  | Rlogic.Ast.Mem (i, xs) -> (
      let n = Array.length xs in
      let slots = Array.map (Env.lookup_opt env) xs in
      let args = Arena.scratch arena n in
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
            Array.iteri
              (fun k s ->
                match s with
                | Some p -> args.(k) <- frame.(p)
                | None -> raise Not_found)
              slots;
            Rdb.Database.mem db i args)
  | Rlogic.Ast.Not f ->
      let cf = comp t db arena frame env pos f in
      fun () -> not (cf ())
  | Rlogic.Ast.And (f, g) ->
      let cf = comp t db arena frame env pos f
      and cg = comp t db arena frame env pos g in
      fun () -> cf () && cg ()
  | Rlogic.Ast.Or (f, g) ->
      let cf = comp t db arena frame env pos f
      and cg = comp t db arena frame env pos g in
      fun () -> cf () || cg ()
  | Rlogic.Ast.Implies (f, g) ->
      let cf = comp t db arena frame env pos f
      and cg = comp t db arena frame env pos g in
      fun () -> (not (cf ())) || cg ()
  | Rlogic.Ast.Exists (x, f) ->
      let cf = comp t db arena frame (Env.bind x pos env) (pos + 1) f in
      fun () ->
        let path = Arena.fill_prefix arena frame pos in
        List.exists
          (fun a ->
            frame.(pos) <- a;
            cf ())
          (Hsdb.children t path)
  | Rlogic.Ast.Forall (x, f) ->
      let cf = comp t db arena frame (Env.bind x pos env) (pos + 1) f in
      fun () ->
        let path = Arena.fill_prefix arena frame pos in
        List.for_all
          (fun a ->
            frame.(pos) <- a;
            cf ())
          (Hsdb.children t path)

type compiled = {
  t : Hsdb.t;
  nvars : int;
  frame : int array;
  body : unit -> bool;
}

let compile t ~vars f =
  let arena = Arena.create () in
  let nvars = List.length vars in
  let frame =
    Array.make (max 1 (nvars + max 0 (Rlogic.Ast.quantifier_rank f))) 0
  in
  let body = comp t (Hsdb.db t) arena frame (Env.of_vars vars) nvars f in
  { t; nvars; frame; body }

(* Fo_eval.holds, compiled: same validation (the per-path [is_path]
   walk included — its tree probes are part of the interpreter's oracle
   footprint), then a blit instead of an environment build. *)
let holds c path =
  if c.nvars <> Tuple.rank path then
    invalid_arg "Fo_eval.holds: variable/path length mismatch";
  if not (Hsdb.is_path c.t path) then
    invalid_arg "Fo_eval.holds: not a tree path";
  Array.blit path 0 c.frame 0 c.nvars;
  c.body ()

let sentence t f =
  if Rlogic.Ast.free_vars f <> [] then
    invalid_arg "Fo_eval.eval_sentence: formula has free variables";
  let c = compile t ~vars:[] f in
  fun () -> holds c Tuple.empty

type query = Undefined | Compiled of compiled

let compile_query t = function
  | Rlogic.Ast.Undefined -> Undefined
  | Rlogic.Ast.Query { vars; body } -> Compiled (compile t ~vars body)

let mem q u =
  match q with
  | Undefined -> None
  | Compiled c ->
      if c.nvars <> Tuple.rank u then Some false
      else
        let path =
          if Hsdb.is_path c.t u then u else Hsdb.representative c.t u
        in
        Some (holds c path)

let eval_reps q ~rank =
  match q with
  | Undefined -> Tupleset.empty
  | Compiled c ->
      if c.nvars <> rank then invalid_arg "Fo_eval.eval_reps: rank mismatch";
      Hsdb.paths c.t rank
      |> List.filter (fun p -> holds c p)
      |> Tupleset.of_list

let eval_upto q ~cutoff =
  match q with
  | Undefined -> Tupleset.empty
  | Compiled c ->
      Hsdb.members c.t ~probe:Hsdb.Scan ~rank:c.nvars
        ~reps:(eval_reps q ~rank:c.nvars) ~cutoff
