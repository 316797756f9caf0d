open Prelude

type value = { rank : int; reps : Tupleset.t }

let empty = { rank = 0; reps = Tupleset.empty }

let equal_value a b =
  if Tupleset.is_empty a.reps && Tupleset.is_empty b.reps then true
  else a.rank = b.rank && Tupleset.equal a.reps b.reps

let of_reps t ~rank reps =
  let normalized =
    Tupleset.fold
      (fun u acc ->
        if Tuple.rank u <> rank then
          invalid_arg "Ql_hs.of_reps: rank mismatch";
        Tupleset.add (Hs.Hsdb.representative t u) acc)
      reps Tupleset.empty
  in
  { rank; reps = normalized }

let algebra t =
  let tn n = Tupleset.of_list (Hs.Hsdb.paths t n) in
  let e_const () =
    {
      rank = 2;
      reps = Tupleset.filter (fun p -> p.(0) = p.(1)) (tn 2);
    }
  in
  let rel i =
    let db_type = Hs.Hsdb.db_type t in
    if i < 0 || i >= Array.length db_type then
      raise (Ql_interp.Rank_error (Printf.sprintf "no relation Rel%d" (i + 1)));
    { rank = db_type.(i); reps = Hs.Hsdb.reps t i }
  in
  let inter a b =
    if Tupleset.is_empty a.reps then { b with reps = Tupleset.empty }
    else if Tupleset.is_empty b.reps then { a with reps = Tupleset.empty }
    else if a.rank <> b.rank then
      raise
        (Ql_interp.Rank_error
           (Printf.sprintf "∩ of ranks %d and %d" a.rank b.rank))
    else { a with reps = Tupleset.inter a.reps b.reps }
  in
  let comp a = { a with reps = Tupleset.diff (tn a.rank) a.reps } in
  let up a =
    {
      rank = a.rank + 1;
      reps =
        Tupleset.fold
          (fun u acc ->
            List.fold_left
              (fun acc d -> Tupleset.add (Tuple.append u d) acc)
              acc (Hs.Hsdb.children t u))
          a.reps Tupleset.empty;
    }
  in
  let down a =
    if a.rank < 1 then raise (Ql_interp.Rank_error "↓ on rank 0");
    {
      rank = a.rank - 1;
      reps =
        Tupleset.fold
          (fun u acc ->
            Tupleset.add (Hs.Hsdb.representative t (Tuple.drop_first u)) acc)
          a.reps Tupleset.empty;
    }
  in
  let swap a =
    if a.rank < 2 then raise (Ql_interp.Rank_error "~ on rank < 2");
    {
      a with
      reps =
        Tupleset.fold
          (fun u acc ->
            Tupleset.add
              (Hs.Hsdb.representative t (Tuple.swap_last_two u))
              acc)
          a.reps Tupleset.empty;
    }
  in
  {
    Ql_interp.e_const;
    rel;
    inter;
    comp;
    up;
    down;
    swap;
    initial = empty;
    is_empty = (fun a -> Tupleset.is_empty a.reps);
    is_single = (fun a -> Tupleset.cardinal a.reps = 1);
    is_finite = None;
  }

let run t ~fuel program = Ql_interp.run ~algebra:(algebra t) ~fuel program

let eval_term t e =
  Ql_interp.eval_term ~algebra:(algebra t) ~store:[||] e

let denotation t value ~cutoff =
  Hs.Hsdb.members t ~probe:Hs.Hsdb.Scan ~rank:value.rank ~reps:value.reps
    ~cutoff
