open Prelude

type t = {
  name : string;
  db : Rdb.Database.t;
  children_raw : Tuple.t -> int list;
  children_cache : (Tuple.t, int list) Hashtbl.t;
  equiv_raw : Tuple.t -> Tuple.t -> bool;
  children_calls : int ref;
  equiv_calls : int ref;
  paths_cache : (int, Tuple.t list) Hashtbl.t;
  reps_cache : (int, Tupleset.t) Hashtbl.t;
}

let name t = t.name
let db t = t.db
let db_type t = Rdb.Database.db_type t.db

(* Counters increment only after the underlying oracle answers: a call
   aborted mid-flight (a budget/deadline check in lib/engine raises
   from inside the raw oracle closure) was never a
   completed question and must not inflate the Def. 3.9 ledger. *)
let children t u =
  match Hashtbl.find_opt t.children_cache u with
  | Some labels -> labels
  | None ->
      let labels = t.children_raw u in
      incr t.children_calls;
      Hashtbl.replace t.children_cache (Array.copy u) labels;
      labels

let equiv t u v =
  let answer = t.equiv_raw u v in
  incr t.equiv_calls;
  answer

let oracle_calls t = (!(t.children_calls), !(t.equiv_calls))

let reset_oracle_calls t =
  t.children_calls := 0;
  t.equiv_calls := 0

let rec paths t n =
  if n < 0 then invalid_arg "Hsdb.paths: negative rank";
  match Hashtbl.find_opt t.paths_cache n with
  | Some ps -> ps
  | None ->
      let ps =
        if n = 0 then [ Tuple.empty ]
        else
          List.concat_map
            (fun u -> List.map (Tuple.append u) (children t u))
            (paths t (n - 1))
      in
      Hashtbl.replace t.paths_cache n ps;
      ps

let is_path t u =
  let rec go k =
    k >= Tuple.rank u
    || (List.mem u.(k) (children t (Tuple.prefix u k)) && go (k + 1))
  in
  go 0

let representative t u =
  let n = Tuple.rank u in
  match List.find_opt (fun p -> equiv t u p) (paths t n) with
  | Some p -> p
  | None -> raise Not_found

let reps t i =
  match Hashtbl.find_opt t.reps_cache i with
  | Some s -> s
  | None ->
      let a = (db_type t).(i) in
      let s =
        List.filter (fun p -> Rdb.Database.mem t.db i p) (paths t a)
        |> Tupleset.of_list
      in
      Hashtbl.replace t.reps_cache i s;
      s

let rel_mem t i u =
  Tupleset.exists (fun w -> equiv t u w) (reps t i)

let class_count t n = List.length (paths t n)

type probe = Scan | Mem_then_scan

let scan_order reps =
  let order = ref [] in
  ignore
    (Tupleset.exists
       (fun p ->
         order := p :: !order;
         false)
       reps);
  List.rev !order

let members t ~probe ~rank ~reps ~cutoff =
  let scan u = Tupleset.exists (fun p -> equiv t u p) reps in
  let keep =
    match probe with
    | Scan -> scan
    | Mem_then_scan -> fun u -> Tupleset.mem u reps || scan u
  in
  Combinat.fold_cartesian
    (fun acc u -> if keep u then Tupleset.add (Array.copy u) acc else acc)
    Tupleset.empty ~width:rank ~bound:cutoff

let make ?(name = "hs") ~db ~children ~equiv () =
  {
    name;
    db;
    children_raw = children;
    children_cache = Hashtbl.create 64;
    equiv_raw = equiv;
    children_calls = ref 0;
    equiv_calls = ref 0;
    paths_cache = Hashtbl.create 8;
    reps_cache = Hashtbl.create 4;
  }

let dedupe_extensions ~equiv u candidates =
  let rec go kept = function
    | [] -> List.rev kept
    | a :: rest ->
        let ua = Tuple.append u a in
        if List.exists (fun b -> equiv ua (Tuple.append u b)) kept then
          go kept rest
        else go (a :: kept) rest
  in
  go [] candidates

let stretch t ~by =
  if not (is_path t by) then invalid_arg "Hsdb.stretch: not a tree path";
  let d = by in
  let base_rels = Rdb.Database.relations t.db in
  let singletons =
    Array.map
      (fun di ->
        Rdb.Relation.of_tupleset
          ~name:(Printf.sprintf "D%d" di)
          ~arity:1
          (Tupleset.singleton [| di |]))
      d
  in
  let db' =
    Rdb.Database.make
      ~name:(t.name ^ "+stretch")
      ~domain:(Rdb.Database.domain t.db)
      (Array.append base_rels singletons)
  in
  let equiv' u v = t.equiv_raw (Tuple.concat d u) (Tuple.concat d v) in
  let children' u = t.children_raw (Tuple.concat d u) in
  make ~name:(t.name ^ "-stretched") ~db:db' ~children:children' ~equiv:equiv'
    ()

let validate ?(max_rank = 2) ?(window = 6) t =
  let issues = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  (* 1. Paths of each rank are pairwise non-equivalent. *)
  for n = 1 to max_rank do
    let ps = Array.of_list (paths t n) in
    Array.iteri
      (fun i u ->
        Array.iteri
          (fun j v ->
            if i < j && equiv t u v then
              complain "paths %s and %s of rank %d are equivalent"
                (Tuple.to_string u) (Tuple.to_string v) n)
          ps)
      ps
  done;
  (* 2. Every tuple over the window has exactly one representative, the
     representative is in the same local-isomorphism class, and rel_mem
     agrees with the raw database. *)
  for n = 1 to max_rank do
    Combinat.fold_cartesian
      (fun () u ->
        let u = Array.copy u in
        (match List.filter (fun p -> equiv t u p) (paths t n) with
        | [] -> complain "tuple %s has no representative" (Tuple.to_string u)
        | [ p ] ->
            if not (Localiso.Liso.check_same t.db u p) then
              complain "tuple %s not locally isomorphic to its rep %s"
                (Tuple.to_string u) (Tuple.to_string p)
        | _ :: _ :: _ ->
            complain "tuple %s has several representatives"
              (Tuple.to_string u));
        if not (equiv t u u) then
          complain "equiv not reflexive on %s" (Tuple.to_string u))
      () ~width:n ~bound:window
  done;
  Array.iteri
    (fun i a ->
      if a >= 1 && a <= max_rank then
        Combinat.fold_cartesian
          (fun () u ->
            if rel_mem t i u <> Rdb.Database.mem t.db i u then
              complain "rel_mem disagrees with R%d on %s" (i + 1)
                (Tuple.to_string u))
          () ~width:a ~bound:window)
    (db_type t);
  (* 3. equiv symmetric on path pairs. *)
  let ps = paths t (min max_rank 2) in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if equiv t u v <> equiv t v u then
            complain "equiv not symmetric on %s %s" (Tuple.to_string u)
              (Tuple.to_string v))
        ps)
    ps;
  List.rev !issues

let pp_tree ?(max_rank = 3) ppf t =
  Format.fprintf ppf "@[<v>characteristic tree of %s:@," t.name;
  for n = 1 to max_rank do
    Format.fprintf ppf "T^%d (%d classes): %a@," n (class_count t n)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
         Tuple.pp)
      (paths t n)
  done;
  Format.fprintf ppf "@]"
