let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let best_of trials f =
  let rec go n (x, best) =
    if n <= 0 then (x, best)
    else
      let y, s = time f in
      go (n - 1) (y, Float.min best s)
  in
  go (trials - 1) (time f)

let bytes r = Json.to_string (Request.response_to_json ~stats:false r)

let sequential batch =
  List.map bytes (Engine.handle_all (Engine.create ()) batch)

let strings xs = Json.List (List.map (fun s -> Json.String s) xs)

let gate ok fmt = Printf.ksprintf (fun s -> if ok then [] else [ s ]) fmt

let recdb = "_build/default/bin/recdb.exe"

let with_recdb bench =
  if Sys.file_exists recdb then bench recdb
  else
    ( Json.Obj [],
      [ recdb ^ " not found: build it (dune build ./bin/recdb.exe) and run \
                from the source root" ] )

let pp_report ppf report =
  let rec leaves path = function
    | (Json.Obj [] | Json.List []) when path = [] -> ()
    | Json.Obj (_ :: _ as fields) ->
        List.iter (fun (k, v) -> leaves (k :: path) v) fields
    | Json.List (_ :: _ as items) ->
        List.iteri
          (fun i v ->
            match Json.member "name" v with
            | Some (Json.String name) -> leaves (name :: path) v
            | _ -> leaves (string_of_int i :: path) v)
          items
    | leaf ->
        Format.fprintf ppf "%s %s@." (String.concat "." (List.rev path))
          (Json.to_string leaf)
  in
  leaves [] report
