type counter = { cell : int Atomic.t }

(* Histograms are Obs.Histogram sketches: log-spaced buckets with a 1%
   relative-error bound at every scale, lock-free observation, shared
   freely across domains.  (They replaced a fixed-21-boundary histogram
   whose error at any given scale was whatever the hand-picked
   boundaries gave — and, before that, sorted-array percentile code
   duplicated per consumer.) *)
type histogram = Obs.Histogram.t

let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let counter name =
  Mutex.lock registry_lock;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
        let c = { cell = Atomic.make 0 } in
        Hashtbl.add counters name c;
        c
  in
  Mutex.unlock registry_lock;
  c

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.cell by)
let counter_value c = Atomic.get c.cell

let histogram name =
  Mutex.lock registry_lock;
  let h =
    match Hashtbl.find_opt histograms name with
    | Some h -> h
    | None ->
        let h = Obs.Histogram.create () in
        Hashtbl.add histograms name h;
        h
  in
  Mutex.unlock registry_lock;
  h

let observe h v = Obs.Histogram.observe h v
let histogram_count h = Obs.Histogram.count h
let quantile h q = Obs.Histogram.quantile h q

let sorted_values table =
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot () =
  Mutex.lock registry_lock;
  let cs = sorted_values counters and hs = sorted_values histograms in
  Mutex.unlock registry_lock;
  (cs, hs)

let dump_text () =
  let cs, hs = snapshot () in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "metrics:\n";
  List.iter
    (fun (name, c) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-36s %12d\n" name (counter_value c)))
    cs;
  List.iter
    (fun (name, h) ->
      let n = histogram_count h in
      if n = 0 then
        Buffer.add_string buf
          (Printf.sprintf "  %-36s %12s\n" name "(empty)")
      else
        Buffer.add_string buf
          (Printf.sprintf "  %-36s count %6d  p50 ~ %gs  p99 ~ %gs\n" name n
             (quantile h 0.5) (quantile h 0.99)))
    hs;
  Buffer.contents buf

let reset_all () =
  Mutex.lock registry_lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
  Hashtbl.iter (fun _ h -> Obs.Histogram.reset h) histograms;
  Mutex.unlock registry_lock

(* The whole registry is one exposition source: anything any module
   ever counted or timed shows up on the scrape endpoint with no
   per-metric wiring. *)
let () =
  ignore
    (Obs.Expo.register "metrics" (fun () ->
         let cs, hs = snapshot () in
         List.map
           (fun (name, c) ->
             Obs.Expo.Counter
               {
                 name;
                 help = "recdb counter " ^ name;
                 value = counter_value c;
               })
           cs
         @ List.map
             (fun (name, h) ->
               Obs.Expo.Histo { name; help = "recdb histogram " ^ name; h })
             hs))
