(* Statistical host profiler: an ITIMER_PROF timer delivers SIGPROF
   every [interval] seconds of process CPU time, and the handler credits
   the sample to the layer of the innermost lib/ frame on the OCaml call
   stack.  Time spent in C (the checksum kernel) surfaces at the next
   OCaml safe point, so it lands on its OCaml caller. *)

let interval = 0.001
let depth = 64

let names = Array.of_list (Layer.all @ [ Layer.unattributed ])
let unattributed_ix = Array.length names - 1
let counts = Array.make (Array.length names) 0

let index_of_layer =
  let tbl = Hashtbl.create 32 in
  Array.iteri (fun i n -> Hashtbl.replace tbl n i) names;
  Hashtbl.find tbl

(* Debug-info lookup is slow, so each distinct return address is mapped
   to its layer once: [-1] for a frame outside lib/. *)
let cache : (Printexc.raw_backtrace_entry, int) Hashtbl.t = Hashtbl.create 1024

let layer_of_entry e =
  match Hashtbl.find_opt cache e with
  | Some ix -> ix
  | None ->
      let files =
        match Printexc.backtrace_slots_of_raw_entry e with
        | None -> []
        | Some slots ->
            Array.to_list slots
            |> List.filter_map (fun s ->
                   Option.map
                     (fun l -> l.Printexc.filename)
                     (Printexc.Slot.location s))
      in
      let ix =
        match List.find_map Layer.of_file files with
        | Some l -> index_of_layer l
        | None -> -1
      in
      Hashtbl.replace cache e ix;
      ix

let ticks = ref 0

let handler _ =
  let entries =
    Printexc.raw_backtrace_entries (Printexc.get_callstack depth)
  in
  let n = Array.length entries in
  let rec find i =
    if i >= n then unattributed_ix
    else
      let ix = layer_of_entry entries.(i) in
      if ix >= 0 then ix else find (i + 1)
  in
  let ix = find 0 in
  counts.(ix) <- counts.(ix) + 1;
  (* Drain the runtime's event ring every 16 samples (~16 ms of CPU), so
     it never wraps. *)
  incr ticks;
  if !ticks land 15 = 0 then Gc_clock.poll ()

let timer v = { Unix.it_interval = v; it_value = v }

let start () =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle handler);
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer interval) : Unix.interval_timer_status)

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer 0.) : Unix.interval_timer_status);
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let samples () = Array.fold_left ( + ) 0 counts

(* (layer, share of all samples) for every layer, unattributed last. *)
let shares () =
  let total = max 1 (samples ()) in
  Array.to_list
    (Array.mapi (fun i n -> (n, float_of_int counts.(i) /. float_of_int total)) names)
