(* In-memory span recorder for the traced run: the benchmark's own calls
   into each layer (set-up, Sim.run, Socket.write, Socket.read_exact,
   verify, drain), with host-clock start and end and the enclosing span.
   Per-name count, total and self time (duration minus the part covered
   by child spans) are kept for every span; the first [capacity] spans
   are also kept whole.  Nothing is written until [write] at exit. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let capacity = 1 lsl 15
let enabled = ref false
let enable () = enabled := true
let disable () = enabled := false

let names : (string, int) Hashtbl.t = Hashtbl.create 16
let name_list = ref [||]
let count = ref [||]
let total = ref [||]
let self = ref [||]

let intern name =
  match Hashtbl.find_opt names name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.replace names name i;
      name_list := Array.append !name_list [| name |];
      count := Array.append !count [| 0 |];
      total := Array.append !total [| 0 |];
      self := Array.append !self [| 0 |];
      i

(* Kept spans: name, start, stop, index of the enclosing kept span. *)
let kept = ref []
let n_kept = ref 0
let dropped = ref 0

(* Open spans, innermost first: (name index, kept index or -1). *)
let stack = ref []

let record name f =
  if not !enabled then f ()
  else begin
    let n = intern name in
    let parent = match !stack with (_, k) :: _ -> k | [] -> -1 in
    let k = if !n_kept < capacity then !n_kept else -1 in
    if k >= 0 then incr n_kept else incr dropped;
    stack := (n, k) :: !stack;
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_ns () in
        let d = t1 - t0 in
        stack := List.tl !stack;
        !count.(n) <- !count.(n) + 1;
        !total.(n) <- !total.(n) + d;
        !self.(n) <- !self.(n) + d;
        (match !stack with (p, _) :: _ -> !self.(p) <- !self.(p) - d | [] -> ());
        if k >= 0 then kept := (k, n, t0, t1, parent) :: !kept)
      f
  end

(* Durations of every [Socket.write] call, in ns. *)
let write_calls = ref []

let write_call f =
  if not !enabled then f ()
  else begin
    let t0 = now_ns () in
    record "socket_write" f;
    write_calls := float_of_int (now_ns () - t0) :: !write_calls
  end

let write oc =
  Printf.fprintf oc "{\"dropped\": %d,\n \"summary\": [" !dropped;
  Array.iteri
    (fun n name ->
      Printf.fprintf oc "%s\n  {\"name\": %S, \"count\": %d, \"total_ns\": %d, \"self_ns\": %d}"
        (if n = 0 then "" else ",")
        name !count.(n) !total.(n) !self.(n))
    !name_list;
  Printf.fprintf oc "],\n \"spans\": [";
  List.iteri
    (fun i (k, n, t0, t1, parent) ->
      Printf.fprintf oc "%s\n  [%d, %S, %d, %d, %d]" (if i = 0 then "" else ",") k
        !name_list.(n) t0 t1 parent)
    (List.sort compare !kept);
  Printf.fprintf oc "]}\n"
