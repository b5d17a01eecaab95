(* Host time spent in the garbage collector, read from the runtime's own
   event ring: the union of minor collections and major slices. *)

let tracked = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let depth = ref 0
let began = ref 0L
let total_ns = ref 0L
let lost = ref 0
let cursor = ref None

let callbacks =
  let ts t = Runtime_events.Timestamp.to_int64 t in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t phase ->
      if tracked phase then begin
        if !depth = 0 then began := ts t;
        incr depth
      end)
    ~runtime_end:(fun _ t phase ->
      if tracked phase && !depth > 0 then begin
        decr depth;
        if !depth = 0 then total_ns := Int64.add !total_ns (Int64.sub (ts t) !began)
      end)
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

(* Consume the ring; call often enough that it never wraps.  The
   sampler's signal handler polls too, so a poll that interrupts another
   one returns at once.  A no-op until [start]. *)
let polling = ref false

let poll () =
  match !cursor with
  | Some c when not !polling ->
      polling := true;
      Fun.protect
        ~finally:(fun () -> polling := false)
        (fun () -> ignore (Runtime_events.read_poll c callbacks None : int))
  | _ -> ()

let seconds () =
  poll ();
  Int64.to_float !total_ns /. 1e9

let lost_events () = !lost
