(* One round of a workload: its host-clock phases, its ops, its
   simulated outputs and the layer counters read from it.  Every round of
   a run replays the same seeded inputs, so rounds differ only in host
   time. *)

type t = {
  guard : Guard.t;  (** this round's failure accounting *)
  mutable ops : int;  (** completed and verified *)
  mutable setup_cpu : float;
  mutable timed_cpu : float;
  mutable minor_words : float;  (** in timed phases, as are the next three *)
  mutable major_words : float;
  mutable promoted_words : float;
  mutable failed_words : float;  (** allocated by units that completed no op *)
  mutable minor_collections : int;
  mutable gc_s : float;  (** GC time, when traced *)
  mutable events : int;
  mutable sim_end_ns : float;
      (** simulated time the last op completed, summed over testbeds *)
  mutable goodput_mbit : float;
  mutable efficiency_mbit : float;  (** 0 where the workload has no receiver util *)
  mutable rtts_us : float list;
  mutable payload_bytes : float;  (** application payload delivered *)
  mutable policies : Path_policy.stats list;
  counters : (string, float) Hashtbl.t;
  mutable calib_s : float;  (** the reference kernel's time just before *)
}

let create () =
  {
    guard = Guard.create ();
    ops = 0;
    setup_cpu = 0.;
    timed_cpu = 0.;
    minor_words = 0.;
    major_words = 0.;
    promoted_words = 0.;
    failed_words = 0.;
    minor_collections = 0;
    gc_s = 0.;
    events = 0;
    sim_end_ns = 0.;
    goodput_mbit = 0.;
    efficiency_mbit = 0.;
    rtts_us = [];
    payload_bytes = 0.;
    policies = [];
    counters = Hashtbl.create 64;
    calib_s = 0.;
  }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let add r key v =
  Hashtbl.replace r.counters key
    (v +. Option.value ~default:0. (Hashtbl.find_opt r.counters key))

let get r key = Option.value ~default:0. (Hashtbl.find_opt r.counters key)

(* Building testbeds, establishing connections, filling buffers. *)
let setup r f =
  let c0 = cpu_now () in
  Fun.protect
    ~finally:(fun () -> r.setup_cpu <- r.setup_cpu +. (cpu_now () -. c0))
    (fun () -> Spans.record "setup" f)

(* Minor words plus words allocated straight into the major heap: what
   the program allocates, independent of when collections run. *)
let alloc_words r = r.minor_words +. r.major_words -. r.promoted_words

(* Of those, the words allocated by units that completed ops. *)
let useful_words r = alloc_words r -. r.failed_words

(* The measured phase: host CPU, allocation and (when traced) GC time
   and profile samples are charged to the round even when [f] raises. *)
let timed r name f =
  let traced = !Spans.enabled in
  let gc0 = if traced then Gc_clock.seconds () else 0. in
  let minor0, promoted0, major0 = Gc.counters () in
  let m0 = (Gc.quick_stat ()).Gc.minor_collections in
  if traced then Sampler.start ();
  let c0 = cpu_now () in
  Fun.protect
    ~finally:(fun () ->
      let c1 = cpu_now () in
      if traced then Sampler.stop ();
      let minor1, promoted1, major1 = Gc.counters () in
      r.timed_cpu <- r.timed_cpu +. (c1 -. c0);
      r.minor_words <- r.minor_words +. (minor1 -. minor0);
      r.major_words <- r.major_words +. (major1 -. major0);
      r.promoted_words <- r.promoted_words +. (promoted1 -. promoted0);
      r.minor_collections <-
        r.minor_collections + ((Gc.quick_stat ()).Gc.minor_collections - m0);
      if traced then r.gc_s <- r.gc_s +. (Gc_clock.seconds () -. gc0))
    (fun () -> Spans.record name f)

let verify f = Spans.record "verify" f

(* One guarded unit of work (see [Guard.run]).  What a unit that
   completes no op allocates is kept apart, so the per-op allocation does
   not depend on how far a failing unit got. *)
let guarded r ~ops f =
  let w0 = alloc_words r in
  let completed = Guard.run r.guard ~ops f in
  if completed = 0 then r.failed_words <- r.failed_words +. (alloc_words r -. w0);
  r.ops <- r.ops + completed
