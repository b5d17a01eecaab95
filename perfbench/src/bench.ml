(* Drives one workload: a warm-up, then rounds until the time budget is
   spent, then the metrics.  Every round replays the same seeded inputs;
   simulated outputs, allocation, layer counters and the failure
   accounting come from the first measured round (they repeat exactly,
   and every later round must reproduce its simulated fingerprint and
   its outcome), host-time metrics are medians over rounds. *)

type workload = {
  name : string;
  round : Round.t -> unit;
  warm_up : unit -> Round.t list;  (** rounds run before the measured ones *)
  warm_setup : bool;
      (** the warm-up rounds' set-up gives the set-up samples; otherwise
          each measured round's own set-up does *)
}

(* A full collection before every round, outside its timed phase, so
   each round starts from the same heap and pays only for its own
   garbage.  The reference kernel runs before and after the round
   ([before] is the previous round's after, when there is one); the
   round is scaled by the mean of the two. *)
let calibrated_round ?before f =
  let before = match before with Some k -> k | None -> Calib.measure () in
  Gc.full_major ();
  let r = Round.create () in
  f r;
  let after = Calib.measure () in
  r.Round.calib_s <- (before +. after) /. 2.;
  (r, after)

(* bulk and rpc warm up with one full round; server, whose set-up happens
   inside Exp_server.run, with five small runs. *)
let warm_round round () = [ fst (calibrated_round round) ]

let workload name ~seed =
  match name with
  | "bulk" ->
      let round = Wl_bulk.round ~script:(Wl_bulk.script ~seed) in
      { name; round; warm_up = warm_round round; warm_setup = false }
  | "rpc" ->
      let round = Wl_rpc.round ~script:(Wl_rpc.script ~seed) in
      { name; round; warm_up = warm_round round; warm_setup = false }
  | "server" ->
      {
        name;
        round = Wl_server.round ~seed;
        warm_up =
          (fun () -> List.init 5 (fun _ -> fst (calibrated_round (Wl_server.warm_up ~seed))));
        warm_setup = true;
      }
  | _ -> invalid_arg ("unknown workload " ^ name)

let names = [ "bulk"; "rpc"; "server" ]
let min_rounds = 5

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Exact quantile of a sample (nearest rank). *)
let quantile q = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

type fingerprint = { events : int; sim_end_ns : float; goodput : float }

let fingerprint (r : Round.t) =
  { events = r.Round.events; sim_end_ns = r.Round.sim_end_ns; goodput = r.Round.goodput_mbit }

let ratio a b = if b = 0. then 0. else a /. b

(* CPU seconds scaled to the reference kernel's nominal speed. *)
let ref_s (r : Round.t) cpu = cpu *. ratio Calib.nominal_s r.Round.calib_s

let rate (r : Round.t) = ratio (float_of_int r.Round.ops) (ref_s r r.Round.timed_cpu)
let raw_rate (r : Round.t) = ratio (float_of_int r.Round.ops) r.Round.timed_cpu

type outcome = {
  guard : Guard.t;  (** the run's failure accounting, see [run] *)
  rounds : Round.t list;  (** measured, in order *)
  traced : Round.t list;
  setup_samples : float list;  (** reference-scaled CPU seconds *)
  first : Round.t;
}

let outcome (g : Guard.t) = (g.Guard.attempted, g.Guard.failed, g.Guard.wrong)

(* The run's failure accounting is that of the warm-up and of the first
   measured round: the seeded inputs, run once, so [attempted] and
   [failed] depend on the seed and not on how many rounds the time budget
   allowed.  A later round that does not reproduce the first round's
   simulated fingerprint and outcome counts as a wrong output, and every
   op it attempted counts as attempted and failed. *)
let account ~warm ~first rounds =
  let guard = Guard.create () in
  List.iter (fun r -> Guard.add guard r.Round.guard) (warm @ [ first ]);
  let fp = fingerprint first and out = outcome first.Round.guard in
  List.iter
    (fun r ->
      let g = r.Round.guard in
      if
        not
          (Guard.check guard
             (fingerprint r = fp && outcome g = out)
             "simulated outputs differ between rounds")
      then Guard.add guard { g with Guard.failed = g.Guard.attempted })
    rounds;
  guard

let run wl ~seconds ~trace =
  let warm = wl.warm_up () in
  let rounds = ref [] and traced = ref [] in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  let min_total = if trace then 2 * min_rounds else min_rounds in
  let before = ref None in
  while !i < min_total || Unix.gettimeofday () -. t0 < seconds do
    (* With tracing, odd rounds are traced and even ones are not, so the
       overhead is measured inside one run. *)
    let tr = trace && !i mod 2 = 1 in
    if tr then Spans.enable () else Spans.disable ();
    let r, after =
      calibrated_round ?before:!before (fun r ->
          let s0 = Counters.snapshot () in
          wl.round r;
          Counters.read_since r s0)
    in
    before := Some after;
    if tr then traced := r :: !traced else rounds := r :: !rounds;
    incr i
  done;
  Spans.disable ();
  let rounds = List.rev !rounds and traced = List.rev !traced in
  let first = List.hd rounds in
  let guard = account ~warm ~first (List.tl rounds @ traced) in
  let setup_samples =
    List.map (fun r -> ref_s r r.Round.setup_cpu) (if wl.warm_setup then warm else rounds)
  in
  { guard; rounds; traced; setup_samples; first }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. float_of_int (1 lsl 20)

let end_to_end o =
  let f = o.first in
  [
    ("ops_per_cpu_s", median (List.map rate o.rounds));
    ("setup_s", median o.setup_samples);
    ("alloc_words_per_op", ratio (Round.useful_words f) (float_of_int f.Round.ops));
    ("peak_heap_mb", peak_heap_mb ());
    ("sim_goodput_mbit", f.Round.goodput_mbit);
  ]

(* Printed in the report beside the end-to-end metrics, but not in the
   result line: each is zero or missing on some workload.  Efficiency
   needs a receiver with the util soaker (not server), round-trip times
   an RPC (rpc only). *)
let report_only o =
  let f = o.first in
  let g = o.guard in
  [ ("error_rate", ratio (float_of_int g.Guard.failed) (float_of_int g.Guard.attempted), "ratio", "-");
    ("ops_per_cpu_s_unscaled", median (List.map raw_rate o.rounds), "ops/s", "host");
    ("reference_kernel_s", median (List.map (fun r -> r.Round.calib_s) o.rounds), "s", "host") ]
  @ (if f.Round.efficiency_mbit > 0. then
       [ ("sim_efficiency_mbit", f.Round.efficiency_mbit, "Mbit/s", "sim") ]
     else [])
  @
  if f.Round.rtts_us <> [] then
    [ ("sim_rtt_p50_us", quantile 0.5 f.Round.rtts_us, "us", "sim");
      ("sim_rtt_p99_us", quantile 0.99 f.Round.rtts_us, "us", "sim") ]
  else []

let per_layer o =
  let f = o.first in
  let c = Round.get f in
  let ops = float_of_int f.Round.ops in
  let events = float_of_int f.Round.events in
  let per_op x = ratio x ops in
  let share a b = ratio a (a +. b) in
  let sum_tr g = List.fold_left (fun acc r -> acc +. g r) 0. o.traced in
  let policies = f.Round.policies in
  let psum g = float_of_int (List.fold_left (fun acc p -> acc + g p) 0 policies) in
  let uio = psum (fun p -> p.Path_policy.uio_routed) in
  let prof site = ratio (c ("prof." ^ site)) (c "prof.total") in
  List.map (fun (l, v) -> (l ^ ".host_share", v)) (Sampler.shares ())
  @ [
      ("engine.events_per_op", per_op events);
      ("engine.events_per_cpu_s",
        median
          (List.map (fun r -> ratio (float_of_int r.Round.events) (ref_s r r.Round.timed_cpu)) o.rounds));
      ("engine.wheel_scheduled_per_op", per_op (c "sim.wheel_scheduled"));
      ("engine.heap_rejects_per_op",
        per_op (c "sim.wheel_near_rejects" +. c "sim.wheel_far_rejects"));
      ("gc.time_share", ratio (sum_tr (fun r -> r.Round.gc_s)) (sum_tr (fun r -> r.Round.timed_cpu)));
      ("gc.minor_words_per_event", ratio f.Round.minor_words events);
      ("gc.major_words_per_event", ratio f.Round.major_words events);
      ("gc.minor_collections_per_op", per_op (float_of_int f.Round.minor_collections));
      ("tcp.segments_per_op", per_op (c "cab.mdma_packets"));
      ("tcp.retransmits", c "tcp.retransmits");
      ("conn.syn_rcvd_per_op", per_op (c "conn.syn_rcvd"));
      ("conn.cookies_sent", c "conn.cookies_sent");
      ("conn.sheds", c "conn.shed_pressure" +. c "conn.shed_accept" +. c "conn.shed_penalty");
      ("conn.setup_zero_share", ratio (c "lat.setups_zero") (c "lat.setups"));
      ("socket.write_call_ns_p50", quantile 0.5 !Spans.write_calls);
      ("socket.write_call_ns_p99", quantile 0.99 !Spans.write_calls);
      ("cab.sdma_bytes_per_op", per_op (c "cab.sdma_bytes"));
      ("cab.interrupts_per_op", per_op (c "cab.interrupts"));
      ("cab.rx_pipe_overlaps_per_post", ratio (c "cab.rx_pipe_overlap") (c "cab.rx_pipe_posts"));
      ("cab.rx_pipe_stalls", c "cab.rx_pipe_stalls");
      ("driver.gather_fallbacks", c "driver.tx_gather_fallbacks");
      ("driver.staged_bytes_per_op", per_op (c "driver.tx_staged_bytes"));
      ("driver.copyouts_per_op", per_op (c "driver.copyouts"));
      ("mbuf.pool_hit_rate", share (c "mbuf_pool.hits") (c "mbuf_pool.misses"));
      ("mbuf.pool_misses_per_op", per_op (c "mbuf_pool.misses"));
      ("bufpool.hit_rate", share (c "bufpool.hits") (c "bufpool.misses"));
      ("ledger.tx_copies_per_byte", c "ledger.tx_copies_per_byte");
      ("ledger.rx_copies_per_byte", c "ledger.rx_copies_per_byte");
      ("ledger.tx_sums_per_byte", c "ledger.tx_sums_per_byte");
      ("ledger.rx_sums_per_byte", c "ledger.rx_sums_per_byte");
      ("vm.pin_hit_rate", share (c "pin_cache.hits") (c "pin_cache.misses"));
      ("policy.uio_share", share uio (psum (fun p -> p.Path_policy.copy_routed)));
      ("policy.explored", psum (fun p -> p.Path_policy.explored));
      ("prof.checksum_share", prof "checksum");
      ("prof.copy_share", prof "copy");
      ("prof.header_share", prof "header");
      ("prof.intr_share", prof "intr");
      ("prof.timer_share", prof "timer");
      ("prof.socket_share", prof "socket");
      ("trace.overhead",
        ratio (median (List.map rate o.rounds)) (median (List.map rate o.traced)) -. 1.);
    ]
