(* The benchmark's metric names and units, and the result line.  The
   names here are the ones BENCHMARK.json lists; a test holds the two
   equal. *)

type better = Higher | Lower

(* [clock]: "host" for the simulator's own running time and memory,
   "sim" for simulated time, "-" for neither. *)
type t = { name : string; unit_ : string; better : better; clock : string }

let m ?(clock = "-") name unit_ better = { name; unit_; better; clock }

(* Printed with --trace 0, per workload. *)
let end_to_end =
  [ m "ops_per_cpu_s" "ops/s" Higher ~clock:"host";
    m "setup_s" "s" Lower ~clock:"host";
    m "alloc_words_per_op" "words" Lower ~clock:"host";
    m "peak_heap_mb" "MB" Lower ~clock:"host";
    m "sim_goodput_mbit" "Mbit/s" Higher ~clock:"sim" ]

let host_share layer = m (layer ^ ".host_share") "share" Lower

(* Printed with --trace 1, per workload. *)
let per_layer =
  List.map host_share (Layer.all @ [ Layer.unattributed ])
  @ [ m "engine.events_per_op" "events" Lower;
      m "engine.events_per_cpu_s" "events/s" Higher;
      m "engine.wheel_scheduled_per_op" "timers" Lower;
      m "engine.heap_rejects_per_op" "events" Lower;
      m "gc.time_share" "share" Lower;
      m "gc.minor_words_per_event" "words" Lower;
      m "gc.major_words_per_event" "words" Lower;
      m "gc.minor_collections_per_op" "count" Lower;
      m "tcp.segments_per_op" "segments" Lower;
      m "tcp.retransmits" "count" Lower;
      m "conn.syn_rcvd_per_op" "count" Lower;
      m "conn.cookies_sent" "count" Lower;
      m "conn.sheds" "count" Lower;
      m "conn.setup_zero_share" "share" Lower;
      m "socket.write_call_ns_p50" "ns" Lower;
      m "socket.write_call_ns_p99" "ns" Lower;
      m "cab.sdma_bytes_per_op" "bytes" Lower;
      m "cab.interrupts_per_op" "count" Lower;
      m "cab.rx_pipe_overlaps_per_post" "count" Higher;
      m "cab.rx_pipe_stalls" "count" Lower;
      m "driver.gather_fallbacks" "count" Lower;
      m "driver.staged_bytes_per_op" "bytes" Lower;
      m "driver.copyouts_per_op" "count" Lower;
      m "mbuf.pool_hit_rate" "share" Higher;
      m "mbuf.pool_misses_per_op" "count" Lower;
      m "bufpool.hit_rate" "share" Higher;
      m "ledger.tx_copies_per_byte" "copies/B" Lower;
      m "ledger.rx_copies_per_byte" "copies/B" Lower;
      m "ledger.tx_sums_per_byte" "sums/B" Lower;
      m "ledger.rx_sums_per_byte" "sums/B" Lower;
      m "vm.pin_hit_rate" "share" Higher;
      m "policy.uio_share" "share" Higher;
      m "policy.explored" "count" Lower;
      m "prof.checksum_share" "share" Lower;
      m "prof.copy_share" "share" Lower;
      m "prof.header_share" "share" Lower;
      m "prof.intr_share" "share" Lower;
      m "prof.timer_share" "share" Lower;
      m "prof.socket_share" "share" Lower;
      m "trace.overhead" "share" Lower ]

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* JSON numbers cannot be nan or infinite. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The last line of a run: [metrics] maps every name of [defs] to its
   value; a name without a value is an error, not a silent zero. *)
let result_line ~correct ~attempted ~failed defs values =
  let metric d =
    match List.assoc_opt d.name values with
    | Some v -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" d.name (number v) d.unit_
    | None -> invalid_arg ("Metric.result_line: no value for " ^ d.name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric defs))
