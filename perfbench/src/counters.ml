(* Layer counters, read through the public Obs registry.

   Per-instance metrics (the scheduler, each CAB and driver, each host
   CPU's profiler table) belong to the most recently built testbed, so
   [read_testbed] is called once per testbed after its last Sim.run.
   Process-wide counters are read as deltas over a round. *)

let value ~section ~name =
  match Obs.find ~section ~name with
  | Some (Obs.M_counter c) -> float_of_int (Obs.Counter.get c)
  | Some (Obs.M_gauge f) -> f ()
  | _ -> 0.

let hosts = [ "hostA"; "hostB" ]

let cab_fields =
  [ "sdma_bytes"; "interrupts"; "mdma_packets"; "rx_pipe_overlap";
    "rx_pipe_posts"; "rx_pipe_stalls" ]

let driver_fields = [ "tx_gather_fallbacks"; "tx_staged_bytes"; "copyouts" ]

(* A profiler table is a flat JSON object of integers:
   {"checksum": 12, ..., "total": 40}. *)
let parse_flat_ints s =
  String.split_on_char ',' s
  |> List.filter_map (fun kv ->
         match String.split_on_char ':' kv with
         | [ k; v ] ->
             let strip c = c = '{' || c = '}' || c = '"' || c = ' ' || c = '\n' in
             let clean x =
               String.to_seq x |> Seq.filter (fun c -> not (strip c)) |> String.of_seq
             in
             Option.map (fun n -> (clean k, float_of_int n)) (int_of_string_opt (clean v))
         | _ -> None)

(* The receiver host's CPUs: shard 0 is [hostB.cpu], the others
   [hostB.cpu1] ... *)
let receiver_prof () =
  let rec tables i acc =
    let name = if i = 0 then "hostB.cpu" else Printf.sprintf "hostB.cpu%d" i in
    match Obs.find ~section:"prof" ~name with
    | Some (Obs.M_table f) -> tables (i + 1) (parse_flat_ints (f ()) @ acc)
    | _ -> acc
  in
  tables 0 []

let read_testbed r =
  let add = Round.add r in
  List.iter
    (fun f -> add ("sim." ^ f) (value ~section:"sim" ~name:f))
    [ "events_fired"; "wheel_scheduled"; "wheel_near_rejects"; "wheel_far_rejects" ];
  List.iter
    (fun h ->
      List.iter
        (fun f -> add ("cab." ^ f) (value ~section:("cab." ^ h ^ ".cab") ~name:f))
        cab_fields;
      List.iter
        (fun f ->
          add ("driver." ^ f) (value ~section:("cab_driver." ^ h ^ ".cab") ~name:f))
        driver_fields)
    hosts;
  List.iter (fun (k, v) -> add ("prof." ^ k) v) (receiver_prof ())

let globals =
  [ ("conn", "syn_rcvd"); ("conn", "cookies_sent"); ("conn", "shed_pressure");
    ("conn", "shed_accept"); ("conn", "shed_penalty"); ("tcp", "retransmits");
    ("mbuf_pool", "hits"); ("mbuf_pool", "misses"); ("bufpool", "hits");
    ("bufpool", "misses"); ("pin_cache", "hits"); ("pin_cache", "misses") ]

type snapshot = {
  values : float list;
  ledger : Obs_ledger.snapshot;
  setups : int;
  setups_zero : int;
}

let snapshot () =
  let h = Obs_lat.conn_setup_ns in
  {
    values = List.map (fun (section, name) -> value ~section ~name) globals;
    ledger = Obs_ledger.snapshot ();
    setups = Obs.Histogram.count h;
    setups_zero = Obs.Histogram.bucket_count h 0;
  }

(* Charge the process-wide counters' movement since [s0] to the round. *)
let read_since r s0 =
  let s1 = snapshot () in
  List.iter2
    (fun (section, name) (v0, v1) -> Round.add r (section ^ "." ^ name) (v1 -. v0))
    globals
    (List.combine s0.values s1.values);
  let d = Obs_ledger.diff s1.ledger s0.ledger in
  let payload = max 1 (int_of_float r.Round.payload_bytes) in
  let add = Round.add r in
  add "ledger.tx_copies_per_byte" (Obs_ledger.tx_copies_per_byte d ~payload);
  add "ledger.rx_copies_per_byte" (Obs_ledger.rx_copies_per_byte d ~payload);
  add "ledger.tx_sums_per_byte" (Obs_ledger.tx_sums_per_byte d ~payload);
  add "ledger.rx_sums_per_byte" (Obs_ledger.rx_sums_per_byte d ~payload);
  add "lat.setups" (float_of_int (s1.setups - s0.setups));
  add "lat.setups_zero" (float_of_int (s1.setups_zero - s0.setups_zero))
