(* bulk: long ttcp streams of 64 KByte writes on the paper's two-host
   alpha400 testbed, in three stack configurations.  Each configuration
   moves the same number of bytes per round, split into seeded transfer
   lengths, so seeds change the split but not the mix.  An op is one
   write delivered to the receiving application and verified. *)

type config = Forced_uio | Production | Unmodified

let configs = [ Forced_uio; Production; Unmodified ]

let config_name = function
  | Forced_uio -> "forced-uio"
  | Production -> "adaptive-coalesce"
  | Unmodified -> "unmodified"

let wsize = 65536
let mbyte = 1 lsl 20
let bytes_per_config = 48 * mbyte

(* ttcp's own loop overhead per call, charged as user time (as in
   [Ttcp]). *)
let loop_cost = Simtime.us 5.

(* Each configuration's bytes split into [transfers_per_config] seeded
   lengths of at least 1 MByte, in whole writes, interleaved across
   configurations.  The count is fixed so that seeds change lengths, not
   the mix of work. *)
let transfers_per_config = 4

let script ~seed =
  let per_config ix =
    let st = Random.State.make [| seed; 0xb01c; ix |] in
    let min_writes = mbyte / wsize in
    let total = bytes_per_config / wsize in
    let spare = total - (transfers_per_config * min_writes) in
    let w = List.init transfers_per_config (fun _ -> 0.05 +. Random.State.float st 1.) in
    let sum = List.fold_left ( +. ) 0. w in
    let parts = List.map (fun x -> min_writes + int_of_float (float_of_int spare *. x /. sum)) w in
    let short = total - List.fold_left ( + ) 0 parts in
    List.mapi (fun i n -> (if i = 0 then n + short else n) * wsize) parts
  in
  let lists = List.mapi (fun i c -> List.map (fun l -> (c, l)) (per_config i)) configs in
  let rec interleave ls =
    match List.filter (( <> ) []) ls with
    | [] -> []
    | ls -> List.map List.hd ls @ interleave (List.map List.tl ls)
  in
  interleave lists

let testbed = function
  | Forced_uio ->
      ( Testbed.create ~mode:Stack_mode.Single_copy (),
        { Socket.default_paths with Socket.force_uio = true } )
  | Production ->
      ( Testbed.create ~mode:Stack_mode.Single_copy
          ~tcp_config:(fun c -> { c with Tcp.coalesce_descriptors = true })
          (),
        { Socket.default_paths with Socket.force_uio = false; adaptive = true } )
  | Unmodified -> (Testbed.create ~mode:Stack_mode.Unmodified (), Socket.default_paths)

let in_range lo hi v = lo <= v && v <= hi

(* The paper's copy and checksum invariants, per transfer. *)
let ledger_ok config d ~payload =
  match config with
  | Forced_uio ->
      Obs_ledger.host_tx_copy_bytes d = 0
      && Obs_ledger.host_tx_sum_bytes d = 0
      && Float.abs (Obs_ledger.tx_copies_per_byte d ~payload -. 1.0) <= 1e-6
  | Unmodified ->
      in_range 1.95 2.05 (Obs_ledger.tx_copies_per_byte d ~payload)
      && in_range 0.95 1.05 (Obs_ledger.tx_sums_per_byte d ~payload)
  | Production -> true

type acc = {
  mutable bytes : int;
  mutable sim_s : float;
  mutable busy_s : float;
}

let transfer (r : Round.t) acc (config, total) =
  let nwrites = total / wsize in
  let delivered = ref 0 in
  Round.guarded r ~ops:nwrites (fun () ->
    let o0 = Tb.occupancy () in
    let led0 = Obs_ledger.snapshot () in
    let tb, sa, sb, srcs, dst =
      Round.setup r (fun () ->
          let tb, paths = testbed config in
          let sa, sb = Tb.connect tb ~port:5001 ~paths in
          let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"ttcp" in
          let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"ttcp" in
          (* Two source buffers in flight (ttcp's double buffering),
             each with its own pattern, so a write delivered out of
             order or from the wrong buffer fails verification. *)
          let srcs =
            Array.init 2 (fun i ->
                let reg = Addr_space.alloc a_space wsize in
                Region.fill_pattern reg ~seed:(1234 + i);
                reg)
          in
          (tb, sa, sb, srcs, Addr_space.alloc b_space wsize))
    in
    let sim = tb.Testbed.sim in
    let a_host = tb.Testbed.a.Testbed.stack.Netstack.host in
    let b_host = tb.Testbed.b.Testbed.stack.Netstack.host in
    Tb.util_on a_host;
    Tb.util_on b_host;
    let a_shard = Tcp.pcb_shard (Socket.pcb sa) in
    let b_shard = Tcp.pcb_shard (Socket.pcb sb) in
    let t0 = Sim.now sim in
    let t1 = ref None in
    let order = Array.make nwrites 0 in
    let issued = ref 0 and acked = ref 0 and bad = ref 0 in
    let rec send_loop buf =
      if !issued < nwrites then begin
        let i = !issued in
        incr issued;
        order.(i) <- buf;
        Host.in_proc_on a_host ~shard:a_shard ~proc:"ttcp" ~mode:Cpu.User loop_cost
          (fun () ->
            Spans.write_call (fun () ->
                Socket.write sa srcs.(buf) (fun () ->
                    incr acked;
                    send_loop buf)))
      end
      else if !acked = nwrites then Socket.close sa
    in
    let rec recv_loop i =
      if i = nwrites then t1 := Some (Sim.now sim)
      else
        Host.in_proc_on b_host ~shard:b_shard ~proc:"ttcp" ~mode:Cpu.User loop_cost
          (fun () ->
            Spans.record "read_exact" (fun () ->
                Socket.read_exact sb dst (fun n ->
                    if
                      n = wsize
                      && Round.verify (fun () ->
                             Region.equal_contents dst srcs.(order.(i)))
                    then begin
                      delivered := !delivered + n;
                      recv_loop (i + 1)
                    end
                    else incr bad)))
    in
    Round.timed r "sim_run" (fun () ->
        send_loop 0;
        send_loop 1;
        recv_loop 0;
        Sim.run ~until:(Simtime.s 600.) sim);
    Tb.finish r tb;
    Option.iter (fun p -> r.Round.policies <- Path_policy.stats p :: r.Round.policies)
      (Socket.path_policy sa);
    let g = r.Round.guard in
    let ok =
      Round.verify (fun () ->
          Guard.check g (!t1 <> None) "transfer missed the simulated deadline"
          && Guard.check g (!bad = 0 && !delivered = total) "payload verification failed"
          && Guard.check g (Tb.drained tb o0) "exact drain failed"
          && Guard.check g
               (ledger_ok config (Obs_ledger.since led0) ~payload:total)
               (config_name config ^ " copy/checksum invariant failed"))
    in
    Option.iter (fun t1 -> r.Round.sim_end_ns <- r.Round.sim_end_ns +. Tb.sim_ns t1) !t1;
    match !t1 with
    | Some t1 when ok ->
        let elapsed = Simtime.sub t1 t0 in
        let m = Measurement.of_cpu ~cpu:b_host.Host.cpu ~elapsed ~bytes:total in
        acc.bytes <- acc.bytes + total;
        acc.sim_s <- acc.sim_s +. Simtime.to_s elapsed;
        acc.busy_s <- acc.busy_s +. (Simtime.to_s elapsed *. m.Measurement.utilization);
        nwrites
    | _ -> 0);
  r.Round.payload_bytes <- r.Round.payload_bytes +. float_of_int !delivered

let round ~script (r : Round.t) =
  let acc = { bytes = 0; sim_s = 0.; busy_s = 0. } in
  List.iter (transfer r acc) script;
  let mbit = float_of_int (acc.bytes * 8) /. 1e6 in
  if acc.sim_s > 0. then r.Round.goodput_mbit <- mbit /. acc.sim_s;
  if acc.busy_s > 0. then r.Round.efficiency_mbit <- mbit /. acc.busy_s
