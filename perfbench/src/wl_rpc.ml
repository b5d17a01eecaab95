(* rpc: closed-loop request -> reply over [conns] concurrent connections
   of the adaptive single-copy stack (adaptive path policy plus
   descriptor coalescing, as in the macro rpc rows).  Each connection has
   one request outstanding; the server echoes it and the client checks
   the reply byte for byte.  Sizes run from 64 B to 16 KByte, weighted
   small (log-uniform).  An op is one verified round trip. *)

let conns = 32
let per_conn = 48
let min_size = 64
let max_size = 16384

(* Stratified draws from the log-uniform size distribution, then a
   seeded shuffle: the seed changes which request gets which size, while
   the size mix of a round stays nearly fixed. *)
let script ~seed =
  let st = Random.State.make [| seed; 0x49c |] in
  let n = conns * per_conn in
  let ratio = float_of_int max_size /. float_of_int min_size in
  let sizes =
    Array.init n (fun i ->
        let u = (float_of_int i +. Random.State.float st 1.) /. float_of_int n in
        min max_size (int_of_float (float_of_int min_size *. (ratio ** u))))
  in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = sizes.(i) in
    sizes.(i) <- sizes.(j);
    sizes.(j) <- t
  done;
  sizes

let paths = { Socket.default_paths with Socket.force_uio = false; adaptive = true }

let round ~script (r : Round.t) =
  let ops = Array.length script in
  Round.guarded r ~ops (fun () ->
    let o0 = Tb.occupancy () in
    let tb, socks, reqs, replies, srvs =
      Round.setup r (fun () ->
          let tb =
            Testbed.create ~mode:Stack_mode.Single_copy
              ~tcp_config:(fun c -> { c with Tcp.coalesce_descriptors = true })
              ()
          in
          let socks = Array.init conns (fun c -> Tb.connect tb ~port:(6000 + c) ~paths) in
          let a_space = Netstack.make_space tb.Testbed.a.Testbed.stack ~name:"rpc" in
          let b_space = Netstack.make_space tb.Testbed.b.Testbed.stack ~name:"rpc" in
          (* Two request buffers per connection with their own
             patterns, alternated, so a stale or misdelivered reply
             fails verification. *)
          let reqs =
            Array.init conns (fun c ->
                Array.init 2 (fun k ->
                    let reg = Addr_space.alloc a_space max_size in
                    Region.fill_pattern reg ~seed:(100 + (2 * c) + k);
                    reg))
          in
          let replies = Array.init conns (fun _ -> Addr_space.alloc a_space max_size) in
          let srvs = Array.init conns (fun _ -> Addr_space.alloc b_space max_size) in
          (tb, socks, reqs, replies, srvs))
    in
    let sim = tb.Testbed.sim in
    let b_host = tb.Testbed.b.Testbed.stack.Netstack.host in
    Tb.util_on tb.Testbed.a.Testbed.stack.Netstack.host;
    Tb.util_on b_host;
    let size c k = script.((c * per_conn) + k) in
    let verified = ref 0 and bytes = ref 0 in
    let t0 = Sim.now sim in
    let t_last = ref t0 in
    let rtts = ref [] in
    let rec serve c k =
      if k < per_conn then begin
        let sb = snd socks.(c) in
        let buf = Region.sub srvs.(c) ~off:0 ~len:(size c k) in
        Spans.record "read_exact" (fun () ->
            Socket.read_exact sb buf (fun n ->
                if n = size c k then
                  Spans.write_call (fun () ->
                      Socket.write sb buf (fun () -> serve c (k + 1)))))
      end
    in
    let rec client c k =
      if k < per_conn then begin
        let sa = fst socks.(c) in
        let len = size c k in
        let req = Region.sub reqs.(c).(k land 1) ~off:0 ~len in
        let reply = Region.sub replies.(c) ~off:0 ~len in
        let sent = Sim.now sim in
        Spans.write_call (fun () ->
            Socket.write sa req (fun () ->
                Spans.record "read_exact" (fun () ->
                    Socket.read_exact sa reply (fun n ->
                        if n = len && Round.verify (fun () -> Region.equal_contents reply req)
                        then begin
                          incr verified;
                          bytes := !bytes + (2 * len);
                          t_last := Sim.now sim;
                          rtts := Simtime.to_us (Simtime.sub !t_last sent) :: !rtts;
                          client c (k + 1)
                        end))))
      end
    in
    Round.timed r "sim_run" (fun () ->
        for c = 0 to conns - 1 do
          serve c 0;
          client c 0
        done;
        Sim.run ~until:(Simtime.s 600.) sim);
    let elapsed = Simtime.sub !t_last t0 in
    let m = Measurement.of_cpu ~cpu:b_host.Host.cpu ~elapsed ~bytes:!bytes in
    r.Round.policies <-
      List.filter_map (fun (sa, _) -> Option.map Path_policy.stats (Socket.path_policy sa))
        (Array.to_list socks);
    Spans.record "drain" (fun () ->
        Array.iter (fun (sa, sb) -> Socket.close sa; Socket.close sb) socks;
        Sim.run ~until:(Simtime.add (Sim.now sim) (Simtime.s 600.)) sim);
    Tb.finish r tb;
    r.Round.sim_end_ns <- Tb.sim_ns !t_last;
    r.Round.payload_bytes <- float_of_int !bytes;
    r.Round.rtts_us <- !rtts;
    r.Round.goodput_mbit <- m.Measurement.throughput_mbit;
    r.Round.efficiency_mbit <- m.Measurement.efficiency_mbit;
    let g = r.Round.guard in
    let ok =
      Round.verify (fun () ->
          Guard.check g (!verified = ops) "round trip missing or failed verification"
          && Guard.check g (Tb.drained tb o0) "exact drain failed")
    in
    if ok then !verified else 0)
