(* Testbed helpers shared by the bulk and rpc workloads. *)

(* Connect one stream and step the simulation until the handshake is
   done; returns the (A-side, B-side) sockets. *)
let connect tb ~port ~paths =
  let conn = ref None in
  Testbed.establish_stream tb ~port ~a_paths:paths ~b_paths:paths (fun sa sb ->
      conn := Some (sa, sb));
  while !conn = None && Sim.step tb.Testbed.sim do () done;
  match !conn with Some c -> c | None -> failwith "connection did not establish"

(* Open the measurement window: fresh books and the util soaker on every
   CPU of the host (the paper's methodology, see [Measurement]). *)
let util_on host =
  Array.iter
    (fun sh ->
      Cpu.reset_accounting sh.Shard.cpu;
      Cpu.set_idle_proc sh.Shard.cpu "util")
    (Host.shards host)

type occupancy = { mbufs : int; frames : int }

let occupancy () =
  { mbufs = Mbuf.Pool.allocated (); frames = Bufpool.outstanding Bufpool.shared }

(* Exact drain: nothing left scheduled, no outboard memory held, and the
   process-wide mbuf and frame pools back where they were. *)
let drained tb o0 =
  Sim.pending tb.Testbed.sim = 0
  && Netmem.in_use (Cab.netmem tb.Testbed.a.Testbed.cab) = 0
  && Netmem.in_use (Cab.netmem tb.Testbed.b.Testbed.cab) = 0
  && occupancy () = o0

let sim_ns t = Simtime.to_us t *. 1e3

(* Per-testbed outputs, read after its last Sim.run. *)
let finish (r : Round.t) tb =
  let sim = tb.Testbed.sim in
  r.Round.events <- r.Round.events + Sim.events_fired sim;
  Counters.read_testbed r
