(* server: the mixed connection-plane scenario under a spoofed SYN flood
   (Exp_server.run ~flood:true) at a reduced accept target: 4-shard
   hosts, 256 closed-loop churn clients, 4 bulk flows.  An op is one
   accepted connection whose RPC completed.  Connections still in flight
   when the accept target is reached are closed by the scenario, not
   failed. *)

let target = 4000
let warmup_target = 256

let run ~seed ~target = Exp_server.run ~flood:true ~seed ~target ()

(* Warm-up runs fault in the process-wide pools before timing; each is
   one set-up sample. *)
let warm_up ~seed (r : Round.t) =
  Round.setup r (fun () -> ignore (run ~seed ~target:warmup_target : Exp_server.result))

let round ~seed (r : Round.t) =
  let result = ref None in
  Round.guarded r ~ops:target (fun () ->
    let x = Round.timed r "exp_server_run" (fun () -> run ~seed ~target) in
    result := Some x;
    let g = r.Round.guard in
    let ok =
      Round.verify (fun () ->
          Guard.check g (x.Exp_server.accepted >= target) "accept target missed"
          && Guard.check g (x.Exp_server.leaks = []) "exact drain failed")
    in
    if ok then x.Exp_server.rpc_completed else 0);
  Option.iter
    (fun x ->
      r.Round.events <- r.Round.events + x.Exp_server.events;
      r.Round.sim_end_ns <- r.Round.sim_end_ns +. (x.Exp_server.elapsed_s *. 1e9);
      r.Round.goodput_mbit <- x.Exp_server.bulk_mbit;
      r.Round.payload_bytes <-
        (float_of_int (x.Exp_server.rpc_completed * 2 * 256)
        +. (x.Exp_server.bulk_mbit *. 1e6 *. x.Exp_server.elapsed_s /. 8.));
      Counters.read_testbed r)
    !result
