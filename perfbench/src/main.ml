(* perfbench: the simulator's benchmark.

     main.exe --workload bulk|rpc|server --seed N --seconds S --trace 0|1

   Prints a report, then as its last line one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   A traced run also writes its spans to .perfbench/ under the working
   directory.  See perfbench/README.md. *)

open Perfbench

let usage = "main.exe --workload bulk|rpc|server --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " bulk, rpc or server");
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " time budget of the measured rounds");
      ("--trace", Arg.Set_int trace, " 1 for the traced run, 0 for the untraced one") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Bench.names && !seed >= 0 && !seconds > 0
          && (!trace = 0 || !trace = 1))
  then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  if trace then Gc_clock.start ();
  let wl = Bench.workload !workload ~seed:!seed in
  let o = Bench.run wl ~seconds:(float_of_int !seconds) ~trace in
  let g = o.Bench.guard in
  let f = o.Bench.first in
  Printf.printf "perfbench workload=%s seed=%d seconds=%d trace=%b rounds=%d traced_rounds=%d\n"
    wl.Bench.name !seed !seconds trace (List.length o.Bench.rounds) (List.length o.Bench.traced);
  Printf.printf "fingerprint workload=%s seed=%d events=%d sim_end_ns=%.0f sim_goodput_mbit=%.6f\n"
    wl.Bench.name !seed f.Round.events f.Round.sim_end_ns f.Round.goodput_mbit;
  Printf.printf "rounds ops_per_cpu_s:%s\n"
    (String.concat "" (List.map (fun r -> Printf.sprintf " %.0f" (Bench.rate r)) o.Bench.rounds));
  let e2e = Bench.end_to_end o in
  List.iter
    (fun d ->
      Printf.printf "metric %s %.6g %s clock=%s\n" d.Metric.name
        (List.assoc d.Metric.name e2e) d.Metric.unit_ d.Metric.clock)
    Metric.end_to_end;
  List.iter
    (fun (name, v, unit_, clock) -> Printf.printf "metric %s %.6g %s clock=%s\n" name v unit_ clock)
    (Bench.report_only o);
  List.iter
    (fun (text, n) -> Printf.printf "error %s: %d unit(s) failed: %s\n" wl.Bench.name n text)
    g.Guard.errors;
  let defs, values =
    if trace then (Metric.per_layer, Bench.per_layer o) else (Metric.end_to_end, e2e)
  in
  if trace then begin
    List.iter (fun (name, v) -> Printf.printf "layer %s %.6g\n" name v) values;
    let dir = ".perfbench" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let file = Printf.sprintf "%s/spans-%s-%d.json" dir wl.Bench.name !seed in
    Out_channel.with_open_text file Spans.write;
    Printf.printf "spans written to %s (gc events lost: %d, profile samples: %d)\n" file
      (Gc_clock.lost_events ()) (Sampler.samples ())
  end;
  print_endline
    (Metric.result_line ~correct:(g.Guard.wrong = 0) ~attempted:g.Guard.attempted
       ~failed:g.Guard.failed defs values)
