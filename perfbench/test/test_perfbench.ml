(* Tests of the benchmark's own code: frame attribution, metric names,
   failure accounting. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

(* ---- frame file -> layer ---- *)

let () =
  let cases =
    [ ("lib/tcp/tcp.ml", Some "tcp");
      ("lib/checksum/csum_kernel.c", Some "checksum");
      ("/checkout/lib/engine/sim.ml", Some "engine");
      ("_build/default/lib/mbuf/mbuf.ml", Some "mbuf");
      ("perfbench/src/bench.ml", None);
      ("stdlib.ml", None);
      ("mylib/tcp/tcp.ml", None);
      ("lib/notalayer/x.ml", None);
      ("lib/tcp", None) ]
  in
  List.iter
    (fun (file, want) -> check ("of_file " ^ file) (Layer.of_file file = want))
    cases;
  check "innermost lib frame wins"
    (Layer.of_files [ "hashtbl.ml"; "lib/mbuf/mbuf.ml"; "lib/tcp/tcp.ml" ] = "mbuf");
  check "no lib frame is unattributed"
    (Layer.of_files [ "perfbench/src/main.ml"; "stdlib.ml" ] = Layer.unattributed);
  check "empty stack is unattributed" (Layer.of_files [] = Layer.unattributed)

(* A real call stack, captured inside a scheduler callback: this file's
   frame is outside lib/, so the sample goes to the scheduler's frames
   below it — which also checks the debug-info file names have the
   lib/<layer>/ form the mapping expects. *)
let () =
  let sim = Sim.create () in
  let stack = ref None in
  ignore (Sim.after sim (Simtime.us 1.) (fun () -> stack := Some (Printexc.get_callstack 64))
          : Sim.handle);
  Sim.run sim;
  let entries = Printexc.raw_backtrace_entries (Option.get !stack) in
  let layers =
    Array.to_list entries
    |> List.map Sampler.layer_of_entry
    |> List.filter (fun ix -> ix >= 0)
    |> List.map (fun ix -> Sampler.names.(ix))
  in
  check "callback stack attributed to engine"
    (match layers with "engine" :: _ -> true | _ -> false)

(* ---- metric names ---- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* The (name, unit, better) of each object in the JSON array under [key];
   the objects hold no nested brackets. *)
let entries_under json key =
  let find_from sub i =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then raise Not_found
      else if String.sub json i n = sub then i
      else go (i + 1)
    in
    go i
  in
  let field obj name =
    let j = find_from ("\"" ^ name ^ "\"") obj in
    let q1 = String.index_from json (String.index_from json j ':') '"' in
    let q2 = String.index_from json (q1 + 1) '"' in
    String.sub json (q1 + 1) (q2 - q1 - 1)
  in
  let start = find_from ("\"" ^ key ^ "\"") 0 in
  let stop = find_from "]" start in
  let rec objects i acc =
    match String.index_from_opt json i '{' with
    | Some o when o < stop ->
        let e = (field o "name", field o "unit", field o "better") in
        objects (String.index_from json o '}') (e :: acc)
    | _ -> List.rev acc
  in
  objects start []

let () =
  let json = read_file "../../BENCHMARK.json" in
  let entries defs =
    List.map
      (fun d ->
        (d.Metric.name, d.Metric.unit_,
         match d.Metric.better with Metric.Higher -> "higher" | Metric.Lower -> "lower"))
      defs
  in
  check "end_to_end entries match BENCHMARK.json"
    (entries_under json "end_to_end" = entries Metric.end_to_end);
  check "per_layer entries match BENCHMARK.json"
    (entries_under json "per_layer" = entries Metric.per_layer);
  let all = List.map (fun d -> d.Metric.name) (Metric.end_to_end @ Metric.per_layer) in
  List.iter (fun n -> check ("valid name " ^ n) (Metric.valid_name n)) all;
  check "names unique" (List.length (List.sort_uniq compare all) = List.length all);
  check "invalid name rejected" (not (Metric.valid_name "a b"))

(* ---- failure accounting and printing, through Bench.run ---- *)

let fake round = { Bench.name = "fake"; round; warm_up = Bench.warm_round round; warm_setup = false }

let () =
  (* Every round runs a unit that completes and one that raises, as a
     deterministic defect would: the run goes on, and the accounting is
     that of the warm-up and the first measured round, however many
     rounds ran. *)
  let n = ref 0 in
  let round (r : Round.t) =
    incr n;
    Round.guarded r ~ops:4 (fun () -> 4);
    Round.guarded r ~ops:4 (fun () -> invalid_arg "boom");
    r.Round.timed_cpu <- 1.
  in
  let o = Bench.run (fake round) ~seconds:0. ~trace:false in
  let g = o.Bench.guard in
  let units = List.length o.Bench.rounds + 1 in
  check "all rounds ran" (!n = units && units >= Bench.min_rounds);
  check "attempted counts the warm-up and first round" (g.Guard.attempted = 2 * 8);
  check "raising units fail their ops" (g.Guard.failed = 2 * 4);
  check "exception text kept"
    (List.assoc_opt "Invalid_argument(\"boom\")" g.Guard.errors = Some 2);
  check "a raise is not a wrong output" (g.Guard.wrong = 0);
  check "completed ops counted" (List.for_all (fun r -> r.Round.ops = 4) o.Bench.rounds);
  let o' = Bench.run (fake round) ~seconds:0.2 ~trace:false in
  check "accounting independent of the round count"
    (List.length o'.Bench.rounds > List.length o.Bench.rounds
     && Bench.outcome o'.Bench.guard = Bench.outcome g)

let () =
  (* Every other round raises: rounds that do not reproduce the first
     one are wrong, and all their ops fail. *)
  let n = ref 0 in
  let round (r : Round.t) =
    incr n;
    Round.guarded r ~ops:4 (fun () -> if !n mod 2 = 0 then invalid_arg "boom" else 4);
    r.Round.timed_cpu <- 1.
  in
  let o = Bench.run (fake round) ~seconds:0. ~trace:false in
  let g = o.Bench.guard in
  let later = List.length o.Bench.rounds - 1 in
  let differ = (later + 1) / 2 in
  check "differing rounds are wrong" (g.Guard.wrong = differ);
  check "differing rounds attempt their ops" (g.Guard.attempted = 4 * (2 + differ));
  check "differing rounds fail all their ops" (g.Guard.failed = 4 * (1 + differ));
  (* Every listed metric gets a value, and the result line prints each
     name exactly once. *)
  let printed defs values =
    let line = Metric.result_line ~correct:true ~attempted:1 ~failed:0 defs values in
    List.for_all
      (fun d ->
        let key = Printf.sprintf "%S: {\"value\"" d.Metric.name in
        let rec count i acc =
          match String.index_from_opt line i '"' with
          | Some j when j + String.length key <= String.length line ->
              count (j + 1) (if String.sub line j (String.length key) = key then acc + 1 else acc)
          | _ -> acc
        in
        count 0 0 = 1)
      defs
  in
  check "end-to-end metrics printed" (printed Metric.end_to_end (Bench.end_to_end o));
  check "per-layer metrics printed" (printed Metric.per_layer (Bench.per_layer o))

let () =
  if !failures > 0 then exit 1;
  print_endline "perfbench tests: ok"
