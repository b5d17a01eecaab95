let profile = Host_profile.alpha400

type t = string * (unit -> unit)

let fig5 () =
  let report = Exp_figures.run ~profile () in
  Exp_figures.print ~figure:"Figure 5" report;
  Exp_figures.plot_charts ~figure:"Figure 5" report;
  (match Exp_figures.crossover report with
  | Some (a, b) ->
      Printf.printf
        "\n  efficiency crossover between %dK and %dK writes (paper: between \
         8K and 16K)\n"
        (a / 1024) (b / 1024)
  | None -> Printf.printf "\n  no efficiency crossover found\n");
  Printf.printf
    "  single-copy/unmodified efficiency at 512K: %.2fx (paper: ~2.7x)\n"
    (Exp_figures.large_write_efficiency_ratio report)

let fig6 () =
  let report = Exp_figures.run ~profile:Host_profile.alpha300lx () in
  Exp_figures.print ~figure:"Figure 6" report;
  Exp_figures.plot_charts ~figure:"Figure 6" report;
  Printf.printf
    "\n  (half-speed host: the more efficient single-copy stack now wins on \
     throughput too)\n"

let analysis () =
  let measured = Exp_figures.run ~sizes:[ 524288 ] ~profile () in
  Exp_tables.print_analysis
    (Exp_tables.run_analysis ~measured ~profile ~packet:32768 ())

let paper_entries =
  [
    ("table1", fun () -> Exp_tables.print_table1 ~profile);
    ( "table2",
      fun () -> Exp_tables.print_table2 (Exp_tables.run_table2 ~profile) );
    ("fig5", fig5);
    ("fig6", fig6);
    ("analysis", analysis);
    ("hol", fun () -> Exp_hol.print (Exp_hol.run ~seed:20260706 ()));
  ]

let paper = List.map fst paper_entries

let all =
  paper_entries
  @ [
        ("alignment", fun () -> Exp_extras.print_alignment ());
        ("pincache", fun () -> Exp_extras.print_pin_cache ());
        ("autodma", fun () -> Exp_extras.print_autodma_sweep ());
        ("smallwrite", fun () -> Exp_extras.print_small_write_policies ());
        ("interop", Exp_extras.print_interop);
        ( "incast",
          fun () ->
            Exp_incast.print (Exp_incast.run ~mode:Stack_mode.Unmodified ());
            Exp_incast.print (Exp_incast.run ~mode:Stack_mode.Single_copy ()) );
        ( "allpairs",
          fun () -> Exp_incast.print_all_pairs (Exp_incast.run_all_pairs ()) );
        ("scaling", fun () -> Exp_scaling.print (Exp_scaling.run ()));
        ("netmem", fun () -> Exp_netmem.print (Exp_netmem.run ()));
        ("serverapi", fun () -> Exp_serverapi.print (Exp_serverapi.run ()));
        ("rpc", fun () -> Exp_rpc.print (Exp_rpc.run ()));
        ("window", fun () -> Exp_window.print (Exp_window.run ()));
      ]

let select table names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "all" :: rest -> go (List.rev_append table acc) rest
    | "paper" :: rest -> go acc (paper @ rest)
    | name :: rest -> (
        match List.assoc_opt name table with
        | Some run -> go ((name, run) :: acc) rest
        | None ->
            Error
              (Printf.sprintf "unknown target %S; known: %s" name
                 (String.concat " " (List.map fst table @ [ "paper"; "all" ]))))
  in
  go [] names
