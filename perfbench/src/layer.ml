(* Host-profile attribution: which layer of the simulator a stack frame
   belongs to.  A layer is a directory under lib/. *)

let all =
  [ "apps"; "cab"; "checksum"; "core"; "engine"; "etherdev"; "fault";
    "harness"; "hippi"; "host"; "ipv4"; "mbuf"; "memory"; "netif"; "obs";
    "packet"; "socket"; "tcp"; "udp"; "vm" ]

let unattributed = "unattributed"

(* [of_file "lib/tcp/tcp.ml" = Some "tcp"].  The path may carry a
   prefix (a build directory, an absolute root) as long as [lib] is a
   whole path component; the directory must be a known layer. *)
let of_file file =
  let n = String.length file in
  let rec scan i =
    if i + 4 > n then None
    else if String.sub file i 4 = "lib/" && (i = 0 || file.[i - 1] = '/') then
      let start = i + 4 in
      match String.index_from_opt file start '/' with
      | Some stop ->
          let dir = String.sub file start (stop - start) in
          if List.mem dir all then Some dir else scan (i + 1)
      | None -> None
    else scan (i + 1)
  in
  scan 0

(* The innermost frame that belongs to a layer wins; a stack with no
   lib/ frame at all is unattributed. *)
let of_files files =
  match List.find_map of_file files with
  | Some l -> l
  | None -> unattributed
