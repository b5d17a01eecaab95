(* Machine-speed reference.  On a shared host the core this process runs
   on speeds up and slows down with other tenants' load, for seconds at a
   time, by up to 1.6x for the simulator's code.  A fixed kernel runs
   around every round, and the round's CPU time is scaled by [nominal_s]
   over the kernel's time.  [nominal_s] is about what the kernel takes on
   the 2-vCPU Xeon VM the benchmark was built on, when the host is busy.
   The kernel is written to suffer what the simulator suffers:
   independent integer chains that need the core's full issue width,
   balanced-tree updates (allocation, pointer chasing, unpredictable
   branches) and hash-table updates.  A kernel of random DRAM reads
   slows by less than half as much as the simulator when the host gets
   busy, so it would leave most of the noise in.  The kernel uses only
   the standard library, so no change to the simulator moves it.  Its
   live data stays under a MByte. *)

module Imap = Map.Make (Int)

let nominal_s = 0.015

let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff

let chains () =
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for i = 1 to 2_000_000 do
    a := !a + (i lxor 5);
    b := !b lxor (i + 7);
    c := !c + (i land 255);
    d := !d - (i lsr 2)
  done;
  !a + !b + !c + !d

let tree () =
  let x = ref 12345 and m = ref Imap.empty in
  for i = 1 to 20_000 do
    x := lcg !x;
    m := Imap.add (!x land 4095) i !m;
    if i land 1 = 0 then begin
      x := lcg !x;
      m := Imap.remove (!x land 4095) !m
    end
  done;
  Imap.cardinal !m

let table () =
  let h = Hashtbl.create 1024 and x = ref 7 and acc = ref 0 in
  for i = 1 to 100_000 do
    x := lcg !x;
    let k = !x land 1023 in
    if i land 1 = 0 then Hashtbl.replace h k (i, [ k ])
    else match Hashtbl.find_opt h k with Some (a, _) -> acc := !acc + a | None -> ()
  done;
  !acc

let kernel () = ignore (Sys.opaque_identity (chains () + tree () + table ()))

(* CPU seconds the kernel takes now. *)
let measure () =
  let c0 = Round.cpu_now () in
  kernel ();
  Round.cpu_now () -. c0
