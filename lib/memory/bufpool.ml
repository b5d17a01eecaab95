type klass = { mutable bufs : Bytes.t list; mutable depth : int }

(* Surplus [put]s beyond this many free buffers of one length go to the
   GC.  The 4-shard server and parallel-ttcp workloads miss more often
   with 64. *)
let max_per_class = 128

type t = {
  classes : (int, klass) Hashtbl.t;
  hits : Obs.Counter.t;
  misses : Obs.Counter.t;
  mutable free_total : int;
  mutable outstanding : int;  (* gets minus puts: buffers in flight *)
}

let create () =
  {
    classes = Hashtbl.create 8;
    hits = Obs.Counter.create ();
    misses = Obs.Counter.create ();
    free_total = 0;
    outstanding = 0;
  }

let get t n =
  t.outstanding <- t.outstanding + 1;
  match Hashtbl.find_opt t.classes n with
  | Some ({ bufs = b :: tl; _ } as k) ->
      k.bufs <- tl;
      k.depth <- k.depth - 1;
      t.free_total <- t.free_total - n;
      Obs.Counter.incr t.hits;
      b
  | Some _ | None ->
      Obs.Counter.incr t.misses;
      Bytes.create n

let put t b =
  (* Counted even when the class is full and the buffer is dropped to the
     GC: [outstanding] measures caller get/put balance, not pool depth. *)
  t.outstanding <- t.outstanding - 1;
  let n = Bytes.length b in
  let k =
    match Hashtbl.find_opt t.classes n with
    | Some k -> k
    | None ->
        let k = { bufs = []; depth = 0 } in
        Hashtbl.replace t.classes n k;
        k
  in
  if k.depth < max_per_class then begin
    k.bufs <- b :: k.bufs;
    k.depth <- k.depth + 1;
    t.free_total <- t.free_total + n
  end

let hit_count t = Obs.Counter.get t.hits
let miss_count t = Obs.Counter.get t.misses

let hit_rate t =
  let h = hit_count t and m = miss_count t in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let outstanding t = t.outstanding

let reset_stats t =
  Obs.Counter.reset t.hits;
  Obs.Counter.reset t.misses

let shared = create ()

(* The shared instance is the one the datapath uses; publish it. *)
let () =
  let s = "bufpool" in
  Obs.register ~section:s ~name:"hits" (Obs.M_counter shared.hits);
  Obs.register ~section:s ~name:"misses" (Obs.M_counter shared.misses);
  Obs.gauge ~section:s ~name:"hit_rate" (fun () -> hit_rate shared);
  Obs.gauge ~section:s ~name:"free_bytes" (fun () ->
      float_of_int shared.free_total);
  Obs.gauge ~section:s ~name:"outstanding" (fun () ->
      float_of_int (outstanding shared))
