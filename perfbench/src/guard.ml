(* Failure accounting.  Work is guarded a unit at a time (one transfer,
   one RPC round, one server run): a unit that raises fails every op it
   attempted, its exception text is kept, and the workload goes on with
   the next unit.  A unit whose output check fails also fails its ops,
   and counts as a wrong output. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** output checks that failed *)
  mutable errors : (string * int) list;  (** text, units it failed *)
}

let create () = { attempted = 0; failed = 0; wrong = 0; errors = [] }

let note t text =
  let n = Option.value ~default:0 (List.assoc_opt text t.errors) in
  t.errors <- (text, n + 1) :: List.remove_assoc text t.errors

(* [run t ~ops f] runs a unit that attempts [ops] ops; [f] returns how
   many ops completed and passed every check (ops completed beyond [ops]
   count as attempted too).  Returns that count, or 0 when [f] raised. *)
let run t ~ops f =
  t.attempted <- t.attempted + ops;
  match f () with
  | completed ->
      let completed = max 0 completed in
      if completed > ops then t.attempted <- t.attempted + (completed - ops)
      else t.failed <- t.failed + (ops - completed);
      completed
  | exception e ->
      t.failed <- t.failed + ops;
      note t (Printexc.to_string e);
      0

(* [add t u] adds [u]'s counts and exception texts to [t]. *)
let add t u =
  t.attempted <- t.attempted + u.attempted;
  t.failed <- t.failed + u.failed;
  t.wrong <- t.wrong + u.wrong;
  List.iter
    (fun (text, n) ->
      for _ = 1 to n do
        note t text
      done)
    u.errors

let check t ok text =
  if not ok then begin
    t.wrong <- t.wrong + 1;
    note t text
  end;
  ok
