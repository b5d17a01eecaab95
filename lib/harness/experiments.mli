(** The experiment registry: every print-only evaluation target by name,
    in the order a full run prints them.  [bench/main.exe] and
    [nectar reproduce] both dispatch from it. *)

type t = string * (unit -> unit)
(** A target's name and the function that runs it and prints its report. *)

val all : t list
(** Tables 1 and 2, Figures 5 and 6, the §7.3 analysis and the §2.1 HOL
    result, then the extra experiments. *)

val paper : string list
(** The paper's own evaluation: the names of the first six entries of
    [all]. *)

val select : t list -> string list -> (t list, string) result
(** [select table names] looks up each name in [table], in the order
    given.  The group [paper] expands to {!paper} and the group [all] to
    every entry of [table].  [Error msg] names the first unknown target
    and lists the known ones; nothing has run by then. *)
