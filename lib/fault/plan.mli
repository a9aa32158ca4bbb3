(** Fault plans: where to land which asynchronous exception.

    A plan is a list of injections, each naming a scheduler step (the
    global step index recorded by {!Sweep.record}) and a target thread.
    The sweep driver generates single-injection plans — one per observed
    step — and the shrinker reduces a failing plan to a minimal one. *)

type target =
  | Acting  (** the thread about to run at that step *)
  | Named of string
      (** the first thread forked with this [~name] in the recording *)

type injection = { at_step : int; target : target; exn : exn }
type t = injection list

val kill : int -> injection
(** [kill n] is {!Io.Kill_thread} into the acting thread at step [n] —
    the paper's adversary (§5.2: "no matter where" the exception lands). *)

val pp_target : Format.formatter -> target -> unit
val pp : Format.formatter -> t -> unit
