(** Schedulers: resolve the nondeterminism of {!Ch_semantics.Step.enumerate}
    by picking one transition per step, yielding a single execution.

    These play the role of the paper's (unspecified) runtime scheduler; the
    model checker in {!Space} instead follows every choice. *)

open Ch_semantics

type policy =
  | First  (** always the first enabled transition: depth-first-ish, biased *)
  | Round_robin
      (** deliveries of pending exceptions first (as in the paper's
          implementation sketch, §8), then threads in cyclic order *)
  | Random of int  (** uniform among enabled transitions, seeded *)

type outcome =
  | Terminated  (** no transition enabled: finished, deadlocked or wedged *)
  | Out_of_steps  (** the [max_steps] bound hit *)

type run = {
  final : State.t;
  trace : Step.transition list;  (** oldest first *)
  steps : int;
  outcome : outcome;
}

val run :
  ?config:Step.config -> ?max_steps:int -> policy -> State.t -> run
(** Run a program state to termination (or to [max_steps], default
    [20_000]). One schedule and no adversary: {!Space.explore} follows
    every schedule, and with [kills] every placement of an environment
    [KillThread] too. *)

val pp_trace : Format.formatter -> Step.transition list -> unit
(** One line per step: rule name, acting thread, label. *)
