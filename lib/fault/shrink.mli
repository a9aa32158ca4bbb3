(** Greedy plan shrinking: reduce a failing fault plan to a (locally)
    minimal one that still fails, for readable counterexamples. *)

val earlier : int -> int list
(** [earlier at]: the steps a fault at step [at] may move to, ascending
    — step 0, the halfway step and the decrement, deduplicated ([[]] at
    step 0). Every shrinker in [lib/fault] moves faults in this order. *)

val candidates : Plan.t -> Plan.t list
(** One-step reductions of a plan: drop one injection, or move one
    injection to an earlier step (halving, decrement, step 0). *)

val minimize : (Plan.t -> bool) -> Plan.t -> Plan.t
(** [minimize fails plan] repeatedly replaces [plan] with the first
    candidate for which [fails] still holds, until none does. Each probe
    is a full re-run, so the caller bounds cost by the plan size (the
    sweep only ever shrinks single-injection plans). If [fails plan] is
    false the plan is returned unchanged. *)
