(** The transition rules of Figures 4 and 5, as an enumerator of all
    possible transitions from a program state.

    Nondeterminism is explicit: {!enumerate} returns every transition any
    rule allows, and the exploration layer ({!Ch_explore}) chooses among
    them (a scheduler picks one; the model checker follows all). *)

open Ch_lang

type rule =
  (* Figure 4 *)
  | R_bind
  | R_put_char
  | R_get_char
  | R_sleep
  | R_put_mvar
  | R_take_mvar
  | R_new_mvar
  | R_fork
  | R_thread_id
  | R_propagate
  | R_catch
  | R_handle
  | R_return_gc
  | R_throw_gc
  | R_proc_gc
  | R_eval
  | R_raise
  (* Figure 5 *)
  | R_block_return
  | R_unblock_return
  | R_block_throw
  | R_unblock_throw
  | R_throw_to
  | R_receive
  | R_interrupt
  | R_stuck_put_char
  | R_stuck_get_char
  | R_stuck_sleep
  | R_stuck_put_mvar
  | R_stuck_take_mvar
  (* the environment *)
  | R_kill

val rule_name : rule -> string
(** The paper's name for the rule, e.g. ["(Block Return)"] for
    {!R_block_return}. *)

type label =
  | Out_char of char  (** [!c] *)
  | In_char of char  (** [?c] *)
  | Time of int  (** [$d] *)

type actor =
  | Thread_step of Term.tid  (** a rule firing at thread [t]'s redex *)
  | Delivery of int
      (** rules (Receive)/(Interrupt) consuming in-flight exception [k] *)
  | Global  (** rule (Proc GC), or the environment's (Kill) *)

type transition = {
  rule : rule;
  actor : actor;
  label : label option;
  next : State.t;
}

type config = {
  fuel : int;  (** fuel for the inner semantics in rules (Eval)/(Raise) *)
  fork_inherits_mask : bool;
      (** if set, [forkIO] in a masked context wraps the child in [block];
          Figure 5's (Fork) does not inherit (the GHC implementation later
          chose to), so the default is [false] *)
  stuck_io : bool;
      (** enable the unconditional (Stuck PutChar)/(Stuck GetChar)/(Stuck
          Sleep) transitions; disabling them shrinks the state space when a
          corpus program's interruptibility-during-I/O is not under test *)
}

val default_config : config

val enumerate : ?config:config -> State.t -> transition list
(** All transitions the rules of Figures 4 and 5 allow from this state. An
    empty result means the state is terminal: either every thread has
    finished (possibly after (Proc GC)), or the program is deadlocked,
    ill-typed, or purely divergent — {!thread_stall} distinguishes these. *)

val kills : State.t -> transition list
(** The environment's [throwTo]: for each [Active] thread [t], in thread
    order, a (Kill) transition that appends [⟦t ⇐ KillThread⟧] to the
    in-flight exceptions. It is not a rule of Figures 4 and 5 and
    {!enumerate} never offers it; the kill is delivered by the ordinary
    (Receive)/(Interrupt) rules, as a program's [throwTo] would be. The
    explorer's adversary ({!Ch_explore.Space.explore}'s [kills]) offers
    these transitions. *)

type stall =
  | Waiting  (** blocked on an unavailable resource or exhausted input *)
  | Diverging  (** the inner semantics ran out of fuel at this redex *)
  | Ill_typed of string  (** evaluation got stuck; not a well-typed program *)

val thread_stall : config -> State.t -> Term.tid -> stall option
(** Why the given thread contributes no thread-step transition; [None] if
    it can step or has finished. *)

val blocked_reasons :
  ?config:config -> State.t -> (Term.tid * string * Term.mvar_name option) list
(** The wait graph of a terminal state: every thread stalled {!Waiting},
    with the primitive it waits on (["takeMVar"], ["putMVar"],
    ["getChar"]) and the MVar involved, if any — thread order. Feeds the
    deadlock report of [chrun run --stats]. *)
