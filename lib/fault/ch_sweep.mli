(** Kill-point sweep for object-language (Ch) programs: the same
    adversary as {!Sweep}, but driven through the paper's small-step
    rules instead of the hio runtime.

    The baseline schedule is one {!Ch_explore.Sched.run} under
    round-robin; every step whose actor is a thread redex is a kill
    point. Each faulted re-run uses the scheduler's [intervene] hook to
    append an in-flight exception [⟦t ⇐ KillThread⟧] to the state at
    exactly that step — delivery then goes through the ordinary
    (Receive)/(Interrupt) rules, so the injected kill is
    indistinguishable from a real [throwTo] racing the program.

    Unlike the hio sweep, wedges are {e expected} here: the corpus
    programs are written without §5.2 protection, and the sweep's job is
    to exhibit — not to fail on — the states the paper's discipline
    exists to prevent. {!quiescent} is the strict judgement for callers
    that want one. *)

open Ch_lang
open Ch_semantics

type verdict =
  | Completed  (** main finished with a value *)
  | Killed  (** main finished by throwing the injected exception *)
  | Broken of string  (** main threw some other exception *)
  | Wedged of (Term.tid * string * Term.mvar_name option) list
      (** threads left waiting: a deadlock if main never finished, or
          children stranded in the pre-(Proc GC) state if it did *)
  | Livelock  (** the faulted run hit its step bound *)

type point = { at_step : int; victim : Term.tid; verdict : verdict }

type report = {
  rc_name : string;
  rc_baseline_steps : int;
  rc_kill_points : int;
  rc_completed : int;
  rc_killed : int;
  rc_wedged : int;
  rc_broken : int;
  rc_livelocked : int;
  rc_faulted_steps : int;  (** total steps across all faulted runs *)
  rc_points : point list;  (** every non-[Completed]/[Killed] point *)
}

val sweep : ?max_points:int -> ?jobs:int -> string -> State.t -> report
(** [sweep name init]: record the round-robin baseline (which must
    terminate within 20,000 steps), then re-run once per kill point
    (down-sampled evenly to [max_points] if given) injecting
    ["KillThread"] into the thread acting at that step, under
    {!Step.default_config} with the same step bound. [jobs] (default 1)
    runs the faulted re-runs on that many domains; the report is
    identical for every [jobs] value (indexed results, ordered merge —
    see {!Par}).
    @raise Failure if the baseline run does not terminate. *)

val quiescent : report -> bool
(** No wedged, broken or livelocked runs — the strict, hio-style bar. *)

val corpus : (string * State.t) list
(** The sweepable {!Ch_corpus.Programs} (everything but [diverge], whose
    baseline never terminates), as initial states with their inputs. *)

val pp_verdict : Format.formatter -> verdict -> unit

val pp_report : Format.formatter -> report -> unit
(** One line of counts, then one line per non-benign point. *)
