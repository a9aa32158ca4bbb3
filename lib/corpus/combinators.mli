(** The paper's §7 combinators as object-language terms, so the model
    checker can verify them against {e all} schedules.

    Each term is a (curried) function value; apply it with
    {!Ch_lang.Term.apps} or bind it with a [let] via {!with_prelude}. *)

open Ch_lang

val finally_t : Term.term
(** [\a -> \b -> ...] — §7.1: run [a]; whatever happens, run [b]. The
    release action runs inside [block]. *)

val finally_unmasked_t : Term.term
(** The incorrect variant the paper warns against — identical but with no
    [block], so a second asynchronous exception can land between the
    handler firing and the cleanup running ("using block … ensures that
    [the second argument] is always executed"). The test suite
    model-checks the vulnerability into existence. *)

val bracket_t : Term.term
(** [\acquire -> \use -> \release -> ...] — §7.1 generalization, with the
    paper's argument order ([bracket (openFile f) (\h -> work h)
    (\h -> hClose h)] — the work comes second, its result is returned). *)

val either_t : Term.term
(** [\a -> \b -> ...] — §7.2: run both, return [Left r] / [Right r] for
    whichever finishes first, kill the other; received asynchronous
    exceptions are propagated to both children. *)

val both_t : Term.term
(** [\a -> \b -> ...] — §7.2: run both to completion, pair the results; an
    exception from either child (or received from outside and propagated)
    kills the other and re-throws. *)

val timeout_t : Term.term
(** [\t -> \a -> ...] — §7.3: [Just r] if [a] beats the clock, [Nothing]
    otherwise; composable and nestable. *)

val safe_point_t : Term.term
(** [unblock (return ())] — §7.4: the one point of a [block]ed
    computation, besides its interruptible operations, where a pending
    asynchronous exception can be delivered. *)

val with_prelude : Term.term -> Term.term
(** Bind [finally], [bracket], [either], [both], [timeout], [safePoint]
    and [putStr] ([\s -> ...]: print a [Cons]/[Nil] list of characters,
    the parser's desugaring of string literals) around the given program,
    so corpus sources can call them by name. *)
