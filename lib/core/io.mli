(** The IO monad of Concurrent Haskell with asynchronous exceptions
    (paper §3–§5), embedded in OCaml.

    A value of type ['a t] is a description of an IO computation that, when
    performed by {!Runtime.run}, may fork threads, synchronize on MVars,
    throw and catch exceptions — synchronous or asynchronous — and finally
    deliver a value of type ['a].

    Exceptions are ordinary OCaml [exn] values. {!throw_to} delivers one
    asynchronously to another thread; {!block} and {!unblock} are the
    paper's scoped combinators controlling delivery. Operations that can
    wait indefinitely ({!Mvar.take}, {!Mvar.put}, {!sleep}, {!get_char})
    are {e interruptible}: they can receive asynchronous exceptions even
    inside {!block}, but only while the resource they wait for is
    unavailable (§5.3). *)

type 'a t = 'a Hio_types.io

type thread_id = Hio_types.thread
(** The paper's [ThreadId]: supports equality ({!same_thread}). *)

exception Kill_thread
(** The paper's [KillThread] exception. *)

exception Timeout
(** Thrown by sleeping deadlines; used by the [timeout] combinator. *)

exception Thread_not_found
(** Never raised by the runtime — reserved for user protocols. *)

exception Timer_signal of int
(** The token an armed timer ({!arm_timer}) posts asynchronously to the
    arming thread when its deadline fires. The payload is the timer's
    unique id, so nested deadlines cannot be confused for one another —
    match with {!is_timer_signal}, not on the constructor. *)

(** {1 Monad} *)

val return : 'a -> 'a t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : ('a -> 'b) -> 'a t -> 'b t
val ( >>= ) : 'a t -> ('a -> 'b t) -> 'b t
val ( >> ) : 'a t -> 'b t -> 'b t

(** [let*] / [let+] syntax for monadic code. *)
module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
  val ( and+ ) : 'a t -> 'b t -> ('a * 'b) t
end

val ignore_result : 'a t -> unit t

(** {1 Exceptions (§4, §5)} *)

val throw : exn -> 'a t
(** Raise a synchronous exception. *)

val catch : 'a t -> (exn -> 'a t) -> 'a t
(** [catch m h] runs [m]; if it raises — synchronously or asynchronously —
    [h] receives the exception. The handler runs with the mask state in
    force where the [catch] was entered (paper §8.1), so a handler inside
    [block] cannot itself be interrupted before it gets going. *)

val catch_sync : 'a t -> (exn -> 'a t) -> 'a t
(** The §9 "two datatypes" design alternative: like {!catch}, but does NOT
    intercept asynchronously delivered exceptions ("alerts") — they
    propagate past the handler. Use it for universal handlers
    ([catch_sync e (fun _ -> fallback)]) that must not swallow a [timeout]
    or a kill aimed at the enclosing computation; the paper notes that with
    only one [catch], such handlers "break the combinator". An exception
    re-thrown from a {!catch} handler counts as synchronous from then on. *)

val throw_to : thread_id -> exn -> unit t
(** [throw_to t e] raises [e] in thread [t] "as soon as possible" and
    returns immediately (the asynchronous design of §5/§8.2; see
    {!Runtime.Config} for the §9 synchronous alternative). If [t] has
    already died or completed, [throw_to] trivially succeeds. *)

val block : 'a t -> 'a t
(** Execute the argument with asynchronous-exception delivery blocked.
    Scoped: the previous state is restored on exit, normal or exceptional.
    Nesting does not count — [block (block m)] behaves as [block m]. *)

val unblock : 'a t -> 'a t
(** Execute the argument with delivery unblocked, regardless of context
    (§5.2: "unblock always unblocks"). Scoped like {!block}.

    {b Why this breaks abstraction:} precisely because it always unblocks,
    a library combinator written with [unblock] silently re-enables
    asynchronous exceptions that its {e caller} had blocked — e.g.
    [block (finally a b)] with a [finally] built on [unblock] exposes [a]
    to interrupts the caller believed were masked. The caller cannot
    defend itself: there is no way to wrap a computation so that its
    internal [unblock]s are neutralised. {!mask} is the redesign (GHC 7's
    [Control.Exception.mask]): instead of an absolute "unblock", the
    combinator body receives a [restore] function that merely re-installs
    the {e caller's} mask state, so masking composes. Kept here because
    [block]/[unblock] are the paper's primitives; new code should prefer
    {!mask}. *)

val mask : (('a t -> 'a t) -> 'b t) -> 'b t
(** [mask f] runs [f restore] with asynchronous-exception delivery
    blocked, where [restore m] runs [m] with the mask state that was in
    force {e when this [mask] was entered} — not necessarily unblocked.
    This is the GHC-7-style restore-passing combinator: unlike {!unblock},
    [restore] cannot unmask more than the caller had unmasked, so
    combinators built on it ({!Hio_std.Combinators.finally},
    [bracket], …) compose under an enclosing {!block} or [mask].
    Inside {!uninterruptibly}, the body stays uninterruptible (no
    downgrade). Interruptible operations (§5.3) still deliver inside
    [mask], exactly as inside {!block}.

    Entering the mask is a single scheduler step, like {!block}: reading
    the current state and masking are atomic, so no asynchronous
    exception can slip in between. *)

val mask_ : 'a t -> 'a t
(** [mask_ m] is [mask (fun _ -> m)]: block delivery without needing the
    restore function. Equivalent to {!block} except that, like {!mask}, it
    does not downgrade an enclosing {!uninterruptibly}. *)

val uninterruptibly : 'a t -> 'a t
(** {b Post-paper extension} (GHC's later [uninterruptibleMask]): execute
    the argument with delivery blocked {e even at interruptible
    operations} — a blocking [takeMVar] inside this scope simply waits,
    with any [throwTo] left pending. The paper's release paths need the
    catch/re-post/retry idiom ({!Hio_std.Combinators.critical_take})
    precisely because this combinator did not exist; we provide it so the
    two approaches can be compared. Use sparingly: a computation blocked
    in here is unkillable. Scoped like {!block}. *)

val blocked : bool t
(** Whether delivery is currently blocked — introspection for tests. *)

type mask_level = Unmasked | Masked | Uninterruptible

val mask_level : mask_level t
(** Current mask level, for tests. *)

(** {1 Threads (§4)} *)

val fork : ?name:string -> unit t -> thread_id t
(** The paper's [forkIO]. The child inherits the parent's mask state by
    default (the GHC refinement; configurable in {!Runtime.Config} —
    Figure 5's (Fork) rule does not inherit). *)

val my_thread_id : thread_id t
val same_thread : thread_id -> thread_id -> bool
val thread_name : thread_id -> string option

type wait_reason = Hio_types.wait_reason =
  | W_take_mvar
  | W_put_mvar
  | W_sleep
  | W_get_char
  | W_throw_to
  | W_fd_read
  | W_fd_write
      (** Why a thread is blocked — the closed variant shared with
          {!Runtime} (wait graphs, tracer) and the observability layer.
          See {!Runtime.wait_reason}. *)

val wait_reason_label : wait_reason -> string
(** ["takeMVar"], ["putMVar"], ["sleep"], ["getChar"], ["throwTo"],
    ["fdRead"], ["fdWrite"]. *)

type thread_status =
  | Running
  | Blocked_on of wait_reason
  | Dead

val thread_status : thread_id -> thread_status t
(** Test/diagnostic introspection. *)

(** {1 Time and scheduling} *)

val sleep : int -> unit t
(** Sleep for the given number of microseconds — virtual under the
    simulated runtime, monotonic real time when an
    {!Runtime.event_source} is installed. Interruptible. Backed by the
    hierarchical timer wheel: arming and cancelling are O(1), so 100k+
    concurrent sleepers are fine. *)

type timer
(** A handle to an armed deadline on the timer wheel. *)

val arm_timer : int -> timer t
(** [arm_timer d] registers a deadline [d] µs from now on the timer
    wheel and returns immediately. When it fires, a {!Timer_signal}
    token carrying this timer's unique id is delivered to {e this}
    thread as an asynchronous exception (waking it from any
    interruptible wait, even inside [block] — §5.3). [d <= 0] posts the
    token at once. This is the primitive under
    [Hio_std.Combinators.timeout]; unlike the paper's §7.3 sleep-thread
    race it costs no forked clock thread per call. *)

val cancel_timer : timer -> unit t
(** Withdraw an armed deadline {e and} discard its token if the wheel
    already fired but the token has not yet been delivered — after
    [cancel_timer h] returns, no token with [is_timer_signal h] will be
    observed (no ghost wakeups). Idempotent. *)

val is_timer_signal : timer -> exn -> bool
(** Does this exception carry {e this} timer's token? *)

(** {1 File-descriptor readiness (event manager)} *)

val wait_readable : int -> unit t
(** Block (interruptibly) until the configured {!Runtime.event_source}
    reports the file descriptor readable. The [int] is the raw fd number
    as the event source knows it ([Ev] converts from [Unix.file_descr]).
    Without an event source this waits forever — visible in the deadlock
    report as [fdRead]. *)

val wait_writable : int -> unit t
(** Writable counterpart of {!wait_readable}. *)

val yield : unit t
(** Offer the scheduler a switch point. *)

val now : int t
(** The current virtual time in microseconds. *)

val steps : int t
(** The number of scheduler steps the whole runtime has executed so far —
    the virtual-step clock the observability layer stamps events with.
    Deterministic under the round-robin policy, which makes it the right
    unit for latency measurements ({!Hserver}'s per-request histogram). *)

(** {1 Console} *)

val put_char : char -> unit t
val put_string : string -> unit t
val get_char : char t
(** Reads from the runtime's configured input; blocks (interruptibly) when
    input is exhausted. *)

(** {1 Escape hatch} *)

val lift : (unit -> 'a) -> 'a t
(** Embed an OCaml side effect as an atomic, non-interruptible step.
    Intended for test instrumentation (counters, probes). *)

val frame_depth : int t
(** The current depth of this thread's continuation stack — instrumentation
    for the §8.1 constant-stack claim. *)

val domain_index : int t
(** The index of the scheduler domain executing this step: [0 .. N-1]
    under [Runtime.Config.domains = N], always [0] on a single-domain
    run. Under [Runtime.Config.replay] the {e recorded} domain index is
    reported, so a program that observed its placement replays
    byte-identically on one domain. *)
