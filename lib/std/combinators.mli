(** The paper's §7 library: robust abstractions layered on the low-level
    primitives. None of these require runtime support beyond [block] /
    [unblock] / [throwTo] — they are written exactly as in the paper. *)

open Hio

val finally : 'a Io.t -> unit Io.t -> 'a Io.t
(** [finally a b]: "do [a], then whatever happens do [b]" (§7.1). The
    cleanup [b] runs masked, like a signal handler running with signals
    disabled. Built on the restore-passing {!Io.mask} rather than the
    paper's [block]/[unblock], so a caller's enclosing mask stays in force
    inside [a]. *)

val later : unit Io.t -> 'a Io.t -> 'a Io.t
(** [finally] with the arguments reversed (§7.1). *)

val on_exception : 'a Io.t -> unit Io.t -> 'a Io.t
(** [on_exception a b] runs [b] only if [a] raises; the exception is
    re-thrown. The cleanup [b] runs masked ({!Io.mask}), so it cannot
    itself be cut short by a second asynchronous exception before it gets
    going. *)

val bracket : 'a Io.t -> ('a -> 'b Io.t) -> ('a -> 'c Io.t) -> 'b Io.t
(** [bracket acquire use release] (§7.1, the paper's argument order):
    acquisition is atomic — either the resource is acquired or an
    exception is raised and it is not; release runs on every exit path.
    [use] runs under the caller's mask state (restore-passing {!Io.mask}),
    acquisition and release run masked. *)

val bracket_ : 'a Io.t -> 'b Io.t -> 'c Io.t -> 'b Io.t
(** [bracket] ignoring the resource value. *)

val either : 'a Io.t -> 'b Io.t -> ('a, 'b) Either.t Io.t
(** §7.2: run both computations concurrently and return the first result,
    killing the other computation. Asynchronous exceptions received while
    waiting are propagated to both children; an exception raised by either
    child before a result arrives is re-thrown. *)

val both : 'a Io.t -> 'b Io.t -> ('a * 'b) Io.t
(** §7.2: run both computations concurrently and wait for both. If either
    raises, the other is killed and the exception re-thrown; received
    asynchronous exceptions are propagated to both children. *)

val race : 'a Io.t list -> 'a Io.t
(** N-ary {!either} over a non-empty list: the first result wins, the rest
    are killed; a child's exception (or an empty list's
    [Invalid_argument]) is re-thrown; received asynchronous exceptions are
    propagated to every child. *)

val parallel : 'a Io.t list -> 'a list Io.t
(** N-ary {!both}: run all computations concurrently and collect the
    results in order. If any raises, the others are killed and the
    exception re-thrown. *)

val parallel_map : ('a -> 'b Io.t) -> 'a list -> 'b list Io.t
(** [parallel] over [List.map]. *)

val timeout : int -> 'a Io.t -> 'a option Io.t
(** §7.3: [timeout t a] is [Just r] if [a] finishes within [t]
    microseconds, [Nothing] otherwise. Composable: timeouts may be
    arbitrarily nested and cannot interfere with each other — each call
    arms its own uniquely-identified deadline. Unlike the paper's
    implementation, no clock thread is forked: the deadline lives on the
    runtime's timer wheel ({!Io.arm_timer}), so arming and cancelling are
    O(1) and 100k concurrent timeouts cost no threads. [a] runs in a
    child thread under the caller's mask state (restore-passing
    {!Io.mask}), so a universal handler inside [a] cannot intercept the
    deadline; a timeout that loses cleanly withdraws its token — no ghost
    wakeups. *)

val safe_point : unit Io.t
(** §7.4: a checkpoint at which a masked long computation briefly accepts
    pending asynchronous exceptions: [unblock (return ())]. *)

val critical : 'a Io.t -> 'a Io.t
(** Run an action that must complete even if a kill arrives while it
    waits: for release paths that must not abandon a held resource, and
    for reports that must not be lost. A blocking operation is
    interruptible while its resource is held by another thread (§5.3),
    so even a masked handler can be killed mid-release. The paper's
    primitives have no uninterruptible mask (GHC added one years later,
    for exactly this; {!Io.uninterruptibly} here, which an inner
    {!Io.block} downgrades); the equivalent idiom — usable only under
    {!Io.block} — is to catch the asynchronous exception, re-post it to
    ourselves with the asynchronous {!Io.throw_to} (masked, it just
    returns to our pending queue), and retry. Only for an action that
    raises nothing synchronously and has no effect when interrupted
    (a take, a [Chan.send] waiting for its write cursor). *)

val critical_take : 'a Mvar.t -> 'a Io.t
(** [critical (Mvar.take mvar)]: [takeMVar] for release paths. *)

val forever : unit Io.t -> 'a Io.t
(** Repeat an action indefinitely (convenience; ends only by exception). *)

val repeat : int -> unit Io.t -> unit Io.t
(** Run an action [n] times in sequence. *)
