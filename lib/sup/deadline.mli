(** [Deadline] — a per-request time budget on the virtual clock.

    A deadline is an {e absolute} expiry instant, minted once when a
    request enters the system (at accept/enqueue, so time spent queued
    counts against it) and carried with the request through every layer:
    the server backlog, [Shard.connect] → the shard mailbox → the shard
    worker. Each nested bound derives from the {e remaining} budget via
    {!timeout} instead of restarting the full [request_timeout] from
    scratch — so a request that has already burned its budget waiting is
    shed {e early} (503) rather than burning a worker for a full fresh
    timeout only to 504 anyway.

    Plain data (one [int]), comparable and copyable across threads and
    actor messages; all queries cost one [Io.now] step. *)

open Hio

type t

val mint : int -> t Io.t
(** [mint budget] — a deadline [budget] µs (virtual) from now.
    A negative budget is clamped to an already-expired deadline. *)

val remaining : t -> int Io.t
(** µs left; [<= 0] once expired. *)

val expired : t -> bool Io.t

val timeout : t -> 'a Io.t -> 'a option Io.t
(** [timeout d io] runs [io] bounded by the remaining budget
    ([Combinators.timeout (remaining d) io]); returns [None] without
    running [io] at all when the deadline has already expired — the
    early-shed path. *)
