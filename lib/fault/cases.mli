(** Ready-made sweep cases over the §7 abstractions ({!Hio_std}) and the
    §11 server ({!Hserver}): each does its concurrent work in the armed
    window, then disarms and probes its own invariants with
    {!Sweep.require} — semaphore units conserved, barrier arrivals
    withdrawn, channel cursors restored, cleanup flags consistent, the
    server quiescent after shutdown. *)

val join : 'a Hio_std.Task.t -> unit Hio.Io.t
(** Await a task, discarding its outcome — unless the awaited exception
    was aimed at {e us} while waiting (the task is still unfinished), in
    which case it is re-thrown so a killed main dies properly. The
    standard way for a sweep case to reap children that may themselves
    be kill victims. *)

val std : Sweep.case list
(** [sem-units], [barrier-withdraw], [chan-conserve], [bchan-conserve],
    [mvar-lock], [cleanup-flags] — swept with {!Plan.Acting}. *)

val server : Sweep.case
(** [server-requests]: two clients against the §11 server, a probe
    request, graceful shutdown. Sweep it with {!Plan.Acting} and with
    [Named "listener"] / [Named "conn-worker"] for the targeted "kill the
    accept loop mid-accept" / "kill a worker mid-request" adversaries. *)

val server_targets : Plan.target list
(** The three adversaries above, in that order. *)

val sup_one_for_one : Sweep.case
(** Two permanent heartbeat children under a one-for-one supervisor:
    after any kill, either both children are live again (≤ 1 restart
    spent) and the tree stops gracefully, or — if the supervisor itself
    was hit — the heartbeats are provably silent (no stranded child). *)

val sup_all_for_one : Sweep.case
(** Same shape under {!Hsup.Sup.All_for_one}; additionally requires the
    two children's start counts stay in lockstep (collective restart). *)

val sup_retry_breaker : Sweep.case
(** {!Hsup.Retry.retry} over {!Hsup.Breaker.run} of a flaky operation:
    the baseline walks closed → open → fail-fast → half-open → closed;
    after the kill, a probe past the reset window must still be admitted
    and close the circuit (no wedged half-open trial). *)

val sup_bulkhead : Sweep.case
(** Four jobs through a capacity-2/waiting-1 {!Hsup.Bulkhead}: after the
    kill, occupancy is back to zero and a fresh call is admitted. *)

val sup_server : Sweep.case
(** The tentpole: four clients saturate the supervised server (capacity
    2 + 1 waiting, so the baseline sheds); after a kill anywhere, every
    surviving client holds an allowed answer (200/503/504 or its own
    timeout) and probe requests get 200 again — from the same tree if
    the supervisor survived, from a fresh one otherwise. *)

val sup_server_targets : Plan.target list
(** [Acting; Named "supervisor"; Named "listener"; Named "conn-worker"]. *)

val actor_link : Sweep.case
(** A monitored, linked child that crashes on demand: whatever single
    kill lands (watcher, parent, child, main), a monitor's [Down]
    arrives {e at most} once — and exactly once when both the watcher
    and the armed monitor outlived the watched actor. The link must
    always unblock the parent (an actor death is never silent). *)

val actor_call : Sweep.case
(** Two clients [call] a counter server: a killed server fails waiting
    calls fast via its exit protocol (no timeout wedge); if the server
    survived, its state is bounded by the completed calls and a
    graceful [stop] drains the mailbox FIFO before acknowledging. *)

val actor_ring : Sweep.case
(** A token ring (4 actors × 2 laps): if nobody was killed the token
    completes; killed or not, each member's single-predecessor hop
    numbers are strictly increasing — per-sender mailbox FIFO under
    every schedule the sweep reaches. *)

val actor_shard : Sweep.case
(** The sharded supervised server ({!Hserver.Shard}): four keyed
    clients against 2 shards (capacity 2 + 1 waiting each), then the
    sup-server contract — allowed answers only, probes per shard answer
    200 again (same tree, or a fresh one if shard-root itself died),
    connect refused after shutdown. *)

val actor_shard_targets : Plan.target list
(** [Acting; Named "router"; Named "shard-0"; Named "shard-sup-0";
    Named "shard-serve"; Named "conn-worker"; Named "shard-root"] —
    every layer of the sharded tree. *)

val suites : (string * (Sweep.case * Plan.target) list) list
(** The hio kill-sweep suites by name, in the order [chrun sweep] runs
    them: [std] (each {!std} case, {!Plan.Acting}), [server] ({!server}
    against each of {!server_targets}), [sup] (each supervision case
    with its targets, then {!sup_server} against each of
    {!sup_server_targets}) and [actor] (link/call/ring with their
    targets, then {!actor_shard} against each of
    {!actor_shard_targets}). *)

val naive_lock : Sweep.case
(** A deliberately §5.2-violating lock (bare [take]/[put], nothing
    masked, no restore) — the harness must find and shrink its wedge;
    used by the tests to validate the sweep itself, never part of the
    shipped suites. *)
