(** A small domain-parallel fork-join pool for the verification engines.

    Both the kill-point sweeps (the drivers of {!Fault.Sweep}'s pipeline)
    and the state-space explorer ({!Ch_explore.Space}) are embarrassingly
    parallel: each faulted re-run, and each frontier expansion, is
    independent work over immutable inputs (a recorded schedule, a
    program state). This module farms that work to worker domains and
    returns results {e indexed}, so callers can merge them in input
    order and stay byte-identical to a sequential run.

    Design: one spawned domain per worker slot beyond the caller (the
    submitting domain always works too), a shared [Atomic] index counter
    for chunked work-stealing, and a [Mutex]/[Condition] pair for the
    sleep/wake protocol between jobs. No dependencies beyond the OCaml
    standard library.

    {b Requires OCaml >= 5.1} — [Domain], [Atomic], and the domain-safe
    [Mutex]/[Condition] only exist on the multicore runtime; the
    [dune-project] pins [(ocaml (>= 5.1))] accordingly. On a machine
    with a single core (or with [jobs = 1]) everything degrades to plain
    sequential execution in the calling domain: no domain is spawned. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the default [--jobs]. *)

module Pool : sig
  type t
  (** A fixed set of worker domains that can execute many jobs over its
      lifetime (cheaper than spawning domains per call when a caller —
      e.g. the sliced BFS — submits one job per frontier slice). *)

  val create : int -> t
  (** [create jobs] makes a pool with [jobs] worker slots ([jobs - 1]
      spawned domains; the submitting domain is the remaining worker).
      [jobs <= 1] spawns nothing. *)

  val size : t -> int
  (** Worker slots, including the submitting domain. At least 1. *)

  val run : t -> n:int -> (int -> unit) -> unit
  (** [run t ~n f] executes [f 0 .. f (n-1)], each exactly once, spread
      over the pool's workers; the call returns when all are done. The
      submitting domain participates. Workers grab [n / (8 * size)]
      indices at a time, at least 1 — small enough to balance uneven
      item costs. If some [f i] raises, one of the raised exceptions is
      re-raised here after all workers have stopped (remaining indices
      may be skipped). *)

  val map : t -> ('a -> 'b) -> 'a array -> 'b array
  (** [map t f arr]: the indexed form of {!run} — result [i] is
      [f arr.(i)], positions preserved, so order-sensitive merges are
      independent of scheduling. *)

  val shutdown : t -> unit
  (** Stop and join the worker domains. Idempotent. The pool must not
      be used afterwards. *)
end

val with_pool : ?jobs:int -> (Pool.t -> 'a) -> 'a
(** [with_pool ~jobs f]: {!Pool.create}, run [f], always
    {!Pool.shutdown} (also on exceptions). [jobs] defaults to
    {!recommended_jobs}[ ()]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** One-shot {!Pool.map}. [jobs <= 1] (the default when the machine has
    one core) runs inline in the calling domain with no pool at all. *)
