(** A bounded per-step thread journal: which thread ran at each of the
    last [window] scheduler steps.

    This is the runtime's cheapest form of execution history. Maintaining
    run slices (thread t ran steps [a..b]) online costs a dozen
    loads/stores per context switch, and with many runnable threads a
    round-robin scheduler switches on {e every} step — too expensive for
    an always-affordable recorder (a scheduler step is ~40ns). Instead the
    runtime writes one packed word per step — [(step lsl 22) lor tid] —
    into a power-of-two ring indexed by [step land mask], and readers
    reconstruct slices afterwards. Because step indices are contiguous,
    the journal is a complete record of the last [window] steps; a slot
    whose decoded step does not match the index asked for is stale (an
    older lap, or a stamp the writer skipped) and reads as "no data".

    Thread ids are recorded modulo 2^22; runs are bounded well below
    [max_steps = 5e7 < 2^26] steps so the packed word never overflows. *)

type t

val create : ?window:int -> unit -> t
(** [window] (default 65536) is rounded up to a power of two: the number
    of trailing steps the journal retains. *)

val window : t -> int

val note : t -> step:int -> running:int -> unit
(** Record that thread [running] executed scheduler step [step]. O(1),
    two stores. Steps must be noted in increasing order for [lo]/[read]
    to report a meaningful window. *)

val advance : t -> int -> unit
(** Move the clock to step [n] (if beyond it) without recording a run —
    for stamping events at points where no thread ran, e.g. the
    semantics layer's delivery transitions. *)

val last : t -> int
(** The most recent step observed ([note] or [advance]); 0 initially. *)

val lo : t -> int
(** The oldest step index still inside the retained window. *)

val read : t -> int -> int
(** [read j step] is the tid that ran at [step], or [-1] if the journal
    has no record of it (never noted, or older than the window). *)

val clear : t -> unit

val entries : t -> (int * int) list
(** The retained window as [(step, tid)] pairs in ascending step order —
    for comparing two journals (e.g. a recorded multi-domain run against
    its single-domain replay). *)

(** The multi-domain replay log.

    A multi-domain run is nondeterministic at exactly the points where
    domains touch shared scheduler state: sequenced operations (MVar
    traffic, fork, throwTo, timers, I/O) and virtual-clock advances.
    Each such decision is recorded with a global sequence number taken
    under the shared-state lock, on the domain that ran it ([r_dom]:
    which domain ran a thread is all a steal decides); purely
    thread-local step segments (bind/catch/mask bookkeeping, pure
    unwinding) are recorded without one, ordered only per thread. Merging
    the per-domain buffers yields a serial schedule that
    [Runtime.Config.replay] re-executes on one domain, reproducing the
    run — outcome, output, thread ids, per-thread statistics, and the
    step journal — byte for byte. *)
module Replay : sig
  type kind =
    | K_op  (** a segment ending in one sequenced (shared-state) step *)
    | K_deliver
        (** a segment ending in a pending asynchronous-exception
            delivery (the delivery replaces the boundary step) *)
    | K_end
        (** a purely local segment ending in [yield], quantum expiry, or
            run stop — unsequenced, ordered per thread by [r_tseq] *)
    | K_clock  (** the virtual clock advanced while quiescent *)

  type record = {
    r_kind : kind;
    r_dom : int;  (** domain the decision executed on *)
    r_tid : int;  (** thread the record is about (0 for [K_clock]) *)
    r_tseq : int;
        (** per-thread record counter for [K_op]/[K_deliver]/[K_end] *)
    r_steps : int;  (** scheduler steps this segment executed *)
    r_seq : int;  (** global order; 0 for unsequenced [K_end] records *)
  }

  type buf
  (** A per-domain append-only record buffer (no internal locking: each
      domain writes only its own). *)

  val buf_create : unit -> buf
  val buf_add : buf -> record -> unit

  type t = { domains : int; records : record array }
  (** A merged log: [records] in canonical replay order. *)

  val merge : domains:int -> buf array -> t
  (** Serialize per-domain buffers: sequenced records by [r_seq], each
      thread's local segments spliced immediately before that thread's
      next sequenced record (local steps commute with other threads'
      steps, so this is a sound serialisation), trailing local segments
      last in (tid, tseq) order. *)

  val total_steps : t -> int
  val count : kind -> t -> int

  val encode : Buffer.t -> t -> unit
  (** A line-oriented text encoding (["hio-replay 1"] header), for
      [chrun run --record] / [chrun replay]. *)

  val to_string : t -> string

  val decode : string -> t
  (** @raise Failure on a malformed log. *)
end
