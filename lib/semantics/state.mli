(** Program states — Figure 2 of the paper.

    A program state is a parallel composition of processes: threads of
    computation [⟨M⟩t] (runnable [○] or stuck [⊗]), finished threads [⊙t],
    empty MVars [⟨⟩m], full MVars [⟨M⟩m], and in-flight asynchronous
    exceptions [⟦t ⇐ e⟧] (Figure 5). Restriction [νx.P] is represented by
    the fresh-name counters: every name in the state is implicitly
    restricted, and structural congruence (Figure 3) is handled by keeping
    the composition in a canonical collection form (associativity and
    commutativity are free) together with {!canonical_key} (α-renaming of
    names, scope extrusion).

    The standard input and output streams record the environment side of
    the labelled transitions [?c] and [!c]. *)

open Ch_lang

type status =
  | Runnable  (** [○] *)
  | Stuck_thread  (** [⊗] — may be interrupted in any context (Fig 5) *)

type finished =
  | Done of Term.term  (** finished via [(Return GC)], value recorded *)
  | Threw of Term.exn_name  (** finished via [(Throw GC)] *)

type thread =
  | Active of Term.term * status
  | Finished of finished  (** [⊙t] *)

type inflight = { target : Term.tid; exn : Term.exn_name }
(** [⟦t ⇐ e⟧]: an exception thrown to [t] but not yet received. *)

type t = {
  threads : (Term.tid * thread) list;  (** in thread-creation order *)
  mvars : (Term.mvar_name * Term.term option) list;
      (** [None] is [⟨⟩m], [Some v] is [⟨v⟩m] *)
  inflight : (int * inflight) list;  (** keyed for transition identity *)
  input : char list;
  output : char list;  (** reversed: most recent first *)
  next_tid : int;
  next_mvar : int;
  next_inflight : int;
  main : Term.tid;
}

val initial : ?input:string -> Term.term -> t
(** [initial m] is the state [⟨m⟩main] with no MVars and the given standard
    input. *)

val main_result : t -> finished option
(** The main thread's outcome, if it has finished. *)

val output_string : t -> string
(** Characters written so far, oldest first. *)

val thread : t -> Term.tid -> thread option
val mvar : t -> Term.mvar_name -> Term.term option option
val set_thread : t -> Term.tid -> thread -> t
val set_mvar : t -> Term.mvar_name -> Term.term option -> t

val canonical_key : t -> string
(** A string determining the state up to structural congruence (Figure 3)
    and α-equivalence: thread and MVar names are renumbered by first
    occurrence, bound variables are printed as de-Bruijn levels, and
    in-flight exceptions whose target has finished are dropped (they are
    inert: no rule can ever consume them). Two states with equal keys are
    behaviourally identical.

    The key is rendered in one pass, and a name is numbered when the key
    first mentions it: each thread's name and then its term, in thread
    order; then each MVar's name and then its contents, in MVar order;
    then the live in-flight exceptions' targets (already numbered, since
    each is a thread). Within a term, names are met left to right in
    constructor-argument order.

    The key ends with ["I:"], the remaining input, [";O:"] and the output
    written so far. In the input, [';'] and ['\\'] are escaped with a
    ['\\'], so the first unescaped [';'] ends it: no two ways of
    splitting a stream between input and output share a key. The output
    is last and is not escaped. *)

(** Fingerprints: a state's key hashed to 126 bits. *)
module Fingerprint : sig
  type t

  val equal : t -> t -> bool

  module Table : Hashtbl.S with type key = t
end

val fingerprint : budget:int -> t -> Fingerprint.t
(** [fingerprint ~budget st] hashes the bytes of [string_of_int budget],
    a ['|'] and {!canonical_key}[ st] to two 63-bit lanes, without
    building the key string: it renders into the same domain-local
    scratch as {!canonical_key}, and allocates only the 3-word result.
    The budget comes first so the explorer can key (state, kill budget)
    pairs; a search without kills passes [0].

    Equal keys under equal budgets give equal fingerprints. The converse
    holds up to a collision of the hash, which is deterministic (the
    same bytes give the same fingerprint in every run, on every domain)
    but not cryptographic: states differ in the fingerprint unless their
    renderings collide in both lanes. *)

val pp : Format.formatter -> t -> unit
(** Render the state in the paper's notation, e.g.
    [⟨takeMVar %m0⟩t0/○ | ⟨⟩m0 | ⟦t0 ⇐ KillThread⟧]. *)
