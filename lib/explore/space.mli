(** Exhaustive state-space exploration: the executable counterpart of the
    paper's semantics used to {e prove} its claims about races.

    The checker performs a breadth-first search over the quotient of program
    states by structural congruence and α-equivalence (via
    {!Ch_semantics.State.canonical_key}, stored as its
    {!Ch_semantics.State.fingerprint}), following {e every} transition of
    Figures 4 and 5 — in particular every possible delivery point of every
    asynchronous exception. A claim like "this locking protocol never loses
    the lock" (paper §5.1–5.2) is checked over all schedules, which no
    concrete run of a real runtime could establish. With a kill budget
    the search is also its own adversary, and decides §5.2's "no matter
    where the exception lands" over every schedule.

    {b Hash compaction.} The visited set holds each state's 126-bit
    {!State.fingerprint}, not its ~250-byte key: a table entry is 7
    words, not ~39 (Stern and Dill, "Improved probabilistic verification
    by hash compaction", CHARME 1995). A collision would merge two
    distinct states, and the search would not expand the second, so it
    could hide a terminal. If fingerprints behave as uniform random
    values, the chance that any two of [n] visited states collide is at
    most [n²/2¹²⁷]: about [6 × 10⁻²⁷] at a million states. The hash is two
    multiply–xorshift lanes over the rendering, eight bytes at a time,
    not [Digest]. MD5 (the only digest in OCaml 5.1's stdlib) over the
    same rendering slowed perfbench's [explore_timeout] (one search of
    C4d's 4,638 states per op, 2-vCPU VM) from a 29–33 ms median op to
    45–48 ms, in 3 of 3 alternating pairs against the key-string table;
    the word-at-a-time hash makes that search faster, not slower. *)

open Ch_semantics

type terminal_kind =
  | Completed of State.finished  (** only the main thread remains, finished *)
  | Deadlock  (** active threads remain, all waiting on resources *)
  | Divergent  (** a thread's redex exhausted the inner semantics' fuel *)
  | Wedged of string  (** an ill-typed evaluation site was reached *)

type terminal = {
  state : State.t;
  kind : terminal_kind;
  path : int list;
      (** a witness path from the initial state, as indices: the [k]-th
          element picks a transition from the {!Step.enumerate} list of
          the state the path has reached so far, or, past its end, one of
          the adversary's {!Step.kills} of that state. {!witness} replays
          it. *)
}

type result = {
  visited : int;  (** distinct states (mod congruence) explored *)
  edges : int;  (** transitions followed *)
  terminals : terminal list;
  truncated : bool;  (** hit [max_states]: results are a lower bound *)
  watch_hits : terminal list;
      (** states satisfying the [watch] predicate, with witness paths *)
  has_cycle : bool;
      (** some transition re-enters an already-visited state: the program
          has infinite executions (e.g. a spinning thread), which produce
          no terminal — consumers like {!Equiv} must account for them *)
}

val explore :
  ?config:Step.config ->
  ?max_states:int ->
  ?jobs:int ->
  ?kills:int ->
  ?watch:(State.t -> bool) ->
  State.t ->
  result
(** Breadth-first exploration from the initial state (default [max_states]
    is [200_000]). [watch] collects non-terminal witness states, e.g. "the
    thread died while the MVar is empty".

    [kills] (default 0) is the adversary's budget. A state with budget
    left whose {!Step.enumerate} list is not empty has, after that list,
    the {!Step.kills} transitions — one (Kill) per [Active] thread, each
    appending [⟦t ⇐ KillThread⟧] and spending one unit — delivered later
    by the ordinary (Receive)/(Interrupt) rules. A state the program
    cannot leave stays terminal, so a deadlock is never killed away. The
    remaining budget is part of the fingerprint, so [visited] counts
    (state, budget) pairs and a state can be a terminal once per budget.
    A thread a kill leaves waiting after main has returned is reaped by
    (Proc GC) on the way to a [Completed] terminal: {!stranded} as the
    [watch] finds it.
    At [kills = 0] the search is the plain one, key for key.

    The search holds only the visited fingerprints, id-indexed integer
    tables, its frontier and the slice being expanded: a merged state is dropped
    unless it is a terminal or a watch hit. The frontier is taken in
    slices; a slice is expanded and merged into the visited set before
    the next is taken, and no BFS level is buffered. [jobs] (default 1) expands each slice across
    that many domains: every state's transitions and successor
    fingerprints are computed in parallel (the pure, expensive part), and the
    merge runs sequentially in frontier order — so ids, witness paths,
    terminal order, watch hits and truncation are byte-identical to the
    sequential search for every [jobs] value. *)

val witness :
  ?config:Step.config -> State.t -> int list -> Step.transition list
(** [witness ~config init path] replays an index path of
    [explore ~config ?kills init] (a {!terminal}'s [path]) through
    {!Step.enumerate} and the adversary's {!Step.kills}, and returns the
    transitions it takes; the last one's [next] is the terminal's state.
    Enumeration is pure and freshness depends only on the state, so the
    replay rebuilds the transitions the search followed, whatever its
    kill budget: an index past a state's {!Step.enumerate} list is a
    kill. [config] must be the search's.
    @raise Invalid_argument if [path] picks a transition [init]'s
    states do not have. *)

val stranded : State.t -> bool
(** Main has returned, other threads are still active, and the program's
    only move is (Proc GC), which reaps them: they wait on something no
    thread will provide. As [explore]'s [watch] under a kill budget, it
    finds the workers a kill strands while main completes; compare with
    [kills = 0], since a program can also leave a thread waiting by
    design (a lock main takes and keeps). The rules are those of
    {!Step.default_config}. *)

val terminal_kinds : result -> terminal_kind list
(** The distinct terminal kinds, deduplicated, for concise assertions. *)

val pp_terminal_kind : Format.formatter -> terminal_kind -> unit
