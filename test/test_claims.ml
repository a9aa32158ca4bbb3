(* The paper's claims (C1–C4 of DESIGN.md), verified by exhaustive
   exploration of the formal semantics: every possible delivery point of
   every asynchronous exception is covered. *)

open Ch_semantics
open Ch_explore
open Ch_lang.Term
open Helpers

let kinds_of program = kinds (explore program)

let has_deadlock ks = List.mem Space.Deadlock ks
let only_completions ks =
  List.for_all (function Space.Completed _ -> true | _ -> false) ks

(* C1: the §5.1 protocols have schedules that lose the lock. *)
let c1_tests =
  [
    slow_case "C1a: unprotected update loses the lock on some schedule"
      (fun () ->
        let ks = kinds_of (Ch_corpus.Locking.harness Ch_corpus.Locking.unprotected) in
        Alcotest.(check bool) "deadlock reachable" true (has_deadlock ks));
    slow_case "C1b: catch alone still loses the lock (race windows around it)"
      (fun () ->
        let ks = kinds_of (Ch_corpus.Locking.harness Ch_corpus.Locking.catch_only) in
        Alcotest.(check bool) "deadlock reachable" true (has_deadlock ks));
    slow_case "C1c: the lost-lock state itself is reachable" (fun () ->
        let program = Ch_corpus.Locking.harness Ch_corpus.Locking.catch_only in
        let watch (st : State.t) =
          match (State.thread st 1, State.mvar st 0) with
          | Some (State.Finished (State.Threw _)), Some None -> true
          | _ -> false
        in
        let r = explore ~watch program in
        Alcotest.(check bool) "witness exists" true (r.Space.watch_hits <> []));
  ]

(* C2: the §5.2 block-protected protocol never loses the lock. *)
let c2_tests =
  [
    slow_case "C2a: block-protected update never deadlocks" (fun () ->
        let ks =
          kinds_of (Ch_corpus.Locking.harness Ch_corpus.Locking.block_protected)
        in
        Alcotest.(check bool) "no deadlock" true (only_completions ks));
    slow_case "C2b: fully-blocked variant (no unblock window) is also safe"
      (fun () ->
        let ks =
          kinds_of (Ch_corpus.Locking.harness Ch_corpus.Locking.blocked_compute)
        in
        Alcotest.(check bool) "no deadlock" true (only_completions ks));
    slow_case "C2c: protected protocol completes with 0 or 1 only" (fun () ->
        let ks =
          kinds_of (Ch_corpus.Locking.harness Ch_corpus.Locking.block_protected)
        in
        List.iter
          (fun k ->
            match k with
            | Space.Completed (State.Done (Lit_int (0 | 1))) -> ()
            | k ->
                Alcotest.failf "unexpected terminal %a" Space.pp_terminal_kind k)
          ks);
  ]

(* C3: interruptibility — takeMVar inside block can be interrupted exactly
   while the MVar is empty (§5.3). *)
let c3_tests =
  [
    slow_case "C3a: blocked takeMVar inside block is interruptible" (fun () ->
        (* worker waits forever on an empty MVar inside block; main kills
           it; the program can always finish *)
        let program =
          parse
            {|do {
                m <- newEmptyMVar;
                t <- forkIO (block (takeMVar m >>= \x -> return ()));
                throwTo t #KillThread;
                return 1
              }|}
        in
        let ks = kinds_of program in
        Alcotest.(check (list kind_testable)) "finishes" [ completed_int 1 ] ks);
    slow_case
      "C3b: takeMVar of an available MVar inside block is NOT interruptible"
      (fun () ->
        (* the mvar is already full; the masked worker must always win the
           take and put back before any exception can land *)
        let program =
          parse
            {|do {
                m <- newEmptyMVar;
                putMVar m 7;
                t <- forkIO (block (takeMVar m >>= \x -> putMVar m x));
                throwTo t #KillThread;
                takeMVar m
              }|}
        in
        let ks = kinds_of program in
        Alcotest.(check (list kind_testable)) "always 7" [ completed_int 7 ] ks);
    slow_case
      "C3c: putMVar to a guaranteed-empty MVar in a handler is safe (§5.3)"
      (fun () ->
        (* This is the paper's subtle point: the handler's putMVar is
           non-interruptible because the MVar is known empty, so the
           restore cannot itself be interrupted. Exhausting schedules with
           TWO exceptions thrown at the worker. *)
        let program =
          parse
            {|do {
                m <- newEmptyMVar;
                putMVar m 0;
                t <- forkIO (block (do {
                  a <- takeMVar m;
                  b <- catch (unblock (return (a + 1)))
                             (\e -> do { putMVar m a; throw e });
                  putMVar m b
                }));
                throwTo t #KillThread;
                throwTo t #KillThread;
                takeMVar m
              }|}
        in
        let ks = kinds_of program in
        Alcotest.(check bool) "never deadlocks" true (only_completions ks));
  ]

(* §7.4: a thread killed once it is inside its [block]; [body] runs
   there, and [go] is filled by the killer after its throwTo. The
   thread catches the kill, still masked, so the killer can wait for it:
   a program ends with its main thread. *)
let killed_in_block body =
  Let
    ( "safePoint",
      Ch_corpus.Combinators.safe_point_t,
      parse
        (Printf.sprintf
           {|do {
               ready <- newEmptyMVar;
               go <- newEmptyMVar;
               done <- newEmptyMVar;
               t <- forkIO (block (do {
                      catch (do { putMVar ready (); %s }) (\e -> return ());
                      putMVar done ()
                    }));
               takeMVar ready;
               throwTo t #KillThread;
               putMVar go ();
               takeMVar done
             }|}
           body) )

let outputs r =
  List.sort_uniq compare
    (List.map (fun t -> State.output_string t.Space.state) r.Space.terminals)

(* C4: the §7 combinators, model-checked at the term level. *)
let c4_tests =
  [
    slow_case "C4a: either returns the first result and kills the loser"
      (fun () ->
        let program =
          apps Ch_corpus.Combinators.either_t
            [ parse "return 1"; parse "return 2" ]
        in
        let r = explore program in
        List.iter
          (fun k ->
            match k with
            | Space.Completed (State.Done (Con (("Left" | "Right"), [ Lit_int (1 | 2) ]))) -> ()
            | k -> Alcotest.failf "unexpected %a" Space.pp_terminal_kind k)
          (kinds r));
    slow_case "C4b: either rethrows a child's exception" (fun () ->
        let program =
          apps Ch_corpus.Combinators.either_t
            [ parse "throw #Boom";
              parse "newEmptyMVar >>= \\m -> takeMVar m" ]
        in
        let ks = kinds (explore program) in
        Alcotest.(check bool) "Boom escapes on some schedule" true
          (List.mem (Space.Completed (State.Threw "Boom")) ks);
        Alcotest.(check bool) "no deadlock" true
          (not (has_deadlock ks)));
    slow_case "C4g: both pairs the results under all schedules" (fun () ->
        let program =
          Bind
            ( apps Ch_corpus.Combinators.both_t
                [ parse "return 1"; parse "return 2" ],
              parse "\\r -> case r of { p -> return p }" )
        in
        let ks = kinds_of program in
        List.iter
          (fun k ->
            match k with
            | Space.Completed
                (State.Done (Con ("(,)", [ Lit_int 1; Lit_int 2 ]))) ->
                ()
            | k -> Alcotest.failf "unexpected %a" Space.pp_terminal_kind k)
          ks);
    slow_case "C4h: both kills the sibling when one side throws" (fun () ->
        let program =
          apps Ch_corpus.Combinators.both_t
            [ parse "throw #Boom";
              parse "newEmptyMVar >>= \\m -> takeMVar m" ]
        in
        let ks = kinds_of program in
        Alcotest.(check bool) "no deadlock" true (not (has_deadlock ks));
        Alcotest.(check bool) "Boom escapes" true
          (List.mem (Space.Completed (State.Threw "Boom")) ks));
    slow_case "C4c: finally runs the cleanup on both paths" (fun () ->
        (* cleanup writes to an MVar; body may throw *)
        let program =
          Let
            ( "finally",
              Ch_corpus.Combinators.finally_t,
              parse
                {|do {
                    m <- newEmptyMVar;
                    catch (finally (throw #Boom) (putMVar m 1))
                          (\e -> return ());
                    takeMVar m
                  }|} )
        in
        Alcotest.(check (list kind_testable)) "cleanup ran" [ completed_int 1 ]
          (kinds_of program));
    slow_case
      "C4i: finally's block is necessary — the unmasked variant loses its \
       cleanup under a double kill"
      (fun () ->
        (* the worker signals that the protected body has started (cleanup
           is only owed from then on), and main throws twice. With the
           paper's finally, the cleanup (inside block) always completes;
           without the block, the second kill can land after the handler
           fires but before the cleanup, and main's takeMVar deadlocks. *)
        let scenario combinator =
          Let
            ( "finally",
              combinator,
              parse
                {|do {
                    started <- newEmptyMVar;
                    done_ <- newEmptyMVar;
                    t <- forkIO (finally (do { putMVar started (); sleep 5 })
                                         (putMVar done_ 1));
                    takeMVar started;
                    throwTo t #KillThread;
                    throwTo t #KillThread;
                    takeMVar done_
                  }|} )
        in
        let ks_good = kinds_of (scenario Ch_corpus.Combinators.finally_t) in
        Alcotest.(check (list kind_testable)) "paper's finally: cleanup always"
          [ completed_int 1 ] ks_good;
        let ks_bad =
          kinds_of (scenario Ch_corpus.Combinators.finally_unmasked_t)
        in
        Alcotest.(check bool) "unmasked variant can lose the cleanup" true
          (has_deadlock ks_bad));
    slow_case "C4d: timeout of an instant action is Just under all schedules"
      (fun () ->
        let ks = kinds_of timeout_instant in
        (* Both outcomes are legitimate: the semantics' clock is fully
           nondeterministic, so the sleep may always beat the action. What
           must NOT happen is deadlock or a leaked Timeout exception. *)
        List.iter
          (fun k ->
            match k with
            | Space.Completed (State.Done (Lit_int (5 | 0))) -> ()
            | k -> Alcotest.failf "unexpected %a" Space.pp_terminal_kind k)
          ks);
    slow_case "C4d's search visits the same keys in the same order" (fun () ->
        (* The digest of every visited state's canonical key, in BFS
           order: any change to the key bytes, the dedup or the visit
           order of this search shows up here. *)
        let keys = Buffer.create (1 lsl 20) in
        let watch st =
          Buffer.add_string keys (State.canonical_key st);
          Buffer.add_char keys '\n';
          false
        in
        let r = explore ~watch timeout_instant in
        Alcotest.(check (pair int int))
          "states, edges" (4638, 13774) (r.Space.visited, r.Space.edges);
        Alcotest.(check string)
          "key digest" "ce267c1f7351b81a00573ca012f2dcee"
          (Digest.to_hex (Digest.string (Buffer.contents keys))));
    slow_case
      "C4f: either survives an external kill on every schedule (92k states)"
      (fun () ->
        (* The subtle point this certifies: rule (Receive) could discard a
           result just taken from the collection MVar — losing it and
           deadlocking the loop — but either's [block] keeps the loop's
           takeMVar masked, so only (Interrupt)-while-stuck can fire, and
           no value is ever consumed-then-discarded. *)
        let program =
          Let
            ( "either",
              Ch_corpus.Combinators.either_t,
              parse
                {|do {
                    p <- forkIO (either (return 1) (return 2) >>= \r -> return ());
                    throwTo p #KillThread;
                    return 0
                  }|} )
        in
        let r = explore ~max_states:400_000 program in
        Alcotest.(check bool) "complete exploration" false r.Space.truncated;
        Alcotest.(check (list kind_testable)) "only completion"
          [ completed_int 0 ] (kinds r));
    slow_case "C4e: bracket releases under an adversary exception" (fun () ->
        let program =
          Let
            ( "bracket",
              Ch_corpus.Combinators.bracket_t,
              parse
                {|do {
                    m <- newEmptyMVar;
                    putMVar m 1;
                    t <- forkIO (bracket (takeMVar m)
                                         (\a -> return a)
                                         (\a -> putMVar m a));
                    throwTo t #KillThread;
                    takeMVar m
                  }|} )
        in
        Alcotest.(check (list kind_testable)) "resource restored"
          [ completed_int 1 ] (kinds_of program));
    slow_case
      "C4j: §7.4 a blocked thread takes a kill only at its safePoint or \
       an interruptible take" (fun () ->
        (* Output "a" is the kill delivered at the safePoint, "ab" at
           the take while [go] is still empty, "abc" not delivered in
           the block: it may arrive at no other point. *)
        let r =
          explore
            (killed_in_block
               "putChar 'a'; safePoint; putChar 'b'; x <- takeMVar go; putChar 'c'")
        in
        Alcotest.(check (list kind_testable)) "completes"
          [ Space.Completed (State.Done unit_v) ] (kinds r);
        Alcotest.(check (list string)) "kill points" [ "a"; "ab"; "abc" ]
          (outputs r);
        (* without the safePoint, nothing between the two putChars
           accepts the exception *)
        let r =
          explore
            (killed_in_block
               "putChar 'a'; putChar 'b'; x <- takeMVar go; putChar 'c'")
        in
        Alcotest.(check (list string)) "no safePoint" [ "ab"; "abc" ]
          (outputs r));
  ]

(* The explorer's allocation, on C4d. An edge pays for its successor
   state, the successor's key string and the search's bookkeeping; the
   bounds sit a little above that, so a per-key scratch buffer or closure
   set, or a second successor build per transition, coming back fails. *)
let c4d_states () =
  let states = ref [] in
  let watch st =
    states := st :: !states;
    false
  in
  ignore (explore ~watch timeout_instant);
  Array.of_list (List.rev !states)

(* Every terminal's and watch hit's index path, replayed, reaches a
   state with that terminal's key. *)
let check_witnesses ?watch program =
  List.iter
    (fun jobs ->
      let r = explore ?watch ~jobs program in
      List.iter
        (fun (t : Space.terminal) ->
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d: replay reaches the state" jobs)
            (State.canonical_key t.Space.state)
            (State.canonical_key (witness_end program t.Space.path)))
        (r.Space.terminals @ r.Space.watch_hits);
      if watch <> None && r.Space.watch_hits = [] then
        Alcotest.fail "the watch predicate never held")
    [ 1; 2 ]

let alloc_tests =
  [
    slow_case "C4d's search: <= 200 minor words per edge" (fun () ->
        ignore (explore timeout_instant);
        let before = Gc.minor_words () in
        let r = explore timeout_instant in
        let per_edge =
          (Gc.minor_words () -. before) /. float_of_int r.Space.edges
        in
        if per_edge > 200. then
          Alcotest.failf "%.1f minor words per edge, bound 200" per_edge);
    slow_case "C4d's search promotes <= 120 words per state (150 on 2 domains)"
      (fun () ->
        (* An expanded state is dropped, and a successor already visited
           dies young: what survives a minor collection is the key
           table, the frontier, the slice being expanded and the
           id-indexed tables. Keeping every visited state alive (through
           witness transitions) or a whole level's successors promoted
           ~195-207 words per state at both [jobs] values. On 2 domains a
           minor collection empties both minor heaps, so states are
           promoted younger: 80-111 words per state, against ~72 on 1. *)
        List.iter
          (fun (jobs, bound) ->
            ignore (explore ~jobs timeout_instant);
            Gc.minor ();
            (* [quick_stat] counts the pool's domains too *)
            let before = (Gc.quick_stat ()).Gc.promoted_words in
            let r = explore ~jobs timeout_instant in
            let after = (Gc.quick_stat ()).Gc.promoted_words in
            let per_state = (after -. before) /. float_of_int r.Space.visited in
            if per_state > bound then
              Alcotest.failf "jobs=%d: %.1f promoted words per state, bound %.0f"
                jobs per_state bound)
          [ (1, 120.); (2, 150.) ]);
    slow_case "witness paths replay to their terminals and watch hits"
      (fun () ->
        check_witnesses
          ~watch:(fun st -> List.length st.State.threads >= 3)
          timeout_instant;
        (* the catch-only lock: a deadlock, and the lost-lock states *)
        check_witnesses
          ~watch:(fun st ->
            match (State.thread st 1, State.mvar st 0) with
            | Some (State.Finished _), Some None -> true
            | _ -> false)
          (Ch_corpus.Locking.harness Ch_corpus.Locking.catch_only));
    slow_case "canonical_key allocates its key and <= 4 words more" (fun () ->
        let states = c4d_states () in
        (* the first calls size the domain's scratch state *)
        Array.iter (fun st -> ignore (State.canonical_key st)) states;
        Array.iter
          (fun st ->
            let before = Gc.minor_words () in
            let key = State.canonical_key st in
            let words = Gc.minor_words () -. before in
            (* a header word, then the bytes and at least one pad byte *)
            let key_words = 1 + (String.length key / (Sys.word_size / 8)) + 1 in
            if words > float_of_int (key_words + 4) then
              Alcotest.failf "%.0f words for a %d-byte key" words
                (String.length key))
          states);
    slow_case "keys rendered on 2 domains equal the sequential keys"
      (fun () ->
        let states = c4d_states () in
        let sequential = Array.map State.canonical_key states in
        Par.with_pool ~jobs:2 (fun pool ->
            (* a buffer the two domains shared would garble some key in
               most rounds *)
            for round = 1 to 5 do
              Alcotest.(check (array string))
                (Printf.sprintf "round %d" round)
                sequential
                (Par.Pool.map pool ~chunk:1 State.canonical_key states)
            done));
  ]

let suites =
  [
    ("claims:C1-races-exist", c1_tests);
    ("claims:C2-block-safe", c2_tests);
    ("claims:C3-interruptible", c3_tests);
    ("claims:C4-combinators", c4_tests);
    ("explore:alloc", alloc_tests);
  ]
