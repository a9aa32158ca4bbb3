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
        Alcotest.(check (pair int int))
          "states, edges" (92157, 401237) (r.Space.visited, r.Space.edges);
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

(* C15: §5.2's "no matter where the exception lands", with the
   environment as the adversary. [Space.explore ~kills] may throwTo
   KillThread at any active thread, at any point the program can still
   step, on every schedule; the kill is delivered by (Receive) or
   (Interrupt). Under the rules' defaults, as a program runs from the
   command line. *)
let explore_killing ?(kills = 1) ?watch init = Space.explore ~kills ?watch init

(* The §5.2 lock protocols, with no throwTo of their own: the adversary
   supplies the kill. The block-protected form, and the catch-only form
   whose lock a kill can lose. *)
let protected_lock =
  parse
    "do { m <- newEmptyMVar; putMVar m 0; t <- forkIO (block (do { a <- \
     takeMVar m; b <- catch (unblock (return (a + 1))) (\\e -> do { \
     putMVar m a; throw e }); putMVar m b })); takeMVar m }"

let catch_only_lock =
  parse
    "do { m <- newEmptyMVar; putMVar m 0; t <- forkIO (do { a <- takeMVar \
     m; b <- catch (return (a + 1)) (\\e -> do { putMVar m a; throw e }); \
     putMVar m b }); takeMVar m }"

let killed = Space.Completed (State.Threw "KillThread")

let c15_tests =
  [
    case "sequential corpus programs die of a kill but never deadlock"
      (fun () ->
        List.iter
          (fun name ->
            let ks = kinds (explore_killing (List.assoc name kill_corpus)) in
            Alcotest.(check bool) (name ^ ": killed") true (List.mem killed ks);
            Alcotest.(check bool) (name ^ ": no deadlock") false
              (has_deadlock ks))
          [ "hello"; "echo"; "counter-loop" ]);
    case "ping-pong deadlocks when a peer is killed: main waits on takeMVar"
      (fun () ->
        let init = List.assoc "ping-pong" kill_corpus in
        let r = explore_killing init in
        List.iter
          (fun (t : Space.terminal) ->
            if t.Space.kind = Space.Deadlock then
              match
                List.rev (Space.witness init t.Space.path)
              with
              | last :: _ -> (
                  match Step.blocked_reasons last.Step.next with
                  | [ (0, "takeMVar", Some _) ] -> ()
                  | _ -> Alcotest.fail "a deadlock with main not on takeMVar")
              | [] -> Alcotest.fail "empty witness")
          r.Space.terminals;
        Alcotest.(check bool) "deadlock reachable" true
          (has_deadlock (kinds r)));
    case "the §5.2-protected lock survives 2 kills; catch-only dies of 1"
      (fun () ->
        let r = explore_killing ~kills:2 (State.initial protected_lock) in
        Alcotest.(check bool) "complete exploration" false r.Space.truncated;
        Alcotest.(check bool) "protected: no deadlock" false
          (has_deadlock (kinds r));
        let r = explore_killing (State.initial catch_only_lock) in
        Alcotest.(check bool) "catch-only: deadlock" true
          (has_deadlock (kinds r)));
    case "a kill lands as a real in-flight exception" (fun () ->
        let init = State.initial (parse "do { sleep 1; sleep 1; return 0 }") in
        let r = explore_killing init in
        let t = List.find (fun t -> t.Space.kind = killed) r.Space.terminals in
        let rec delivered = function
          | Step.R_kill :: rest ->
              List.exists
                (fun rule -> rule = Step.R_receive || rule = Step.R_interrupt)
                rest
          | _ :: rest -> delivered rest
          | [] -> false
        in
        Alcotest.(check bool) "(Kill), then (Receive) or (Interrupt)" true
          (delivered
             (List.map
                (fun (tr : Step.transition) -> tr.Step.rule)
                (Space.witness init t.Space.path))));
    case "a kill strands a worker: main returns while it waits" (fun () ->
        (* the sweep's stranded wedge: main, killed in its sleep, skips
           the put its worker waits for, and still returns *)
        let init =
          State.initial
            (parse
               "do { m <- newEmptyMVar; t <- forkIO (takeMVar m); catch (do \
                { sleep 1; putMVar m 0 }) (\\e -> return ()); return 0 }")
        in
        let watch st = Space.stranded st in
        Alcotest.(check int) "none without a kill" 0
          (List.length (Space.explore ~watch init).Space.watch_hits);
        let r = explore_killing ~watch init in
        Alcotest.(check bool) "stranded under 1 kill" true
          (r.Space.watch_hits <> []);
        (* (Proc GC) reaps the worker, so no terminal shows it *)
        Alcotest.(check bool) "no deadlock terminal" false
          (has_deadlock (kinds r));
        List.iter
          (fun (t : Space.terminal) ->
            Alcotest.(check bool) "its witness holds a (Kill)" true
              (List.exists
                 (fun (tr : Step.transition) -> tr.Step.rule = Step.R_kill)
                 (Space.witness init t.Space.path)))
          r.Space.watch_hits);
    case "the adversary's verdicts per corpus program are pinned" (fun () ->
        (* mask-interrupt's cycle is its masked spin loop, live until the
           exception arrives in the unblock window *)
        let row name kills =
          let r = explore_killing ~kills (List.assoc name kill_corpus) in
          Fmt.str "%s k%d: %d states, %d edges, %a%s" name kills
            r.Space.visited r.Space.edges
            Fmt.(list ~sep:(any " ") Space.pp_terminal_kind)
            (kinds r)
            (if r.Space.has_cycle then ", cycle" else "")
        in
        Alcotest.(check (list string))
          "states, edges, terminal kinds, cycle"
          [
            "hello k0: 10 states, 11 edges, completed(())";
            "hello k1: 30 states, 47 edges, completed(()) uncaught(#KillThread)";
            "hello k2: 57 states, 113 edges, completed(()) uncaught(#KillThread)";
            "echo k0: 18 states, 21 edges, completed(())";
            "echo k1: 54 states, 89 edges, completed(()) uncaught(#KillThread)";
            "echo k2: 103 states, 213 edges, completed(()) uncaught(#KillThread)";
            "ping-pong k0: 213 states, 381 edges, completed(6)";
            "ping-pong k1: 1027 states, 2640 edges, deadlock completed(6) \
             uncaught(#KillThread)";
            "ping-pong k2: 2836 states, 9254 edges, deadlock completed(6) \
             uncaught(#KillThread)";
            "producer-consumer k0: 89 states, 147 edges, completed(6)";
            "producer-consumer k1: 434 states, 1045 edges, deadlock \
             completed(6) uncaught(#KillThread)";
            "producer-consumer k2: 1199 states, 3706 edges, deadlock \
             completed(6) uncaught(#KillThread)";
            "kill-sleeping k0: 38 states, 81 edges, completed(())";
            "kill-sleeping k1: 165 states, 464 edges, completed(()) \
             uncaught(#KillThread)";
            "kill-sleeping k2: 417 states, 1453 edges, completed(()) \
             uncaught(#KillThread)";
            "mask-interrupt k0: 73 states, 126 edges, completed(Caught), cycle";
            "mask-interrupt k1: 369 states, 882 edges, deadlock \
             completed(Caught) uncaught(#KillThread), cycle";
            "mask-interrupt k2: 1017 states, 3078 edges, deadlock \
             completed(Caught) uncaught(#KillThread), cycle";
            "counter-loop k0: 31 states, 30 edges, completed(0)";
            "counter-loop k1: 87 states, 142 edges, completed(0) \
             uncaught(#KillThread)";
            "counter-loop k2: 162 states, 340 edges, completed(0) \
             uncaught(#KillThread)";
          ]
          (List.concat_map
             (fun (name, _) -> List.map (row name) [ 0; 1; 2 ])
             kill_corpus));
    case "blocked_reasons classifies takeMVar/putMVar/getChar waits"
      (fun () ->
        let r =
          Sched.run Sched.Round_robin
            (State.initial
               (parse
                  "do { m <- newEmptyMVar; f <- newEmptyMVar; putMVar f 1; \
                   t <- forkIO (do { putMVar f 2; return 0 }); u <- forkIO \
                   getChar; takeMVar m }"))
        in
        Alcotest.check
          (Alcotest.list
             (Alcotest.triple Alcotest.int Alcotest.string
                (Alcotest.option Alcotest.int)))
          "wait graph"
          [ (0, "takeMVar", Some 0); (1, "putMVar", Some 1);
            (2, "getChar", None) ]
          (Step.blocked_reasons r.Sched.final));
  ]

(* The explorer's allocation, on C4d. An edge pays for its successor
   state, the successor's fingerprint and the search's bookkeeping; the
   bounds sit a little above that, so a per-key scratch buffer, closure
   set or key string, or a second successor build per transition, coming
   back fails. *)
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
let check_witnesses ?kills ?watch program =
  List.iter
    (fun jobs ->
      let r = explore ?kills ?watch ~jobs program in
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
    slow_case "C4d's search: <= 170 minor words per edge" (fun () ->
        ignore (explore timeout_instant);
        let before = Gc.minor_words () in
        let r = explore timeout_instant in
        let per_edge =
          (Gc.minor_words () -. before) /. float_of_int r.Space.edges
        in
        if per_edge > 170. then
          Alcotest.failf "%.1f minor words per edge, bound 170" per_edge);
    slow_case "C4d's search promotes <= 60 words per state (75 on 2 domains)"
      (fun () ->
        (* An expanded state is dropped, and a successor already visited
           dies young: what survives a minor collection is the
           fingerprint table, the frontier, the slice being expanded and
           the id-indexed tables. Keeping every visited state alive
           (through witness transitions) or a whole level's successors
           promoted ~195-207 words per state at both [jobs] values, and
           keying the table on key strings ~72 on 1 domain. On 2 domains
           a minor collection empties both minor heaps, so states are
           promoted younger: 43-55 words per state, against 39-43 on 1. *)
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
          [ (1, 60.); (2, 75.) ]);
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
          (Ch_corpus.Locking.harness Ch_corpus.Locking.catch_only);
        (* paths through the adversary's kills, indexed past enumerate *)
        check_witnesses ~kills:1
          ~watch:(fun st -> st.State.inflight <> [])
          catch_only_lock);
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
    slow_case "a fingerprint allocates <= 4 words" (fun () ->
        let states = c4d_states () in
        (* the first calls size the domain's scratch state; then a call
           allocates its 3-word result and nothing else *)
        Array.iter (fun st -> ignore (State.fingerprint ~budget:0 st)) states;
        Array.iter
          (fun st ->
            let before = Gc.minor_words () in
            ignore (Sys.opaque_identity (State.fingerprint ~budget:2 st));
            let words = Gc.minor_words () -. before in
            if words > 4. then Alcotest.failf "%.0f words for a fingerprint" words)
          states);
    slow_case "keys rendered on 2 domains equal the sequential keys"
      (fun () ->
        let states = c4d_states () in
        let sequential = Array.map State.canonical_key states in
        let fingerprint = State.fingerprint ~budget:0 in
        let fingerprints = Array.map fingerprint states in
        Par.with_pool ~jobs:2 (fun pool ->
            (* a buffer the two domains shared would garble some key in
               most rounds *)
            for round = 1 to 5 do
              Alcotest.(check (array string))
                (Printf.sprintf "round %d" round)
                sequential
                (Par.Pool.map pool State.canonical_key states);
              Alcotest.(check bool)
                (Printf.sprintf "round %d: fingerprints" round)
                true
                (Array.for_all2 State.Fingerprint.equal fingerprints
                   (Par.Pool.map pool fingerprint states))
            done));
  ]

let suites =
  [
    ("claims:C1-races-exist", c1_tests);
    ("claims:C2-block-safe", c2_tests);
    ("claims:C3-interruptible", c3_tests);
    ("claims:C4-combinators", c4_tests);
    ("claims:C15-kill-adversary", c15_tests);
    ("explore:alloc", alloc_tests);
  ]
