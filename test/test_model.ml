(* Tests for the exploration layer: schedulers, traces, and the
   state-space checker itself. *)

open Ch_semantics
open Ch_explore
open Ch_lang.Term
open Helpers

let quiet = { Step.default_config with Step.stuck_io = false }

let sched_tests =
  [
    case "round robin terminates hello" (fun () ->
        let r =
          Sched.run ~config:quiet Sched.Round_robin
            (State.initial Ch_corpus.Programs.hello)
        in
        Alcotest.(check bool) "terminated" true (r.Sched.outcome = Sched.Terminated);
        Alcotest.(check string) "output" "hi" (State.output_string r.Sched.final));
    case "ping pong returns 6 under round robin" (fun () ->
        let r =
          Sched.run ~config:quiet Sched.Round_robin
            (State.initial Ch_corpus.Programs.ping_pong)
        in
        match State.main_result r.Sched.final with
        | Some (State.Done v) -> (
            match Ch_pure.Eval.eval ~fuel:1000 v with
            | Ch_pure.Eval.Value (Lit_int 6) -> ()
            | _ -> Alcotest.fail "wrong value")
        | _ -> Alcotest.fail "main did not finish");
    case "producer/consumer returns 6 under many random seeds" (fun () ->
        for seed = 1 to 25 do
          let r =
            Sched.run ~config:quiet (Sched.Random seed)
              (State.initial Ch_corpus.Programs.producer_consumer)
          in
          match State.main_result r.Sched.final with
          | Some (State.Done v) -> (
              match Ch_pure.Eval.eval ~fuel:1000 v with
              | Ch_pure.Eval.Value (Lit_int 6) -> ()
              | _ -> Alcotest.failf "wrong value at seed %d" seed)
          | _ -> Alcotest.failf "did not finish at seed %d" seed
        done);
    case "first policy is deterministic" (fun () ->
        let run () =
          (Sched.run ~config:quiet Sched.First
             (State.initial Ch_corpus.Programs.producer_consumer))
            .Sched.steps
        in
        Alcotest.(check int) "same steps" (run ()) (run ()));
    case "max_steps bounds a divergent program" (fun () ->
        let program =
          Bind (Ch_corpus.Programs.diverge, Lam ("x", Return (Var "x")))
        in
        (* the redex itself diverges: no transition, so it terminates *)
        let r = Sched.run ~config:{ quiet with Step.fuel = 200 }
            Sched.Round_robin (State.initial program) in
        Alcotest.(check bool) "terminated (stalled)" true
          (r.Sched.outcome = Sched.Terminated));
    case "trace records rules in order" (fun () ->
        let r =
          Sched.run ~config:quiet Sched.Round_robin
            (State.initial (parse "return 1 >>= \\x -> return x"))
        in
        let rules = List.map (fun (t : Step.transition) -> t.Step.rule) r.Sched.trace in
        Alcotest.(check bool) "starts with Bind" true
          (match rules with Step.R_bind :: _ -> true | _ -> false));
  ]

let checker_tests =
  [
    case "terminal classification: completion" (fun () ->
        let r = explore (parse "return (40 + 2)") in
        Alcotest.(check (list kind_testable)) "completed" [ completed_int 42 ]
          (kinds r));
    case "terminal classification: uncaught exception" (fun () ->
        let r = explore (parse "throw #Boom") in
        Alcotest.(check (list kind_testable)) "uncaught"
          [ Space.Completed (State.Threw "Boom") ]
          (kinds r));
    case "terminal classification: deadlock" (fun () ->
        let r = explore (parse "newEmptyMVar >>= \\m -> takeMVar m") in
        Alcotest.(check (list kind_testable)) "deadlock" [ Space.Deadlock ]
          (kinds r));
    case "terminal classification: divergence" (fun () ->
        let program =
          Bind (Ch_corpus.Programs.diverge, Lam ("x", Return (Var "x")))
        in
        let r = explore ~fuel:200 program in
        Alcotest.(check (list kind_testable)) "divergent" [ Space.Divergent ]
          (kinds r));
    case "terminal classification: wedged" (fun () ->
        let r = explore (parse "3 >>= \\x -> return x") in
        match kinds r with
        | [ Space.Wedged _ ] -> ()
        | _ -> Alcotest.fail "expected wedged");
    case "exhaustiveness: sequential program has linear state space" (fun () ->
        let r = explore (parse "return 1 >>= \\x -> return (x + 1)") in
        Alcotest.(check bool) "small" true (r.Space.visited <= 8));
    case "getChar reads the configured input" (fun () ->
        let config = { quiet with Step.fuel = 1000 } in
        let r =
          Space.explore ~config
            (State.initial ~input:"z" (parse "getChar >>= \\c -> putChar c >>= \\u -> return c"))
        in
        List.iter
          (fun (t : Space.terminal) ->
            Alcotest.(check string) "echoed" "z"
              (State.output_string t.Space.state))
          r.Space.terminals);
    case "an echo loop deadlocks when its input ';O:' runs out" (fun () ->
        (* Once the loop has echoed ";O:", the state (input "", output
           ";O:") must not share a key with the initial state (input
           ";O:", output ""): that merge folded the deadlock into a
           cycle, and the search reported no terminal at all. *)
        let program =
          parse "fix (\\loop -> getChar >>= \\c -> putChar c >>= \\u -> loop)"
        in
        let r =
          Space.explore ~config:quiet (State.initial ~input:";O:" program)
        in
        Alcotest.(check (list kind_testable)) "deadlock" [ Space.Deadlock ]
          (kinds r);
        match r.Space.terminals with
        | [ t ] ->
            Alcotest.(check string) "echoed" ";O:"
              (State.output_string t.Space.state)
        | _ -> Alcotest.fail "expected one terminal");
    case "witness paths replay to their state" (fun () ->
        let program = Ch_corpus.Locking.harness Ch_corpus.Locking.unprotected in
        let r = explore program in
        let dead =
          List.find (fun t -> t.Space.kind = Space.Deadlock) r.Space.terminals
        in
        (* replay the index path from the initial state *)
        let final = witness_end program dead.Space.path in
        Alcotest.(check string) "replay reaches the terminal"
          (State.canonical_key dead.Space.state)
          (State.canonical_key final));
    case "watch predicate collects witnesses" (fun () ->
        let program = Ch_corpus.Locking.harness Ch_corpus.Locking.unprotected in
        let watch (st : State.t) =
          (* worker dead while the lock is empty *)
          match (State.thread st 1, State.mvar st 0) with
          | Some (State.Finished _), Some None -> true
          | _ -> false
        in
        let r = explore ~watch program in
        Alcotest.(check bool) "found a lock-lost witness" true
          (r.Space.watch_hits <> []));
    case "truncation reported on unbounded programs" (fun () ->
        (* a thread that forks forever: the state space is infinite *)
        let program =
          parse
            "let rec go = forkIO (sleep 1) >>= \\t -> go in go"
        in
        let config = { quiet with Step.fuel = 1000 } in
        let r = Space.explore ~config ~max_states:300 (State.initial program) in
        Alcotest.(check bool) "truncated" true r.Space.truncated);
  ]

let cycle_tests =
  [
    case "terminating programs have acyclic state graphs" (fun () ->
        let r = explore (parse "return 1 >>= \\x -> return (x + 1)") in
        Alcotest.(check bool) "no cycle" false r.Space.has_cycle);
    case "a spinning thread is reported as a cycle" (fun () ->
        (* main returns while a forked thread loops: some executions never
           terminate (the loop may be scheduled forever) *)
        let program =
          parse
            {|do { t <- forkIO (let rec go = sleep 1 >>= \u -> go in go);
                  sleep 1;
                  return 0 }|}
        in
        let r = explore program in
        Alcotest.(check bool) "cycle found" true r.Space.has_cycle);
    case "diamond interleavings alone are not cycles" (fun () ->
        (* two independent writers commute: the graph has joins (diamonds)
           but no back edges *)
        let program =
          parse
            {|do { m <- newEmptyMVar; n <- newEmptyMVar;
                  t <- forkIO (putMVar m 1);
                  u <- forkIO (putMVar n 2);
                  a <- takeMVar m; b <- takeMVar n; return (a + b) }|}
        in
        let r = explore program in
        Alcotest.(check bool) "acyclic" false r.Space.has_cycle);
    case "equivalence refuses cyclic programs (soundness)" (fun () ->
        let spinning =
          parse
            {|do { t <- forkIO (let rec go = sleep 1 >>= \u -> go in go);
                  return 0 }|}
        in
        Alcotest.(check bool) "not equivalent to itself (incomplete)" false
          (Equiv.equivalent ~config:quiet spinning spinning));
  ]

let dot_tests =
  [
    case "dot export renders a complete small graph" (fun () ->
        let program = parse "return 1 >>= \\x -> return (x + 1)" in
        let s = Dot.dot ~config:quiet (State.initial program) in
        Alcotest.(check bool) "digraph" true
          (String.length s > 20
          && String.sub s 0 11 = "digraph lts");
        (* linear program: one terminal (doublecircle), no truncation *)
        let contains needle =
          let n = String.length needle and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "has completion node" true
          (contains "doublecircle");
        Alcotest.(check bool) "not truncated" false (contains "(truncated)"));
    case "dot marks deadlocks and delivery edges" (fun () ->
        let program =
          Ch_corpus.Locking.harness Ch_corpus.Locking.unprotected
        in
        let s = Dot.dot ~config:quiet (State.initial program) in
        let contains needle =
          let n = String.length needle and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "deadlock octagon" true (contains "octagon");
        Alcotest.(check bool) "receive/interrupt edge colored" true
          (contains "firebrick"));
  ]

let suites =
  [
    ("explore:schedulers", sched_tests);
    ("explore:checker", checker_tests);
    ("explore:cycles", cycle_tests);
    ("explore:dot", dot_tests);
  ]
