(* Per-rule tests for Figure 5: the asynchronous-exception transitions.
   These pin down the paper's central semantic decisions:
   - (ThrowTo) spawns an in-flight exception and returns immediately;
   - (Receive) delivers only in an unblocked context, at the redex;
   - (Interrupt) delivers to a stuck thread in ANY context (§5.3);
   - block/unblock propagate returns and throws transparently. *)

open Ch_lang.Term
open Ch_semantics
open Helpers

let config = Step.default_config

let mk ?(threads = []) ?(mvars = []) ?(inflight = []) main_code =
  let base = State.initial main_code in
  {
    base with
    State.threads = base.State.threads @ threads;
    mvars;
    inflight;
    next_tid = 1 + List.length threads;
    next_mvar = List.length mvars;
    next_inflight = List.length inflight;
  }

let rules_of ?(config = config) st =
  List.map (fun (t : Step.transition) -> t.Step.rule) (Step.enumerate ~config st)

let fire ?(config = config) st r =
  match
    List.filter (fun (t : Step.transition) -> t.Step.rule = r)
      (Step.enumerate ~config st)
  with
  | [ t ] -> t
  | ts ->
      Alcotest.failf "rule %s enabled %d times" (Step.rule_name r)
        (List.length ts)

let thread_code (st : State.t) tid =
  match State.thread st tid with
  | Some (State.Active (m, _)) -> m
  | Some (State.Finished _) | None -> Alcotest.fail "thread not active"

let inflight_to tid e = (0, { State.target = tid; exn = e })
let rule_t = Alcotest.testable (Fmt.of_to_string Step.rule_name) ( = )

let mask_value_tests =
  [
    case "block/unblock are values with any body" (fun () ->
        Alcotest.(check bool) "block" true (is_value (Block (App (Var "f", Var "x"))));
        Alcotest.(check bool) "unblock" true (is_value (Unblock (Var "x"))));
    case "(Block Return)" (fun () ->
        let st = mk (parse "block (return 1)") in
        let t = fire st Step.R_block_return in
        Alcotest.check term "unwrapped" (Return (Lit_int 1)) (thread_code t.Step.next 0));
    case "(Unblock Return)" (fun () ->
        let st = mk (parse "unblock (return 1)") in
        let t = fire st Step.R_unblock_return in
        Alcotest.check term "unwrapped" (Return (Lit_int 1)) (thread_code t.Step.next 0));
    case "(Block Throw)" (fun () ->
        let st = mk (parse "block (throw #E)") in
        let t = fire st Step.R_block_throw in
        Alcotest.check term "thrown" (Throw (Lit_exn "E")) (thread_code t.Step.next 0));
    case "(Unblock Throw)" (fun () ->
        let st = mk (parse "unblock (throw #E)") in
        let t = fire st Step.R_unblock_throw in
        Alcotest.check term "thrown" (Throw (Lit_exn "E")) (thread_code t.Step.next 0));
  ]

let throw_to_tests =
  [
    case "(ThrowTo) spawns an in-flight exception, caller continues" (fun () ->
        let st = mk (parse "throwTo %t0 #E >>= \\u -> return 1") in
        let t = fire st Step.R_throw_to in
        Alcotest.(check int) "one in flight" 1
          (List.length t.Step.next.State.inflight);
        match Context.decompose (thread_code t.Step.next 0) with
        | { Context.redex = Return (Con ("()", [])); _ } -> ()
        | _ -> Alcotest.fail "caller should continue with return ()");
    case "(ThrowTo) to a finished thread trivially succeeds" (fun () ->
        let program =
          parse "forkIO (return ()) >>= \\t -> sleep 1 >>= \\u -> throwTo t #E >>= \\v -> return 9"
        in
        let r = explore ~stuck_io:false program in
        Alcotest.(check (list kind_testable)) "always 9" [ completed_int 9 ]
          (kinds r));
  ]

let receive_tests =
  [
    case "(Receive) delivers in an unmasked context" (fun () ->
        let st =
          mk
            ~inflight:[ inflight_to 0 "E" ]
            (parse "unblock (return 1 >>= \\x -> return x)")
        in
        let t = fire st Step.R_receive in
        match Context.decompose (thread_code t.Step.next 0) with
        | { Context.redex = Throw (Lit_exn "E"); _ } -> ()
        | _ -> Alcotest.fail "exception not at redex");
    case "(Receive) keeps the surrounding context (catch frames survive)"
      (fun () ->
        let st =
          mk
            ~inflight:[ inflight_to 0 "E" ]
            (parse "catch (unblock (return 1)) (\\e -> return 0)")
        in
        let t = fire st Step.R_receive in
        match Context.decompose (thread_code t.Step.next 0) with
        | { Context.redex = Throw (Lit_exn "E");
            frames = [ Context.F_unblock; Context.F_catch _ ] } ->
            ()
        | _ -> Alcotest.fail "context damaged");
    case "(Receive) disabled in a masked context" (fun () ->
        let st =
          mk ~inflight:[ inflight_to 0 "E" ]
            (parse "block (return 1 >>= \\x -> return x)")
        in
        Alcotest.(check bool) "no receive" false
          (List.mem Step.R_receive (rules_of st)));
    case "(Receive) respects the innermost mask frame" (fun () ->
        let st =
          mk ~inflight:[ inflight_to 0 "E" ]
            (parse "block (unblock (return 1 >>= \\x -> return x))")
        in
        Alcotest.(check bool) "receive enabled" true
          (List.mem Step.R_receive (rules_of st)));
    case "(Receive) enabled with no mask frames" (fun () ->
        let st =
          mk ~inflight:[ inflight_to 0 "E" ]
            (parse "return 1 >>= \\x -> return x")
        in
        Alcotest.(check bool) "unmasked default: enabled" true
          (List.mem Step.R_receive (rules_of st)));
    case "(Receive) can abort a divergent computation" (fun () ->
        let st =
          mk ~inflight:[ inflight_to 0 "E" ]
            (Bind (Ch_corpus.Programs.diverge, Lam ("x", Return (Var "x"))))
        in
        let cheap = { config with Step.fuel = 200 } in
        Alcotest.(check bool) "receive enabled" true
          (List.mem Step.R_receive (rules_of ~config:cheap st)));
    case "(Receive) not offered to a finished thread" (fun () ->
        let base = mk (parse "return 0") in
        let st =
          {
            base with
            State.threads =
              [ (0, State.Finished (State.Done (Lit_int 0))) ];
            inflight = [ inflight_to 0 "E" ];
          }
        in
        Alcotest.(check bool) "nothing" false
          (List.mem Step.R_receive (rules_of st)));
  ]

let interrupt_tests =
  [
    case "(Interrupt) wakes a stuck thread even inside block" (fun () ->
        (* a thread stuck on takeMVar of an empty MVar, inside block *)
        let code = parse "block (takeMVar %m0 >>= \\x -> return x)" in
        let base = mk ~mvars:[ (0, None) ] code in
        (* first it must go stuck *)
        let t1 = fire base Step.R_stuck_take_mvar in
        let st =
          { t1.Step.next with State.inflight = [ inflight_to 0 "E" ] }
        in
        let t2 = fire st Step.R_interrupt in
        (match Context.decompose (thread_code t2.Step.next 0) with
        | { Context.redex = Throw (Lit_exn "E"); _ } -> ()
        | _ -> Alcotest.fail "exception not raised at redex");
        match State.thread t2.Step.next 0 with
        | Some (State.Active (_, State.Runnable)) -> ()
        | _ -> Alcotest.fail "thread should be runnable again");
    case "(Interrupt) requires stuckness: runnable masked thread is immune"
      (fun () ->
        let st =
          mk ~inflight:[ inflight_to 0 "E" ]
            (parse "block (return 1 >>= \\x -> return x)")
        in
        Alcotest.(check bool) "no interrupt" false
          (List.mem Step.R_interrupt (rules_of st)));
    case "stuckness rules are one-way (no self-loop)" (fun () ->
        let st = mk ~mvars:[ (0, None) ] (parse "takeMVar %m0") in
        let t1 = fire st Step.R_stuck_take_mvar in
        Alcotest.(check (list rule_t)) "no more transitions" []
          (rules_of t1.Step.next));
    case "a stuck takeMVar is woken by a put (resource arrival)" (fun () ->
        let worker = parse "takeMVar %m0 >>= \\x -> return x" in
        let base = mk ~mvars:[ (0, None) ] worker in
        let t1 = fire base Step.R_stuck_take_mvar in
        (* now fill the MVar "from outside" *)
        let st = State.set_mvar t1.Step.next 0 (Some (Lit_int 5)) in
        let t2 = fire st Step.R_take_mvar in
        match State.thread t2.Step.next 0 with
        | Some (State.Active (_, State.Runnable)) -> ()
        | _ -> Alcotest.fail "not woken");
  ]

let stuck_rule_tests =
  [
    case "(Stuck PutChar)/(Stuck GetChar)/(Stuck Sleep) are unconditional"
      (fun () ->
        List.iter
          (fun (src, r) ->
            let st = mk (parse src) in
            Alcotest.(check bool) (Step.rule_name r) true
              (List.mem r (rules_of st)))
          [
            ("putChar 'a'", Step.R_stuck_put_char);
            ("getChar", Step.R_stuck_get_char);
            ("sleep 3", Step.R_stuck_sleep);
          ]);
    case "stuck_io=false disables the IO stuckness rules" (fun () ->
        let quiet = { config with Step.stuck_io = false } in
        let st = mk (parse "putChar 'a'") in
        Alcotest.(check (list rule_t)) "only PutChar" [ Step.R_put_char ]
          (rules_of ~config:quiet st));
    case "(Stuck PutMVar) only when full; (Stuck TakeMVar) only when empty"
      (fun () ->
        let full = mk ~mvars:[ (0, Some (Lit_int 1)) ] (parse "putMVar %m0 2") in
        Alcotest.(check bool) "put stuck" true
          (List.mem Step.R_stuck_put_mvar (rules_of full));
        let empty = mk ~mvars:[ (0, None) ] (parse "putMVar %m0 2") in
        Alcotest.(check bool) "put not stuck" false
          (List.mem Step.R_stuck_put_mvar (rules_of empty)));
  ]

let fork_mask_tests =
  [
    case "Figure 5 (Fork): the child does not inherit the mask" (fun () ->
        let st = mk (parse "block (forkIO (return ()) >>= \\t -> return t)") in
        let t = fire st Step.R_fork in
        Alcotest.check term "bare child" (Return unit_v)
          (thread_code t.Step.next 1));
    case "fork_inherits_mask wraps the child in block" (fun () ->
        let ghc = { config with Step.fork_inherits_mask = true } in
        let st = mk (parse "block (forkIO (return ()) >>= \\t -> return t)") in
        let t = fire ~config:ghc st Step.R_fork in
        Alcotest.check term "blocked child" (Block (Return unit_v))
          (thread_code t.Step.next 1));
  ]

let suites =
  [
    ("fig5:mask-values", mask_value_tests);
    ("fig5:throwTo", throw_to_tests);
    ("fig5:receive", receive_tests);
    ("fig5:interrupt", interrupt_tests);
    ("fig5:stuckness", stuck_rule_tests);
    ("fig5:fork-mask", fork_mask_tests);
  ]
