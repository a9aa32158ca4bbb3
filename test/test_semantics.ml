(* Per-rule tests for the outer semantics: evaluation contexts (§6.2/§6.3)
   and every transition rule of Figure 4. Figure 5's rules are covered in
   Test_fig5. *)

open Ch_lang.Term
open Ch_semantics
open Helpers

let mk ?(threads = []) ?(mvars = []) ?(inflight = []) ?(input = "") main_code =
  let base = State.initial ~input main_code in
  {
    base with
    State.threads = base.State.threads @ threads;
    mvars;
    inflight;
    next_tid = 1 + List.length threads;
    next_mvar = List.length mvars;
    next_inflight = List.length inflight;
  }

let config = Step.default_config

let rules_of ?(config = config) st =
  List.map (fun (t : Step.transition) -> t.Step.rule) (Step.enumerate ~config st)

let rule = Alcotest.testable (Fmt.of_to_string Step.rule_name) ( = )

(* Find the unique transition with the given rule. *)
let fire ?(config = config) st r =
  match
    List.filter (fun (t : Step.transition) -> t.Step.rule = r)
      (Step.enumerate ~config st)
  with
  | [ t ] -> t
  | [] -> Alcotest.failf "rule %s not enabled" (Step.rule_name r)
  | _ -> Alcotest.failf "rule %s enabled more than once" (Step.rule_name r)

let main_code (st : State.t) =
  match State.thread st st.State.main with
  | Some (State.Active (m, _)) -> m
  | Some (State.Finished _) | None -> Alcotest.fail "main not active"

let context_tests =
  [
    case "decompose descends bind and catch" (fun () ->
        let t = parse "catch (takeMVar %m0 >>= \\x -> return x) h" in
        let z = Context.decompose t in
        Alcotest.check term "redex" (Take_mvar (Mvar 0)) z.Context.redex;
        Alcotest.(check int) "frames" 2 (List.length z.Context.frames));
    case "decompose descends block and unblock" (fun () ->
        let t = parse "block (unblock (getChar >>= \\c -> putChar c))" in
        let z = Context.decompose t in
        Alcotest.check term "redex" Get_char z.Context.redex;
        Alcotest.(check bool) "mask" true
          (Context.mask_of z.Context.frames = Context.Unmasked));
    case "recompose inverts decompose" (fun () ->
        let t = parse "block (catch (unblock (takeMVar %m0) >>= f) h)" in
        Alcotest.check term "roundtrip" t
          (Context.recompose (Context.decompose t)));
    case "mask defaults apply with no mask frames" (fun () ->
        let z = Context.decompose (parse "getChar >>= f") in
        Alcotest.(check bool) "unmasked default" true
          (Context.mask_of z.Context.frames = Context.Unmasked));
    case "innermost mask frame wins" (fun () ->
        let z =
          Context.decompose (parse "unblock (block (takeMVar %m0 >>= f))")
        in
        Alcotest.(check bool) "masked" true
          (Context.mask_of z.Context.frames = Context.Masked));
    case "redex is never a block term" (fun () ->
        let z = Context.decompose (parse "block (block (return 1))") in
        Alcotest.check term "redex" (Return (Lit_int 1)) z.Context.redex);
  ]

let fig4_tests =
  [
    case "(Bind): return N >>= M -> M N" (fun () ->
        let st = mk (parse "return 1 >>= \\x -> return (x + 1)") in
        let t = fire st Step.R_bind in
        match Context.decompose (main_code t.Step.next) with
        | { Context.redex = App (Lam _, Lit_int 1); frames = [] } -> ()
        | _ -> Alcotest.fail "wrong result");
    case "(PutChar) emits !c and returns ()" (fun () ->
        let st = mk (parse "putChar 'x'") in
        let t = fire st Step.R_put_char in
        Alcotest.(check bool) "label" true
          (t.Step.label = Some (Step.Out_char 'x'));
        Alcotest.(check string) "output" "x" (State.output_string t.Step.next));
    case "(GetChar) consumes input with ?c" (fun () ->
        let st = mk ~input:"ab" (parse "getChar") in
        let t = fire st Step.R_get_char in
        Alcotest.(check bool) "label" true
          (t.Step.label = Some (Step.In_char 'a'));
        Alcotest.check term "result" (Return (Lit_char 'a'))
          (main_code t.Step.next));
    case "(GetChar) not enabled on empty input" (fun () ->
        let st = mk (parse "getChar") in
        Alcotest.(check bool) "disabled" false
          (List.mem Step.R_get_char (rules_of st)));
    case "(Sleep) carries the $d label" (fun () ->
        let st = mk (parse "sleep 5") in
        let t = fire st Step.R_sleep in
        Alcotest.(check bool) "label" true (t.Step.label = Some (Step.Time 5)));
    case "(PutMVar) fills an empty MVar" (fun () ->
        let st = mk ~mvars:[ (0, None) ] (parse "putMVar %m0 42") in
        let t = fire st Step.R_put_mvar in
        Alcotest.(check bool) "full" true
          (State.mvar t.Step.next 0 = Some (Some (Lit_int 42))));
    case "(PutMVar) blocked on a full MVar" (fun () ->
        let st = mk ~mvars:[ (0, Some (Lit_int 1)) ] (parse "putMVar %m0 2") in
        Alcotest.(check (list rule)) "only stuck rule"
          [ Step.R_stuck_put_mvar ] (rules_of st));
    case "(TakeMVar) empties a full MVar" (fun () ->
        let st = mk ~mvars:[ (0, Some (Lit_int 9)) ] (parse "takeMVar %m0") in
        let t = fire st Step.R_take_mvar in
        Alcotest.(check bool) "empty" true (State.mvar t.Step.next 0 = Some None);
        Alcotest.check term "result" (Return (Lit_int 9))
          (main_code t.Step.next));
    case "(TakeMVar) blocked on an empty MVar" (fun () ->
        let st = mk ~mvars:[ (0, None) ] (parse "takeMVar %m0") in
        Alcotest.(check (list rule)) "only stuck rule"
          [ Step.R_stuck_take_mvar ] (rules_of st));
    case "(NewMVar) allocates a fresh empty MVar" (fun () ->
        let st = mk (parse "newEmptyMVar") in
        let t = fire st Step.R_new_mvar in
        Alcotest.(check bool) "created empty" true
          (State.mvar t.Step.next 0 = Some None);
        Alcotest.check term "returns name" (Return (Mvar 0))
          (main_code t.Step.next));
    case "(Fork) spawns a thread and returns its id" (fun () ->
        let st = mk (parse "forkIO (putChar 'c')") in
        let t = fire st Step.R_fork in
        Alcotest.(check int) "two threads" 2
          (List.length t.Step.next.State.threads);
        Alcotest.check term "returns tid" (Return (Tid 1))
          (main_code t.Step.next));
    case "(ThreadId) returns own id" (fun () ->
        let st = mk (parse "myThreadId") in
        let t = fire st Step.R_thread_id in
        Alcotest.check term "tid" (Return (Tid 0)) (main_code t.Step.next));
    case "(Propagate): throw e >>= M -> throw e" (fun () ->
        let st = mk (parse "throw #E >>= \\x -> return x") in
        let t = fire st Step.R_propagate in
        Alcotest.check term "throw" (Throw (Lit_exn "E"))
          (main_code t.Step.next));
    case "(Catch) passes the exception to the handler" (fun () ->
        let st = mk (parse "catch (throw #E) (\\e -> return e)") in
        let t = fire st Step.R_catch in
        match Context.decompose (main_code t.Step.next) with
        | { Context.redex = App (Lam _, Lit_exn "E"); _ } -> ()
        | _ -> Alcotest.fail "handler not applied");
    case "(Handle) drops the handler on success" (fun () ->
        let st = mk (parse "catch (return 3) (\\e -> return 0)") in
        let t = fire st Step.R_handle in
        Alcotest.check term "unwrapped" (Return (Lit_int 3))
          (main_code t.Step.next));
    case "(Return GC) finishes a thread" (fun () ->
        let st = mk (parse "return 5") in
        let t = fire st Step.R_return_gc in
        Alcotest.(check bool) "finished" true
          (State.main_result t.Step.next = Some (State.Done (Lit_int 5))));
    case "(Throw GC) records the uncaught exception" (fun () ->
        let st = mk (parse "throw #Boom") in
        let t = fire st Step.R_throw_gc in
        Alcotest.(check bool) "finished" true
          (State.main_result t.Step.next = Some (State.Threw "Boom")));
    case "(Proc GC) reaps everything once main is done" (fun () ->
        let st = mk (parse "forkIO (sleep 1) >>= \\t -> return 0") in
        let r = explore ~stuck_io:false (main_code st) in
        (* after exploration every terminal is main alone *)
        List.iter
          (fun (t : Ch_explore.Space.terminal) ->
            Alcotest.(check int) "one thread" 1
              (List.length t.Ch_explore.Space.state.State.threads))
          r.Ch_explore.Space.terminals);
    case "an exception in flight to a finished main is not reaped alone"
      (fun () ->
        (* main throws to itself under block and may finish before the
           delivery: the key drops the inert exception, so a (Proc GC)
           reaping only it would loop on that key and hide the ending *)
        let r = explore (parse "do { t <- myThreadId; block (throwTo t #Boom) }") in
        Alcotest.(check (list kind_testable))
          "both endings"
          [ Ch_explore.Space.Completed (State.Done unit_v);
            Ch_explore.Space.Completed (State.Threw "Boom") ]
          (kinds r);
        Alcotest.(check bool) "no cycle" false r.Ch_explore.Space.has_cycle);
    case "(Eval) evaluates a non-value redex" (fun () ->
        let st = mk (parse "putChar (if True then 'a' else 'b')") in
        let t = fire st Step.R_eval in
        Alcotest.check term "evaluated" (Put_char (Lit_char 'a'))
          (main_code t.Step.next));
    case "(Raise) converts pure raises to throw" (fun () ->
        let st = mk (parse "(\\x -> takeMVar x) (raise #Oops)") in
        let t = fire st Step.R_raise in
        Alcotest.check term "raised" (Throw (Lit_exn "Oops"))
          (main_code t.Step.next));
    case "(Raise) on division by zero at the evaluation site" (fun () ->
        let st = mk (parse "sleep (1 / 0)") in
        let t = fire st Step.R_raise in
        Alcotest.check term "raised" (Throw (Lit_exn "DivideByZero"))
          (main_code t.Step.next));
    case "ill-typed redex has no transitions" (fun () ->
        let st = mk (parse "3 >>= \\x -> return x") in
        Alcotest.(check (list rule)) "none" [] (rules_of st);
        match Step.thread_stall config st 0 with
        | Some (Step.Ill_typed _) -> ()
        | _ -> Alcotest.fail "expected ill-typed stall");
    case "divergent redex reports Diverging" (fun () ->
        let st = mk (parse "fix (\\x -> x) >>= \\y -> return y") in
        let config = { config with Step.fuel = 500 } in
        Alcotest.(check (list rule)) "none" [] (rules_of ~config st);
        match Step.thread_stall config st 0 with
        | Some Step.Diverging -> ()
        | _ -> Alcotest.fail "expected divergence stall");
  ]

(* Hand-built states covering every term constructor and the key's edge
   cases, each pinned to the exact key bytes. [Space.explore] dedups on
   these strings, so any change to them changes every search. *)
let every_constructor =
  Bind
    ( Catch
        ( Block (Unblock (Fork (Throw_to (Tid 7, Lit_exn "Kill")))),
          Lam ("e", Throw (Var "e")) ),
      Lam
        ( "x",
          Let
            ( "y",
              Prim (Add, Var "x", Lit_int 42),
              Case
                ( Con ("Pair", [ Var "y"; Lit_char '\n' ]),
                  [
                    (* a repeated binder: the first one wins *)
                    Alt
                      ( "Pair",
                        [ "a"; "b"; "a" ],
                        If
                          ( Prim (Eq, Var "a", Var "b"),
                            Return (Var "free"),
                            Raise (Lit_exn "Boom") ) );
                    Alt ("Nil", [], Var "x");
                    Default
                      ( "z",
                        App
                          ( Fix (Lam ("x", Var "x")),
                            Prim (Sub, Var "z", Lit_int (-17)) ) );
                  ] ) ) ) )

let io_constructors =
  let seq m x k = Bind (m, Lam (x, k)) in
  seq (Put_char (Lit_char '\'')) "_"
  @@ seq Get_char "c"
  @@ seq New_mvar "m"
  @@ seq (Put_mvar (Mvar 4, Con ("()", []))) "u"
  @@ seq (Take_mvar (Var "m")) "v"
  @@ seq (Sleep (Lit_int 0)) "w"
  @@ seq My_tid "me"
  @@ Return
       (Con
          ( "Ops",
            [
              Prim (Mul, Var "c", Var "v");
              Prim (Div, Var "w", Var "me");
              Prim (Ne, Var "u", Lit_char '\\');
              Prim (Lt, Tid 0, Mvar 1);
              Prim (Le, Tid 2, Tid 5);
            ] ))

let pinned_keys : (string * State.t * string) list =
  [
    ( "initial",
      State.initial ~input:"hi" (parse "newEmptyMVar >>= \\m -> takeMVar m"),
      "T0o:(>>= newmv (\\0.(take b0)));I:hi;O:" );
    (* The input's ';' is escaped, so that no input/output split of one
       stream can render like another: "I:a\\;b;O:x\ny". *)
    ( "every constructor, renamed names, in-flight, I/O",
      {
        State.threads =
          [
            (2, State.Active (every_constructor, State.Runnable));
            (0, State.Active (io_constructors, State.Stuck_thread));
            (7, State.Finished (State.Done (Tid 2)));
            (5, State.Finished (State.Threw "E"));
          ];
        mvars = [ (4, Some (Mvar 0)); (0, None); (1, Some (Lit_int (-3))) ];
        inflight =
          [
            (0, { State.target = 0; exn = "Z" });
            (1, { State.target = 2; exn = "A" });
            (2, { State.target = 7; exn = "Inert" });
            (3, { State.target = 0; exn = "B" });
            (4, { State.target = 99; exn = "Gone" });
            (5, { State.target = 2; exn = "A" });
          ];
        input = [ 'a'; ';'; 'b' ];
        output = [ 'y'; '\n'; 'x' ];
        next_tid = 3;
        next_mvar = 2;
        next_inflight = 6;
        main = 2;
      },
      "T0o:(>>= (catch (blk (ublk (fork (thto t1 #Kill)))) (\\0.(throw b0))) \
       (\\0.(let1 (+ b0 42) (case (C:Pair b1 '\\n') [Pair/3 (if (== b2 b3) \
       (ret v:free) (raise #Boom))] [Nil/0 b0] [_2 (@ (fix (\\3.b3)) (- b2 \
       -17))]))));T2x:(>>= (putc '\\'') (\\0.(>>= getc (\\1.(>>= newmv \
       (\\2.(>>= (put m0 (C:())) (\\3.(>>= (take b2) (\\4.(>>= (sleep 0) \
       (\\5.(>>= mytid (\\6.(ret (C:Ops (* b1 b4) (/ b5 b6) (/= b3 '\\\\') \
       (< t2 m1) (<= t0 t3)))))))))))))))));T1d:t0;T3e:E;M0:m2;M2();M1:-3;\
       F0<=A;F0<=A;F2<=B;F2<=Z;I:a\\;b;O:x\ny" );
    ( "no threads",
      {
        (State.initial Get_char) with
        State.threads = [];
        mvars = [ (9, None) ];
        next_tid = 0;
        next_mvar = 0;
      },
      "M0();I:;O:" );
  ]

(* Binders 300 levels deep, past the key renderer's initial binder
   stack: names repeat every 7 levels (so inner ones shadow outer ones),
   and the innermost [Alt] binds "a" twice (the first one wins). *)
let deep_binders =
  let rec nest i =
    if i = 300 then
      Case
        ( Con ("P", [ Var "x0"; Var "x5" ]),
          [
            Alt
              ( "P",
                [ "a"; "x3"; "a" ],
                Con ("R", [ Var "a"; Var "x3"; Var "x6"; Var "free" ]) );
          ] )
    else
      let x = "x" ^ string_of_int (i mod 7) in
      if i mod 2 = 0 then Lam (x, nest (i + 1))
      else Let (x, Var ("x" ^ string_of_int ((i + 3) mod 7)), nest (i + 1))
  in
  nest 0

(* Pairs of congruent states, which must share a key. *)
let allocation_order_pair =
  ( mk ~mvars:[ (3, None) ] (Put_mvar (Mvar 3, Lit_int 1)),
    mk ~mvars:[ (7, None) ] (Put_mvar (Mvar 7, Lit_int 1)) )

let alpha_pair =
  ( mk (parse "return 0 >>= \\x -> return x"),
    mk (parse "return 0 >>= \\y -> return y") )

let inert_inflight_pair =
  let finished : State.thread = State.Finished (State.Done unit_v) in
  let base = mk (parse "return 0") in
  ( {
      base with
      State.threads = base.State.threads @ [ (1, finished) ];
      inflight = [ (0, { State.target = 1; exn = "E" }) ];
      next_tid = 2;
      next_inflight = 1;
    },
    {
      base with
      State.threads = base.State.threads @ [ (1, finished) ];
      next_tid = 2;
    } )

(* Pairs of states that differ, which must not. *)
let mvar_contents_pair =
  ( mk ~mvars:[ (0, None) ] (parse "takeMVar %m0"),
    mk ~mvars:[ (0, Some (Lit_int 1)) ] (parse "takeMVar %m0") )

let live_inflight_pair =
  let base = mk (parse "return 0") in
  ({ base with State.inflight = [ (0, { State.target = 0; exn = "E" }) ] }, base)

let output_pair =
  let a = mk (parse "return 0") in
  (a, { a with State.output = [ 'x' ] })

let same_key (a, b) =
  Alcotest.(check string) "same key" (State.canonical_key a)
    (State.canonical_key b)

let keys_differ (a, b) =
  Alcotest.(check bool) "differ" false
    (String.equal (State.canonical_key a) (State.canonical_key b))

let state_tests =
  List.map
    (fun (name, st, key) ->
      case ("pinned key: " ^ name) (fun () ->
          Alcotest.(check string) "key" key (State.canonical_key st)))
    pinned_keys
  @ [
    case "canonical key ignores name allocation order" (fun () ->
        same_key allocation_order_pair);
    case "canonical key is alpha-insensitive" (fun () -> same_key alpha_pair);
    case "canonical key distinguishes mvar contents" (fun () ->
        keys_differ mvar_contents_pair);
    case "inert in-flight exceptions are dropped" (fun () ->
        same_key inert_inflight_pair);
    case "live in-flight exceptions are kept" (fun () ->
        keys_differ live_inflight_pair);
    case "output is observable state" (fun () -> keys_differ output_pair);
    case "fingerprints follow the key and the budget" (fun () ->
        let fp ?(budget = 0) st = State.fingerprint ~budget st in
        let equal (a, b) = State.Fingerprint.equal (fp a) (fp b) in
        List.iter
          (fun (name, pair) -> Alcotest.(check bool) name true (equal pair))
          [
            ("allocation order", allocation_order_pair);
            ("alpha", alpha_pair);
            ("inert in-flight", inert_inflight_pair);
          ];
        List.iter
          (fun (name, pair) -> Alcotest.(check bool) name false (equal pair))
          [
            ("mvar contents", mvar_contents_pair);
            ("live in-flight", live_inflight_pair);
            ("output", output_pair);
          ];
        let a, b = alpha_pair in
        Alcotest.(check bool) "same budget" true
          (State.Fingerprint.equal (fp ~budget:2 a) (fp ~budget:2 b));
        Alcotest.(check bool) "budgets 1 and 2" false
          (State.Fingerprint.equal (fp ~budget:1 a) (fp ~budget:2 a)));
    case "binders nested past the initial binder stack" (fun () ->
        let key = State.canonical_key (State.initial deep_binders) in
        (* its tail reads "(let299 b295 (case (C:P b294 b299) [P/3 (C:R
           b300 b301 b293 v:free)]))": the Alt's first "a" is b300, and
           "x6" is the Let at level 293 *)
        Alcotest.(check (pair int string))
          "length, digest"
          (3051, "1db7b23bf4ac7f59a3cef2aac17b4e7f")
          (String.length key, Digest.to_hex (Digest.string key)));
    case "char literals render as Char.escaped" (fun () ->
        for i = 0 to 255 do
          let c = Char.chr i in
          Alcotest.(check string)
            (Printf.sprintf "char %d" i)
            ("T0o:(ret '" ^ Char.escaped c ^ "');I:;O:")
            (State.canonical_key (mk (Return (Lit_char c))))
        done);
    case "no two input/output splits of one string share a key" (fun () ->
        (* input [w[0..k)], output [w[k..n)]: the key must tell where the
           input ends even when either side holds ";O:" or '\\' *)
        let w = "a;O:\\;O:\\b;" in
        let n = String.length w in
        let split k =
          let output = List.rev (List.init (n - k) (fun i -> w.[k + i])) in
          State.canonical_key
            { (State.initial ~input:(String.sub w 0 k) Get_char) with
              State.output }
        in
        let keys = List.init (n + 1) split in
        Alcotest.(check int) "distinct keys" (n + 1)
          (List.length (List.sort_uniq String.compare keys)));
    case "output_string renders a long output oldest first" (fun () ->
        let expected = String.init 700 (fun i -> Char.chr (32 + (i mod 95))) in
        (* [output] holds the most recent character first *)
        let output = List.rev (List.init 700 (String.get expected)) in
        let st = { (mk (parse "return 0")) with State.output } in
        Alcotest.(check string) "output" expected (State.output_string st);
        Alcotest.(check string) "empty" "" (State.output_string (mk unit_v)));
  ]

let suites =
  [
    ("semantics:contexts", context_tests);
    ("semantics:fig4", fig4_tests);
    ("semantics:state(Fig2-3)", state_tests);
  ]
