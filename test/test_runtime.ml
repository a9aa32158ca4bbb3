(* Tests for the hio runtime (§8): scheduling, MVars, virtual time,
   deadlock detection, and basic monadic behaviour. *)

open Hio
open Hio_std
open Hio.Io
open Helpers

let int_v = Alcotest.int
let str_v = Alcotest.string

let monad_tests =
  [
    case "return delivers the value" (fun () ->
        Alcotest.check int_v "v" 42 (value (return 42)));
    case "left identity" (fun () ->
        let f x = return (x * 2) in
        Alcotest.check int_v "law" (value (f 21)) (value (return 21 >>= f)));
    case "right identity" (fun () ->
        Alcotest.check int_v "law" 7 (value (return 7 >>= return)));
    case "associativity" (fun () ->
        let f x = return (x + 1) and g x = return (x * 2) in
        Alcotest.check int_v "law"
          (value (return 3 >>= f >>= g))
          (value (return 3 >>= fun x -> f x >>= g)));
    case "map" (fun () ->
        Alcotest.check str_v "map" "5" (value (map string_of_int (return 5))));
    case "syntax: let*, let+, and+" (fun () ->
        let open Io.Syntax in
        let prog =
          let* a = return 2 in
          let+ b = return 3
          and+ c = return 4 in
          (a * b) + c
        in
        Alcotest.check int_v "10" 10 (value prog));
    case "deep binds do not overflow the OCaml stack" (fun () ->
        let rec loop n acc =
          if n = 0 then return acc else return (acc + 1) >>= loop (n - 1)
        in
        Alcotest.check int_v "big" 200_000 (value (loop 200_000 0)));
    case "exceptions from lift propagate as OCaml exceptions" (fun () ->
        (* lift is an escape hatch: an OCaml exception inside it is a bug in
           the embedded code, not an object-level throw; it escapes run *)
        match run (lift (fun () -> raise Exit)) with
        | exception Exit -> ()
        | _ -> Alcotest.fail "expected Exit to escape");
  ]

let exception_tests =
  [
    case "throw escapes as Uncaught" (fun () ->
        match uncaught (throw Not_found >>= fun _ -> return 0) with
        | Not_found -> ()
        | e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e));
    case "catch handles a synchronous throw" (fun () ->
        Alcotest.check int_v "handled" 9
          (value (catch (throw Not_found) (fun _ -> return 9))));
    case "catch passes values through" (fun () ->
        Alcotest.check int_v "passthrough" 5
          (value (catch (return 5) (fun _ -> return 0))));
    case "handler exceptions propagate" (fun () ->
        match uncaught (catch (throw Not_found) (fun _ -> throw Exit)) with
        | Exit -> ()
        | e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e));
    case "nested catch: inner handles first" (fun () ->
        Alcotest.check int_v "inner" 1
          (value
             (catch
                (catch (throw Not_found) (fun _ -> return 1))
                (fun _ -> return 2))));
    case "rethrow reaches the outer handler" (fun () ->
        Alcotest.check int_v "outer" 2
          (value
             (catch
                (catch (throw Not_found) (fun e -> throw e))
                (fun _ -> return 2))));
  ]

let fork_tests =
  [
    case "forked thread runs" (fun () ->
        let hit = ref false in
        ignore
          (value
             ( fork (lift (fun () -> hit := true)) >>= fun _ ->
               yields 3 >>= fun () -> return 0 ));
        Alcotest.(check bool) "ran" true !hit);
    case "fork returns a distinct thread id" (fun () ->
        Alcotest.(check bool) "distinct" false
          (value
             ( fork (return ()) >>= fun child ->
               my_thread_id >>= fun me -> return (Io.same_thread child me) )));
    case "thread names are recorded" (fun () ->
        Alcotest.(check (option string)) "name" (Some "worker")
          (value
             ( fork ~name:"worker" (return ()) >>= fun t ->
               return (Io.thread_name t) )));
    case "main exit abandons children (Proc GC)" (fun () ->
        (* the child would deadlock, but main finishes first *)
        Alcotest.check int_v "main wins" 1
          (value
             ( Mvar.new_empty >>= fun m ->
               fork (Mvar.take m >>= fun _ -> return ()) >>= fun _ ->
               return 1 )));
    case "child uncaught exceptions do not kill the program" (fun () ->
        Alcotest.check int_v "survives" 3
          (value
             ( fork (throw Not_found) >>= fun _ ->
               yields 3 >>= fun () -> return 3 )));
    case "thread_status observes blocking" (fun () ->
        Alcotest.(check string) "blocked on take" "takeMVar"
          (value
             ( Mvar.new_empty >>= fun m ->
               fork (Mvar.take m >>= fun _ -> return ()) >>= fun t ->
               yields 2 >>= fun () ->
               Io.thread_status t >>= function
               | Io.Blocked_on why -> return (Io.wait_reason_label why)
               | Io.Running -> return "running"
               | Io.Dead -> return "dead" )));
    case "run result counts forks and steps" (fun () ->
        let r = run (fork (return ()) >>= fun _ -> return 0) in
        Alcotest.check int_v "forks" 2 r.Runtime.forks;
        Alcotest.(check bool) "steps counted" true (r.Runtime.steps > 0));
  ]

let mvar_tests =
  [
    case "put then take" (fun () ->
        Alcotest.check int_v "roundtrip" 5
          (value
             ( Mvar.new_empty >>= fun m ->
               Mvar.put m 5 >>= fun () -> Mvar.take m )));
    case "new_filled starts full" (fun () ->
        Alcotest.check int_v "filled" 8
          (value (Mvar.new_filled 8 >>= fun m -> Mvar.take m)));
    case "take blocks until another thread puts" (fun () ->
        Alcotest.check int_v "handoff" 7
          (value
             ( Mvar.new_empty >>= fun m ->
               fork (yields 5 >>= fun () -> Mvar.put m 7) >>= fun _ ->
               Mvar.take m )));
    case "put blocks on a full mvar until taken" (fun () ->
        Alcotest.check (Alcotest.pair int_v int_v) "both" (1, 2)
          (value
             ( Mvar.new_filled 1 >>= fun m ->
               fork (Mvar.put m 2) >>= fun _ ->
               yields 3 >>= fun () ->
               Mvar.take m >>= fun a ->
               Mvar.take m >>= fun b -> return (a, b) )));
    case "takers are served FIFO" (fun () ->
        Alcotest.check (Alcotest.list int_v) "order" [ 1; 2 ]
          (value
             ( Mvar.new_empty >>= fun m ->
               Chan.create () >>= fun out ->
               fork (Mvar.take m >>= fun v -> Chan.send out v) >>= fun _ ->
               yields 2 >>= fun () ->
               fork (Mvar.take m >>= fun v -> Chan.send out v) >>= fun _ ->
               yields 2 >>= fun () ->
               Mvar.put m 1 >>= fun () ->
               Mvar.put m 2 >>= fun () ->
               Chan.recv out >>= fun a ->
               Chan.recv out >>= fun b -> return [ a; b ] )));
    case "try_take on empty and full" (fun () ->
        Alcotest.check
          (Alcotest.pair (Alcotest.option int_v) (Alcotest.option int_v))
          "both" (None, Some 3)
          (value
             ( Mvar.new_empty >>= fun m ->
               Mvar.try_take m >>= fun a ->
               Mvar.put m 3 >>= fun () ->
               Mvar.try_take m >>= fun b -> return (a, b) )));
    case "try_put respects fullness" (fun () ->
        Alcotest.check (Alcotest.pair Alcotest.bool Alcotest.bool) "both"
          (true, false)
          (value
             ( Mvar.new_empty >>= fun m ->
               Mvar.try_put m 1 >>= fun a ->
               Mvar.try_put m 2 >>= fun b -> return (a, b) )));
    case "try_put hands off to a waiting taker" (fun () ->
        Alcotest.check int_v "handoff" 9
          (value
             ( Mvar.new_empty >>= fun m ->
               Mvar.new_empty >>= fun out ->
               fork (Mvar.take m >>= fun v -> Mvar.put out v) >>= fun _ ->
               yields 2 >>= fun () ->
               Mvar.try_put m 9 >>= fun ok ->
               Alcotest.(check bool) "accepted" true ok |> ignore;
               Mvar.take out )));
    case "read leaves the mvar full" (fun () ->
        Alcotest.check (Alcotest.pair int_v int_v) "both" (4, 4)
          (value
             ( Mvar.new_filled 4 >>= fun m ->
               Mvar.read m >>= fun a ->
               Mvar.take m >>= fun b -> return (a, b) )));
    case "modify applies the update protocol" (fun () ->
        Alcotest.check int_v "updated" 11
          (value
             ( Mvar.new_filled 10 >>= fun m ->
               Mvar.modify m (fun x -> return (x + 1)) >>= fun () ->
               Mvar.take m )));
    case "modify restores the old value if the update throws" (fun () ->
        Alcotest.check int_v "restored" 10
          (value
             ( Mvar.new_filled 10 >>= fun m ->
               catch
                 (Mvar.modify m (fun _ -> throw Not_found))
                 (fun _ -> return ())
               >>= fun () -> Mvar.take m )));
    case "with_mvar returns the body's result and restores" (fun () ->
        Alcotest.check (Alcotest.pair int_v int_v) "both" (20, 10)
          (value
             ( Mvar.new_filled 10 >>= fun m ->
               Mvar.with_mvar m (fun x -> return (x * 2)) >>= fun r ->
               Mvar.take m >>= fun v -> return (r, v) )));
  ]

let time_tests =
  [
    case "sleep advances the virtual clock" (fun () ->
        let r = run (sleep 250 >>= fun () -> now) in
        (match r.Runtime.outcome with
        | Runtime.Value t -> Alcotest.check int_v "time" 250 t
        | _ -> Alcotest.fail "no value");
        Alcotest.check int_v "clock" 250 r.Runtime.time);
    case "sleeps run concurrently, not additively" (fun () ->
        let r =
          run
            ( fork (sleep 100) >>= fun _ ->
              fork (sleep 80) >>= fun _ -> sleep 100 )
        in
        Alcotest.check int_v "max not sum" 100 r.Runtime.time);
    case "timers wake in deadline order" (fun () ->
        Alcotest.check (Alcotest.list int_v) "order" [ 1; 2; 3 ]
          (value
             ( Chan.create () >>= fun c ->
               fork (sleep 30 >>= fun () -> Chan.send c 3) >>= fun _ ->
               fork (sleep 10 >>= fun () -> Chan.send c 1) >>= fun _ ->
               fork (sleep 20 >>= fun () -> Chan.send c 2) >>= fun _ ->
               Chan.recv c >>= fun a ->
               Chan.recv c >>= fun b ->
               Chan.recv c >>= fun d -> return [ a; b; d ] )));
    case "sleep 0 does not block" (fun () ->
        Alcotest.check int_v "instant" 0
          ((run (sleep 0)).Runtime.time));
    case "now starts at zero" (fun () ->
        Alcotest.check int_v "zero" 0 (value now));
  ]

let io_tests =
  [
    case "put_char and put_string collect output" (fun () ->
        let r = run (put_char 'a' >>= fun () -> put_string "bc") in
        Alcotest.check str_v "output" "abc" r.Runtime.output);
    case "get_char reads configured input" (fun () ->
        Alcotest.check str_v "read" "xy"
          (value ~input:"xy"
             ( get_char >>= fun a ->
               get_char >>= fun b ->
               return (Printf.sprintf "%c%c" a b) )));
    case "get_char deadlocks on exhausted input" (fun () ->
        expect_deadlock (get_char >>= fun _ -> return ()));
    case "deadlock on circular take" (fun () ->
        expect_deadlock
          ( Mvar.new_empty >>= fun (m : int Mvar.t) ->
            Mvar.take m >>= fun _ -> return () ));
    case "out of steps on a spinning program" (fun () ->
        let config =
          { (rr_config ()) with Runtime.Config.max_steps = 1000 }
        in
        let rec spin () = yield >>= spin in
        match (Runtime.run ~config (spin ())).Runtime.outcome with
        | Runtime.Out_of_steps -> ()
        | _ -> Alcotest.fail "expected Out_of_steps");
    case "random policy produces correct results across seeds" (fun () ->
        for seed = 1 to 20 do
          let prog =
            Mvar.new_empty >>= fun m ->
            fork (Mvar.put m 1) >>= fun _ ->
            fork (Mvar.put m 2) >>= fun _ ->
            Mvar.take m >>= fun a ->
            Mvar.take m >>= fun b -> return (a + b)
          in
          match (run_seed seed prog).Runtime.outcome with
          | Runtime.Value 3 -> ()
          | _ -> Alcotest.failf "seed %d wrong" seed
        done);
  ]

(* Minor words allocated per scheduler step by five 200k-iteration loops
   on one domain under round-robin. The bounds sit a little above what
   the flat thread state costs (one 3-word [T_run] per step, plus what
   the program allocates itself: its [Bind] nodes, closures and resumed
   values), so a per-step box or a per-prim closure coming back fails. *)
let words_per_step io =
  let before = Gc.minor_words () in
  let r = Runtime.run ~config:(rr_config ()) io in
  let words = Gc.minor_words () -. before in
  (match r.Runtime.outcome with
  | Runtime.Value () -> ()
  | _ -> Alcotest.fail "loop did not finish");
  words /. float_of_int r.Runtime.steps

let loop_iterations = 200_000

let ping_pong n =
  Mvar.new_empty >>= fun ping ->
  Mvar.new_empty >>= fun pong ->
  fork (Combinators.repeat n (Mvar.take ping >>= fun () -> Mvar.put pong ()))
  >>= fun _ ->
  Combinators.repeat n (Mvar.put ping () >>= fun () -> Mvar.take pong)

let alloc_tests =
  List.map
    (fun (name, bound, io) ->
      case (Printf.sprintf "%s loop: <= %.2f words per step" name bound)
        (fun () ->
          let w = words_per_step io in
          if w > bound then
            Alcotest.failf "%s: %.2f words per step, bound %.2f" name w bound))
    [
      ("bind", 9.5, Combinators.repeat loop_iterations (return ()));
      ("yield", 7.5, Combinators.repeat loop_iterations yield);
      ("block", 7.25, Combinators.repeat loop_iterations (block (return ())));
      ( "catch",
        7.5,
        Combinators.repeat loop_iterations
          (catch (return ()) (fun _ -> return ())) );
      ("MVar ping-pong", 9., ping_pong loop_iterations);
    ]

(* Live words a run keeps per finished thread and per cancelled timer: a
   final [lift] reads the live words after a full major collection, and
   the growth from 1k to 9k iterations is divided by the 8k extra
   iterations. A finished thread leaves only its statistics behind (a
   name and three counts), and a cancelled timer leaves nothing. *)
let live_words_after n body =
  let words = ref 0 in
  let prog =
    Combinators.repeat n body >>= fun () ->
    lift (fun () ->
        Gc.full_major ();
        words := (Gc.stat ()).Gc.live_words)
  in
  (match (Runtime.run ~config:(rr_config ()) prog).Runtime.outcome with
  | Runtime.Value () -> ()
  | _ -> Alcotest.fail "loop did not finish");
  !words

let words_per_iteration body =
  let small = live_words_after 1_000 body in
  let large = live_words_after 9_000 body in
  float_of_int (large - small) /. 8_000.

let retention_tests =
  List.map
    (fun (name, bound, body) ->
      case (Printf.sprintf "%s: <= %.1f live words per iteration" name bound)
        (fun () ->
          let w = words_per_iteration body in
          if w > bound then
            Alcotest.failf "%s: %.2f live words per iteration, bound %.1f"
              name w bound))
    [
      ( "fork and join a short child",
        5.,
        Mvar.new_empty >>= fun m ->
        fork (Mvar.put m ()) >>= fun _ -> Mvar.take m );
      (* a name passed on, as a supervisor names each child from its
         spec, costs a fresh option box per fork *)
      ( "fork and join a short child named by a variable",
        5.,
        let name = String.make 6 'w' in
        Mvar.new_empty >>= fun m ->
        fork ~name (Mvar.put m ()) >>= fun _ -> Mvar.take m );
      (* one finished child and one cancelled deadline per iteration *)
      ( "timeout returning in time",
        5.,
        Combinators.timeout 1_000 (return ()) >>= fun _ -> return () );
    ]

let suites =
  [
    ("runtime:monad", monad_tests);
    ("runtime:exceptions", exception_tests);
    ("runtime:fork", fork_tests);
    ("runtime:mvar", mvar_tests);
    ("runtime:time", time_tests);
    ("runtime:io", io_tests);
    ("runtime:alloc", alloc_tests @ retention_tests);
  ]
