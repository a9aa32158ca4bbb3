(* The supervision layer (lib/sup): restart strategies and lifetimes,
   escalation on an exhausted intensity budget, retry backoff, circuit
   breaker transitions, bulkhead shedding, and the supervised server —
   plus QCheck properties: the restart log never exceeds the intensity
   window under random kill schedules, and the backoff schedule is a pure
   function, identical on every Par worker domain. *)

open Hio_std
open Hio.Io
open Hsup
open Helpers

let int_v = Alcotest.int
let bool_v = Alcotest.bool

(* Wait (bounded, yielding only) until a supervision-tree condition
   holds. Exits and restarts are mailbox messages — a freshly killed
   child is still marked up until the supervisor has processed its exit,
   so tests must poll for the state they mean, never assume it is
   immediate. *)
let rec wait_cond ?(rounds = 400) msg cond =
  cond >>= fun ok ->
  if ok then return ()
  else if rounds <= 0 then Alcotest.fail msg
  else yield >>= fun () -> wait_cond ~rounds:(rounds - 1) msg cond

(* The one wait that is safe after a kill: [child_starts] moves exactly
   when the supervisor performs the restart. *)
let wait_starts sup name k =
  wait_cond
    (Printf.sprintf "child %s never reached %d starts" name k)
    (Sup.child_starts sup name >>= fun s -> return (s >= k))

let kill_child sup name =
  Sup.child_tid sup name >>= function
  | Some tid -> throw_to tid Kill_thread
  | None -> Alcotest.failf "no live child %s to kill" name

(* Heartbeats must sleep, not spin: an always-runnable thread pins the
   virtual clock, and several tests below pace themselves with [sleep]. *)
let beat_child r name =
  Sup.child name
    (Combinators.forever (lift (fun () -> incr r) >>= fun () -> sleep 1))

let sup_tests =
  [
    case "one_for_one restarts only the failed child" (fun () ->
        let sa, sb, rc =
          value
            ( lift (fun () -> (ref 0, ref 0)) >>= fun (a, b) ->
              Sup.start [ beat_child a "a"; beat_child b "b" ] >>= fun sup ->
              yields 5 >>= fun () ->
              kill_child sup "a" >>= fun () ->
              wait_starts sup "a" 2 >>= fun () ->
              Sup.child_starts sup "a" >>= fun sa ->
              Sup.child_starts sup "b" >>= fun sb ->
              Sup.restart_count sup >>= fun rc ->
              Sup.stop sup >>= fun _ -> return (sa, sb, rc) )
        in
        Alcotest.check int_v "a restarted" 2 sa;
        Alcotest.check int_v "b untouched" 1 sb;
        Alcotest.check int_v "one restart" 1 rc);
    case "all_for_one restarts the siblings too" (fun () ->
        let sa, sb, rc =
          value
            ( lift (fun () -> (ref 0, ref 0)) >>= fun (a, b) ->
              Sup.start ~strategy:Sup.All_for_one
                [ beat_child a "a"; beat_child b "b" ]
              >>= fun sup ->
              yields 5 >>= fun () ->
              kill_child sup "a" >>= fun () ->
              wait_starts sup "a" 2 >>= fun () ->
              wait_starts sup "b" 2 >>= fun () ->
              Sup.child_starts sup "a" >>= fun sa ->
              Sup.child_starts sup "b" >>= fun sb ->
              Sup.restart_count sup >>= fun rc ->
              Sup.stop sup >>= fun _ -> return (sa, sb, rc) )
        in
        Alcotest.check int_v "a restarted" 2 sa;
        Alcotest.check int_v "b restarted with it" 2 sb;
        Alcotest.check int_v "one collective restart logged" 1 rc);
    case "transient child is not restarted after a normal return" (fun () ->
        let up, starts =
          value
            ( Sup.start
                [ Sup.child ~lifetime:Sup.Transient "t" (yields 2) ]
              >>= fun sup ->
              wait_cond "transient child never retired"
                (Sup.child_up sup "t" >>= fun up -> return (not up))
              >>= fun () ->
              yields 10 >>= fun () ->
              Sup.child_up sup "t" >>= fun up ->
              Sup.child_starts sup "t" >>= fun starts ->
              Sup.stop sup >>= fun _ -> return (up, starts) )
        in
        Alcotest.check bool_v "down" false up;
        Alcotest.check int_v "started once" 1 starts);
    case "transient child is restarted after an abnormal exit" (fun () ->
        let starts =
          value
            ( lift (fun () -> ref 0) >>= fun n ->
              let body =
                lift (fun () -> incr n; !n) >>= fun k ->
                if k = 1 then throw (Failure "boom")
                else Combinators.forever yield
              in
              Sup.start [ Sup.child ~lifetime:Sup.Transient "t" body ]
              >>= fun sup ->
              wait_starts sup "t" 2 >>= fun () ->
              Sup.child_starts sup "t" >>= fun starts ->
              Sup.stop sup >>= fun _ -> return starts )
        in
        Alcotest.check int_v "restarted once" 2 starts);
    case "temporary child is never restarted" (fun () ->
        let up, starts =
          value
            ( Sup.start
                [
                  Sup.child ~lifetime:Sup.Temporary "t"
                    (yields 2 >>= fun () -> throw (Failure "boom"));
                ]
              >>= fun sup ->
              wait_cond "temporary child never retired"
                (Sup.child_up sup "t" >>= fun up -> return (not up))
              >>= fun () ->
              yields 10 >>= fun () ->
              Sup.child_up sup "t" >>= fun up ->
              Sup.child_starts sup "t" >>= fun starts ->
              Sup.stop sup >>= fun _ -> return (up, starts) )
        in
        Alcotest.check bool_v "down" false up;
        Alcotest.check int_v "started once" 1 starts);
    case "exhausted intensity budget escalates" (fun () ->
        let r, stranded =
          value
            ( lift (fun () -> ref 0) >>= fun beats ->
              Sup.start
                ~intensity:{ Sup.max_restarts = 2; window = 1_000_000 }
                [ beat_child beats "a" ]
              >>= fun sup ->
              (* two restarts fit the budget; the third kill escalates *)
              wait_starts sup "a" 1 >>= fun () ->
              kill_child sup "a" >>= fun () ->
              wait_starts sup "a" 2 >>= fun () ->
              kill_child sup "a" >>= fun () ->
              wait_starts sup "a" 3 >>= fun () ->
              kill_child sup "a" >>= fun () ->
              Sup.await sup >>= fun r ->
              (* after escalation nothing may still beat *)
              lift (fun () -> !beats) >>= fun b0 ->
              yields 10 >>= fun () ->
              lift (fun () -> !beats) >>= fun b1 ->
              return (r, b1 <> b0) )
        in
        (match r with
        | Stdlib.Error (Sup.Escalated "supervisor") -> ()
        | Stdlib.Error e ->
            Alcotest.failf "expected Escalated, got %s" (Printexc.to_string e)
        | Stdlib.Ok () -> Alcotest.fail "expected Escalated, got Ok");
        Alcotest.check bool_v "no stranded child" false stranded);
    case "start_child and stop_child manage the set dynamically" (fun () ->
        let up_after_start, up_after_stop, r =
          value
            ( lift (fun () -> ref 0) >>= fun n ->
              Sup.start [] >>= fun sup ->
              Sup.start_child sup (beat_child n "late") >>= fun () ->
              wait_cond "late child never came up" (Sup.child_up sup "late")
              >>= fun () ->
              Sup.child_up sup "late" >>= fun up1 ->
              Sup.stop_child sup "late" >>= fun () ->
              wait_cond "late child never stopped"
                (Sup.child_up sup "late" >>= fun up -> return (not up))
              >>= fun () ->
              Sup.child_up sup "late" >>= fun up2 ->
              Sup.stop sup >>= fun r -> return (up1, up2, r) )
        in
        Alcotest.check bool_v "up after start_child" true up_after_start;
        Alcotest.check bool_v "down after stop_child" false up_after_stop;
        Alcotest.check bool_v "graceful stop" true (r = Stdlib.Ok ()));
    case "a stopped child stays stopped through an all_for_one restart"
      (fun () ->
        (* stop_child's request and a sibling's crash both reach the
           mailbox before the stopped child's exit: the collective restart's drain
           consumes that exit, and must retire the slot, not respawn it *)
        let kids, starts =
          value
            ( lift (fun () -> ref 0) >>= fun n ->
              Hio.Mvar.new_empty >>= fun gate ->
              Sup.start ~strategy:Sup.All_for_one
                [
                  beat_child n "a";
                  Sup.child "b"
                    (Hio.Mvar.take gate >>= fun () -> throw (Failure "boom"));
                ]
              >>= fun sup ->
              sleep 2 >>= fun () ->
              Sup.stop_child sup "a" >>= fun () ->
              Hio.Mvar.put gate () >>= fun () ->
              wait_starts sup "b" 2 >>= fun () ->
              yields 50 >>= fun () ->
              Sup.children sup >>= fun kids ->
              Sup.child_starts sup "a" >>= fun starts ->
              Sup.stop sup >>= fun _ -> return (kids, starts) )
        in
        Alcotest.check Alcotest.(list (pair string bool)) "only b runs"
          [ ("b", true) ] kids;
        Alcotest.check int_v "a started once" 1 starts);
    case "a supervisor's cost is bounded by its live children" (fun () ->
        (* a retired child leaves the supervisor: after 200 workers have
           come and gone, stopping it costs what stopping one that never
           had a child costs *)
        let stop_steps sup =
          yields 10 >>= fun () ->
          steps >>= fun s0 ->
          Sup.stop sup >>= fun _ ->
          steps >>= fun s1 -> return (s1 - s0)
        in
        let kids, starts, cost, empty_cost =
          value
            ( Sup.start
                (List.init 200 (fun _ ->
                     Sup.child ~lifetime:Sup.Transient "w" (return ())))
              >>= fun sup ->
              wait_cond ~rounds:20_000 "workers never retired"
                ( Sup.children sup >>= fun kids ->
                  Sup.child_starts sup "w" >>= fun n ->
                  return (kids = [] && n = 200) )
              >>= fun () ->
              Sup.children sup >>= fun kids ->
              Sup.child_starts sup "w" >>= fun starts ->
              stop_steps sup >>= fun cost ->
              Sup.start [] >>= fun empty ->
              stop_steps empty >>= fun empty_cost ->
              return (kids, starts, cost, empty_cost) )
        in
        Alcotest.check Alcotest.(list (pair string bool)) "no children" [] kids;
        Alcotest.check int_v "every worker started" 200 starts;
        Alcotest.check int_v "stop steps" empty_cost cost);
    case "a killed supervisor takes its children down" (fun () ->
        let r, stranded =
          value
            ( lift (fun () -> ref 0) >>= fun beats ->
              Sup.start [ beat_child beats "a" ] >>= fun sup ->
              yields 5 >>= fun () ->
              throw_to (Sup.thread sup) Kill_thread >>= fun () ->
              Sup.await sup >>= fun r ->
              lift (fun () -> !beats) >>= fun b0 ->
              yields 10 >>= fun () ->
              lift (fun () -> !beats) >>= fun b1 ->
              return (r, b1 <> b0) )
        in
        Alcotest.check bool_v "killed" true (r = Stdlib.Error Kill_thread);
        Alcotest.check bool_v "no stranded child" false stranded);
    case "a child killed again while reporting its exit is still marked down"
      (fun () ->
        (* [stop] kills every child at once; they all report their exit
           on the supervisor's channel, and the one waiting for its
           write cursor takes a second kill — the report must still
           arrive, or [stop] waits for that child forever *)
        let names = List.init 8 (Printf.sprintf "c%d") in
        let hit, r, kids =
          value
            ( Sup.start
                (List.map (fun n -> Sup.child n (sleep 1_000_000)) names)
              >>= fun sup ->
              yields 20 >>= fun () ->
              let rec tids acc = function
                | [] -> return acc
                | n :: rest ->
                    Sup.child_tid sup n >>= fun t ->
                    tids (Option.to_list t @ acc) rest
              in
              tids [] names >>= fun ts ->
              Hio.Mvar.new_empty >>= fun stopped ->
              fork (Sup.stop sup >>= Hio.Mvar.put stopped) >>= fun _ ->
              kill_first_waiting ts >>= fun hit ->
              Hio.Mvar.take stopped >>= fun r ->
              Sup.children sup >>= fun kids -> return (hit, r, kids) )
        in
        Alcotest.check bool_v "a reporting child took the second kill" true hit;
        Alcotest.check bool_v "stop returned Ok" true (r = Stdlib.Ok ());
        Alcotest.check
          Alcotest.(list (pair string bool))
          "every child down"
          (List.map (fun n -> (n, false)) names)
          kids);
  ]

(* --- retry ---------------------------------------------------------------- *)

let retry_tests =
  [
    case "backoff grows exponentially and saturates" (fun () ->
        let raw k = Retry.backoff ~jitter:1 k in
        Alcotest.check int_v "k=1" 10 (raw 1);
        Alcotest.check int_v "k=2" 20 (raw 2);
        Alcotest.check int_v "k=3" 40 (raw 3);
        Alcotest.check int_v "saturates" 5_000 (raw 30);
        List.iter
          (fun k ->
            let d = Retry.backoff k in
            let floor = Retry.backoff ~jitter:1 k in
            Alcotest.check bool_v "jitter bounded" true
              (d >= floor && d < floor + 8))
          [ 1; 2; 3; 10; 40 ]);
    case "schedule is the first n backoffs" (fun () ->
        Alcotest.(check (list int))
          "schedule"
          [ Retry.backoff 1; Retry.backoff 2; Retry.backoff 3 ]
          (Retry.schedule 3));
    case "retry succeeds once the fault clears" (fun () ->
        let v, calls =
          value
            ( lift (fun () -> ref 0) >>= fun n ->
              Retry.retry ~attempts:5
                ( lift (fun () -> incr n; !n) >>= fun k ->
                  if k < 3 then throw (Failure "flaky") else return (k * 10) )
              >>= fun v -> lift (fun () -> (v, !n)) )
        in
        Alcotest.check int_v "value" 30 v;
        Alcotest.check int_v "calls" 3 calls);
    case "retry exhausts attempts and rethrows the last error" (fun () ->
        let e, calls =
          value
            ( lift (fun () -> ref 0) >>= fun n ->
              catch
                ( Retry.retry ~attempts:3
                    (lift (fun () -> incr n) >>= fun () ->
                     throw (Failure "always"))
                  >>= fun () -> return None )
                (fun e -> return (Some e))
              >>= fun e -> lift (fun () -> (e, !n)) )
        in
        Alcotest.check bool_v "failure" true (e = Some (Failure "always"));
        Alcotest.check int_v "all attempts used" 3 calls);
    case "retry never retries a kill" (fun () ->
        let calls =
          value
            ( lift (fun () -> ref 0) >>= fun n ->
              catch
                (Retry.retry ~attempts:5
                   (lift (fun () -> incr n) >>= fun () -> throw Kill_thread))
                (fun _ -> return ())
              >>= fun () -> lift (fun () -> !n) )
        in
        Alcotest.check int_v "one call only" 1 calls);
    case "transient_io retries resource exhaustion, then gives up at the cap"
      (fun () ->
        (* Too_many_fds is transient (EMFILE clears when load drains), so
           the retry loop redials — but a fault that never clears must
           exhaust [attempts] and surface, not spin forever. *)
        let calls, gave_up =
          value
            ( lift (fun () -> ref 0) >>= fun n ->
              catch
                ( Retry.retry ~attempts:3 ~retry_on:Retry.transient_io
                    (lift (fun () -> incr n) >>= fun () ->
                     throw Ev.Backend.Too_many_fds)
                  >>= fun () -> return false )
                (fun e -> return (e = Ev.Backend.Too_many_fds))
              >>= fun gave_up -> lift (fun () -> (!n, gave_up)) )
        in
        Alcotest.check int_v "all attempts used" 3 calls;
        Alcotest.check bool_v "last error re-thrown" true gave_up);
    case "transient_io never retries an application error" (fun () ->
        let calls =
          value
            ( lift (fun () -> ref 0) >>= fun n ->
              catch
                (Retry.retry ~attempts:5 ~retry_on:Retry.transient_io
                   (lift (fun () -> incr n) >>= fun () ->
                    throw (Failure "bug")))
                (fun _ -> return ())
              >>= fun () -> lift (fun () -> !n) )
        in
        Alcotest.check int_v "one call only" 1 calls);
    case "retry costs the advertised virtual time" (fun () ->
        let elapsed =
          value
            ( now >>= fun t0 ->
              lift (fun () -> ref 0) >>= fun n ->
              Retry.retry ~attempts:4
                ( lift (fun () -> incr n; !n) >>= fun k ->
                  if k < 4 then throw (Failure "flaky") else return () )
              >>= fun () ->
              now >>= fun t1 -> return (t1 - t0) )
        in
        let expected =
          List.fold_left ( + ) 0 (Retry.schedule 3)
        in
        Alcotest.check int_v "sum of the schedule" expected elapsed);
  ]

(* --- breaker -------------------------------------------------------------- *)

let fail_n_then_ok b n =
  (* run [n] failing calls through the breaker, swallowing the errors *)
  Combinators.repeat n
    (catch
       (Breaker.run b (throw (Failure "down")) >>= fun () -> return ())
       (fun _ -> return ()))

let breaker_tests =
  [
    case "breaker trips open at the threshold and fails fast" (fun () ->
        let st, rejected =
          value
            ( Breaker.create ~failure_threshold:2 () >>= fun b ->
              fail_n_then_ok b 2 >>= fun () ->
              Breaker.state b >>= fun st ->
              catch
                (Breaker.run b (return ()) >>= fun () -> return false)
                (function
                  | Breaker.Open_circuit -> return true | e -> throw e)
              >>= fun rejected -> return (st, rejected) )
        in
        Alcotest.check bool_v "open" true (st = Breaker.Open);
        Alcotest.check bool_v "fail fast" true rejected);
    case "half-open trial success closes the breaker" (fun () ->
        let st =
          value
            ( Breaker.create ~failure_threshold:1 ~reset_timeout:100 ()
              >>= fun b ->
              fail_n_then_ok b 1 >>= fun () ->
              sleep 150 >>= fun () ->
              Breaker.run b (return ()) >>= fun () -> Breaker.state b )
        in
        Alcotest.check bool_v "closed again" true (st = Breaker.Closed));
    case "half-open trial failure re-opens it" (fun () ->
        let st =
          value
            ( Breaker.create ~failure_threshold:1 ~reset_timeout:100 ()
              >>= fun b ->
              fail_n_then_ok b 1 >>= fun () ->
              sleep 150 >>= fun () ->
              fail_n_then_ok b 1 >>= fun () -> Breaker.state b )
        in
        Alcotest.check bool_v "open again" true (st = Breaker.Open));
    case "half-open admits exactly one concurrent probe" (fun () ->
        (* four callers race into the reset window; the breaker must
           admit exactly one as the half-open trial and fail the rest
           fast while it is in flight *)
        let admitted, rejected, st =
          value
            ( Breaker.create ~failure_threshold:1 ~reset_timeout:100 ()
              >>= fun b ->
              fail_n_then_ok b 1 >>= fun () ->
              sleep 150 >>= fun () ->
              lift (fun () -> (ref 0, ref 0)) >>= fun (adm, rej) ->
              let probe =
                catch
                  (Breaker.run b (sleep 50) >>= fun () ->
                   lift (fun () -> incr adm))
                  (function
                    | Breaker.Open_circuit -> lift (fun () -> incr rej)
                    | e -> throw e)
              in
              Combinators.parallel_map Task.spawn
                [ probe; probe; probe; probe ]
              >>= fun ts ->
              let rec join_all = function
                | [] -> return ()
                | t :: rest -> Task.await t >>= fun () -> join_all rest
              in
              join_all ts >>= fun () ->
              Breaker.state b >>= fun st ->
              lift (fun () -> (!adm, !rej, st)) )
        in
        Alcotest.check int_v "exactly one probe admitted" 1 admitted;
        Alcotest.check int_v "the rest failed fast" 3 rejected;
        Alcotest.check bool_v "probe success closed it" true
          (st = Breaker.Closed));
    case "a kill does not count as a service failure" (fun () ->
        let st =
          value
            ( Breaker.create ~failure_threshold:1 () >>= fun b ->
              Task.spawn ~name:"victim"
                (catch
                   (Breaker.run b (Combinators.forever yield))
                   (fun _ -> return ()))
              >>= fun t ->
              yields 3 >>= fun () ->
              Task.cancel t >>= fun () ->
              catch (Task.await t) (fun _ -> return ()) >>= fun () ->
              Breaker.state b )
        in
        Alcotest.check bool_v "still closed" true (st = Breaker.Closed));
    case "note_failure counts every exception but a kill" (fun () ->
        (* the brownout surface shares [run]'s built-in filter: kills
           never trip the breaker, nor re-trip it past the reset window *)
        let killed, tripped, reopened, kill_past_window, retripped =
          value
            ( Breaker.create ~failure_threshold:2 ~reset_timeout:100 ()
              >>= fun b ->
              let note e = Breaker.note_failure b e in
              note Kill_thread >>= fun () ->
              note Kill_thread >>= fun () ->
              note Kill_thread >>= fun () ->
              Breaker.state b >>= fun killed ->
              note (Failure "down") >>= fun () ->
              note (Failure "down") >>= fun () ->
              Breaker.rejecting b >>= fun tripped ->
              sleep 150 >>= fun () ->
              Breaker.rejecting b >>= fun reopened ->
              note Kill_thread >>= fun () ->
              Breaker.rejecting b >>= fun kill_past_window ->
              note (Failure "down") >>= fun () ->
              Breaker.rejecting b >>= fun retripped ->
              return (killed, tripped, reopened, kill_past_window, retripped)
            )
        in
        Alcotest.check bool_v "kills leave it closed" true
          (killed = Breaker.Closed);
        Alcotest.check bool_v "two failures trip it" true tripped;
        Alcotest.check bool_v "traffic flows past the window" false reopened;
        Alcotest.check bool_v "a kill past the window does not re-trip"
          false kill_past_window;
        Alcotest.check bool_v "a failure past the window re-trips" true
          retripped);
  ]

(* --- bulkhead ------------------------------------------------------------- *)

let bulkhead_tests =
  [
    case "bulkhead sheds past capacity + waiting" (fun () ->
        let oks, sheds, left =
          value
            ( Bulkhead.create ~capacity:2 ~max_waiting:1 () >>= fun bh ->
              lift (fun () -> (ref 0, ref 0)) >>= fun (oks, sheds) ->
              let job =
                Bulkhead.run bh (yields 3) >>= function
                | Stdlib.Ok () -> lift (fun () -> incr oks)
                | Stdlib.Error `Shed -> lift (fun () -> incr sheds)
              in
              Combinators.parallel_map Task.spawn [ job; job; job; job; job ]
              >>= fun ts ->
              let rec join_all = function
                | [] -> return ()
                | t :: rest -> Task.await t >>= fun () -> join_all rest
              in
              join_all ts >>= fun () ->
              Bulkhead.entered bh >>= fun left ->
              lift (fun () -> (!oks, !sheds, left)) )
        in
        Alcotest.check int_v "admitted" 3 oks;
        Alcotest.check int_v "shed" 2 sheds;
        Alcotest.check int_v "drained" 0 left);
    case "a killed occupant returns its slot" (fun () ->
        let left, after =
          value
            ( Bulkhead.create ~capacity:1 () >>= fun bh ->
              Task.spawn ~name:"occupant"
                (ignore_result (Bulkhead.run bh (Combinators.forever yield)))
              >>= fun t ->
              yields 3 >>= fun () ->
              Task.cancel t >>= fun () ->
              catch (Task.await t) (fun _ -> return ()) >>= fun () ->
              Bulkhead.entered bh >>= fun left ->
              Bulkhead.run bh (return ()) >>= fun r ->
              return (left, r = Stdlib.Ok ()) )
        in
        Alcotest.check int_v "slot returned" 0 left;
        Alcotest.check bool_v "fresh call admitted" true after);
    case "CoDel queue deadline sheds an overstaying waiter" (fun () ->
        (* the slot is held far past [queue_target]; the waiter must be
           shed from the queue once its sojourn crosses the target, not
           park until the occupant is done *)
        let reg = Obs.Metrics.create () in
        let labels = [ ("name", "default") ] in
        let r, waited =
          value
            ( Bulkhead.create ~metrics:reg ~capacity:1 ~max_waiting:1
                ~queue_target:50 ()
              >>= fun bh ->
              Task.spawn ~name:"occupant"
                (ignore_result (Bulkhead.run bh (sleep 500)))
              >>= fun t ->
              yields 2 >>= fun () ->
              now >>= fun t0 ->
              Bulkhead.run bh (return ()) >>= fun r ->
              now >>= fun t1 ->
              Task.cancel t >>= fun () ->
              catch (Task.await t) (fun _ -> return ()) >>= fun () ->
              return (r, t1 - t0) )
        in
        let qshed =
          Obs.Metrics.counter_value
            (Obs.Metrics.counter reg ~labels "sup_bulkhead_queue_shed_total")
        and maxd =
          Obs.Metrics.gauge_max
            (Obs.Metrics.gauge reg ~labels "sup_bulkhead_queue_delay")
        in
        Alcotest.check bool_v "shed by queue deadline" true
          (r = Stdlib.Error `Shed);
        Alcotest.check bool_v "shed at the target, not at slot release" true
          (waited >= 50 && waited < 500);
        Alcotest.check int_v "queue shed counted" 1 qshed;
        Alcotest.check bool_v "worst sojourn near the target" true
          (maxd >= 50 && maxd < 500));
  ]

(* --- deadline ------------------------------------------------------------- *)

let deadline_tests =
  [
    case "remaining counts down on the virtual clock" (fun () ->
        let rem0, exp0, rem1, exp1 =
          value
            ( Deadline.mint 100 >>= fun d ->
              Deadline.remaining d >>= fun r0 ->
              Deadline.expired d >>= fun e0 ->
              sleep 150 >>= fun () ->
              Deadline.remaining d >>= fun r1 ->
              Deadline.expired d >>= fun e1 -> return (r0, e0, r1, e1) )
        in
        Alcotest.check int_v "full budget at mint" 100 rem0;
        Alcotest.check bool_v "fresh" false exp0;
        Alcotest.check bool_v "spent after the budget" true exp1;
        Alcotest.check bool_v "remaining non-positive" true (rem1 <= 0));
    case "timeout bounds by the remaining budget, not a fresh one" (fun () ->
        let won, lost, elapsed =
          value
            ( Deadline.mint 100 >>= fun d ->
              sleep 40 >>= fun () ->
              Deadline.timeout d (sleep 30 >>= fun () -> return `Done)
              >>= fun won ->
              Deadline.mint 100 >>= fun d2 ->
              sleep 40 >>= fun () ->
              now >>= fun t0 ->
              Deadline.timeout d2 (sleep 300 >>= fun () -> return `Done)
              >>= fun lost ->
              now >>= fun t1 -> return (won, lost, t1 - t0) )
        in
        Alcotest.check bool_v "inside the budget" true (won = Some `Done);
        Alcotest.check bool_v "past the budget" true (lost = None);
        (* the nested bound is the 60us remainder, not the 100us budget *)
        Alcotest.check int_v "cut at the remainder" 60 elapsed);
    case "an expired deadline sheds early without running the body"
      (fun () ->
        let ran, r =
          value
            ( lift (fun () -> ref false) >>= fun ran ->
              Deadline.mint 50 >>= fun d ->
              sleep 60 >>= fun () ->
              Deadline.timeout d (lift (fun () -> ran := true)) >>= fun r ->
              lift (fun () -> (!ran, r)) )
        in
        Alcotest.check bool_v "body never ran" false ran;
        Alcotest.check bool_v "early shed" true (r = None));
  ]

(* --- the supervised server ------------------------------------------------ *)

let get server path =
  Hserver.Server.connect server >>= fun conn ->
  Hserver.Http.write_request conn
    { Hserver.Http.meth = "GET"; path; headers = []; body = "" }
  >>= fun () -> Hserver.Http.read_response conn

let server_tests =
  [
    case "killed worker degrades to 503 and is counted as a restart"
      (fun () ->
        let status, restarts =
          value
            ( Hserver.Server.start
                ~config:
                  {
                    Hserver.Server.default_config with
                    request_timeout = 2_000;
                  }
                (fun _ -> sleep 500 >>= fun () -> return (Hserver.Http.ok "late"))
              >>= fun server ->
              Task.spawn ~name:"client" (get server "/slow") >>= fun t ->
              let sup = Option.get (Hserver.Server.supervisor server) in
              wait_cond "no worker" (Sup.child_up sup "conn-worker")
              >>= fun () ->
              (* let the worker get properly into the handler (it sleeps
                 500): a kill before its first step would find the request
                 unconsumed and legitimately re-serve it with a 200 *)
              sleep 100 >>= fun () ->
              Sup.child_tid sup "conn-worker" >>= fun tid ->
              throw_to (Option.get tid) Kill_thread >>= fun () ->
              Task.await t >>= fun response ->
              Hserver.Server.shutdown server >>= fun stats ->
              return (response.Hserver.Http.status, stats.Hserver.Server.restarts) )
        in
        Alcotest.check int_v "degraded" 503 status;
        Alcotest.check int_v "one restart" 1 restarts);
    case "saturation sheds 503 instead of queueing" (fun () ->
        let sheds, oks =
          value
            ( Hserver.Server.start
                ~config:
                  {
                    Hserver.Server.default_config with
                    max_concurrent = 1;
                    max_waiting = 1;
                    request_timeout = 2_000;
                  }
                (fun _ -> sleep 50 >>= fun () -> return (Hserver.Http.ok "hi"))
              >>= fun server ->
              Combinators.parallel_map Task.spawn
                [ get server "/"; get server "/"; get server "/";
                  get server "/" ]
              >>= fun ts ->
              let rec statuses = function
                | [] -> return []
                | t :: rest ->
                    Task.await t >>= fun r ->
                    statuses rest >>= fun tl ->
                    return (r.Hserver.Http.status :: tl)
              in
              statuses ts >>= fun sts ->
              Hserver.Server.shutdown server >>= fun stats ->
              ignore stats;
              return
                ( List.length (List.filter (( = ) 503) sts),
                  List.length (List.filter (( = ) 200) sts) ) )
        in
        Alcotest.check bool_v "someone was shed" true (sheds >= 1);
        Alcotest.check bool_v "someone was served" true (oks >= 1);
        Alcotest.check int_v "every request answered" 4 (sheds + oks));
  ]

(* --- properties ----------------------------------------------------------- *)

let prop name count gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* A random kill schedule: how long to wait (in virtual µs) before each
   successive kill of the supervised child. *)
let gen_kill_schedule =
  QCheck2.Gen.(list_size (int_range 1 12) (int_range 0 400))

(* The intensity invariant, straight off the restart log: no point in
   virtual time sees more than [max_restarts] restarts within the
   trailing [window] — one more would have escalated instead. *)
let window_respected ~max_restarts ~window log =
  List.for_all
    (fun (t, _) ->
      let in_window =
        List.filter (fun (u, _) -> t - u <= window && u <= t) log
      in
      List.length in_window <= max_restarts)
    log

let prop_tests =
  [
    prop "restart intensity window is never exceeded" 60 gen_kill_schedule
      (fun delays ->
        let max_restarts = 3 and window = 500 in
        let log, escalated =
          value
            ( lift (fun () -> ref 0) >>= fun beats ->
              Sup.start
                ~intensity:{ Sup.max_restarts; window }
                [ beat_child beats "a" ]
              >>= fun sup ->
              let rec drive = function
                | [] -> return ()
                | d :: rest ->
                    sleep d >>= fun () ->
                    Sup.alive sup >>= fun alive ->
                    if not alive then return ()
                    else
                      Sup.child_tid sup "a" >>= fun tid ->
                      (match tid with
                      | Some tid -> throw_to tid Kill_thread
                      | None -> return ())
                      >>= fun () ->
                      yields 5 >>= fun () -> drive rest
              in
              drive delays >>= fun () ->
              Sup.restart_log sup >>= fun log ->
              Sup.alive sup >>= fun alive ->
              (if alive then Sup.stop sup >>= fun _ -> return ()
               else return ())
              >>= fun () -> return (log, not alive) )
        in
        ignore escalated;
        window_respected ~max_restarts ~window log);
    prop "backoff schedule is deterministic and jobs-invariant" 20
      QCheck2.Gen.(int_range 1 40)
      (fun n ->
        let ks = Array.init n (fun i -> i + 1) in
        let seq = Array.map Retry.backoff ks in
        let par1 = Par.map ~jobs:1 Retry.backoff ks in
        let par4 = Par.map ~jobs:4 Retry.backoff ks in
        seq = par1 && seq = par4
        && Retry.schedule n = Array.to_list seq);
  ]

let suites =
  [
    ("sup", sup_tests);
    ("sup_retry", retry_tests);
    ("sup_breaker", breaker_tests);
    ("sup_bulkhead", bulkhead_tests);
    ("sup_deadline", deadline_tests);
    ("sup_server", server_tests);
    ("sup_props", prop_tests);
  ]
