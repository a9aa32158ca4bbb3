(* The actor layer (lib/actor): mailboxes with selective receive,
   exception links, monitors, call/stop, the consistent-hash ring, and
   the sharded server — plus the ordering guarantees ISSUE 8 asks for:
   per-sender FIFO under random schedules (QCheck over seeds) and
   Down-exactly-once under the kill sweep. *)

open Hio
open Hio_std
open Hio.Io
open Hserver
open Hactor
open Helpers

let int_v = Alcotest.int
let bool_v = Alcotest.bool

(* --- mailbox ------------------------------------------------------------ *)

let mailbox_tests =
  [
    case "push/next is FIFO" (fun () ->
        Alcotest.(check (list int_v)) "order" [ 1; 2; 3 ]
          (value
             ( Mailbox.create () >>= fun mb ->
               Mailbox.push mb 1 >>= fun () ->
               Mailbox.push mb 2 >>= fun () ->
               Mailbox.push mb 3 >>= fun () ->
               Mailbox.next mb >>= fun a ->
               Mailbox.next mb >>= fun b ->
               Mailbox.next mb >>= fun c -> return [ a; b; c ] )));
    case "selective receive stashes non-matches in order" (fun () ->
        (* receive the odd one out first; the stashed rest keep FIFO *)
        Alcotest.(check (list int_v)) "order" [ 10; 1; 2; 3 ]
          (value
             ( Mailbox.create () >>= fun mb ->
               Mailbox.push mb 1 >>= fun () ->
               Mailbox.push mb 2 >>= fun () ->
               Mailbox.push mb 10 >>= fun () ->
               Mailbox.push mb 3 >>= fun () ->
               Mailbox.receive mb (fun n -> if n >= 10 then Some n else None)
               >>= fun big ->
               Mailbox.stashed mb >>= fun stashed ->
               Alcotest.check int_v "stashed" 2 stashed;
               Mailbox.next mb >>= fun a ->
               Mailbox.next mb >>= fun b ->
               Mailbox.next mb >>= fun c -> return [ big; a; b; c ] )));
    case "stash is re-scanned before new arrivals" (fun () ->
        Alcotest.check int_v "stashed match" 7
          (value
             ( Mailbox.create () >>= fun mb ->
               Mailbox.push mb 7 >>= fun () ->
               Mailbox.push mb 8 >>= fun () ->
               (* parks 7, takes 8 *)
               Mailbox.receive mb (fun n -> if n = 8 then Some n else None)
               >>= fun _ ->
               (* 7 must come from the stash, not block *)
               Mailbox.receive mb (fun n -> if n = 7 then Some n else None) )));
    case "receive_timeout: None on silence, no ghost wakeup after" (fun () ->
        Alcotest.(check (pair (option int_v) int_v)) "expiry then delivery"
          (None, 42)
          (value
             ( Mailbox.create () >>= fun mb ->
               Mailbox.receive_timeout 50 mb (fun n -> Some n) >>= fun o ->
               Mailbox.push mb 42 >>= fun () ->
               (* a stale Timer_signal from the first wait would break
                  this receive *)
               Mailbox.next mb >>= fun v -> return (o, v) )));
    case "receive_timeout: delivery beats a later deadline" (fun () ->
        Alcotest.(check (option int_v)) "delivered" (Some 5)
          (value
             ( Mailbox.create () >>= fun mb ->
               fork (sleep 10 >>= fun () -> Mailbox.push mb 5) >>= fun _ ->
               Mailbox.receive_timeout 1_000 mb (fun n -> Some n) )));
    case "bound sheds newest; urgent bypasses; drops are accounted"
      (fun () ->
        let reg = Obs.Metrics.create () in
        let taken, len, shed_msgs =
          value
            ( lift (fun () -> ref []) >>= fun drops ->
              Mailbox.create ~bound:2
                ~on_drop:(fun m -> drops := m :: !drops)
                ~metrics:reg ()
              >>= fun mb ->
              Mailbox.push mb 1 >>= fun () ->
              Mailbox.push mb 2 >>= fun () ->
              (* full: the NEW message is shed, older ones stay *)
              Mailbox.push mb 3 >>= fun () ->
              (* control messages ignore the bound *)
              Mailbox.push_urgent mb 99 >>= fun () ->
              Mailbox.length mb >>= fun len ->
              Mailbox.next mb >>= fun a ->
              Mailbox.next mb >>= fun b ->
              Mailbox.next mb >>= fun c ->
              lift (fun () -> ([ a; b; c ], len, !drops)) )
        in
        let hw =
          Obs.Metrics.gauge_max
            (Obs.Metrics.gauge reg ~labels:[ ("name", "mailbox") ]
               "mailbox_depth")
        in
        Alcotest.(check (list int_v)) "oldest kept, newest shed" [ 1; 2; 99 ]
          taken;
        Alcotest.check int_v "length counts queued + urgent" 3 len;
        Alcotest.check int_v "high-water" 3 hw;
        Alcotest.(check (list int_v)) "one drop: on_drop saw the shed message"
          [ 3 ] shed_msgs);
    case "a push killed waiting for the write cursor leaves length exact"
      (fun () ->
        let hit, len, got, after =
          value
            ( Mailbox.create () >>= fun mb ->
              (* eight pushers woken together: the later ones queue for
                 the write cursor the first one holds *)
              let rec pushers i acc =
                if i > 8 then return acc
                else
                  fork (sleep 10 >>= fun () -> Mailbox.push mb i) >>= fun t ->
                  pushers (i + 1) (t :: acc)
              in
              pushers 1 [] >>= fun tids ->
              sleep 10 >>= fun () ->
              kill_first_waiting tids >>= fun hit ->
              yields 50 >>= fun () ->
              Mailbox.length mb >>= fun len ->
              let rec drain acc =
                Mailbox.receive_timeout 10 mb Option.some >>= function
                | Some m -> drain (m :: acc)
                | None -> return acc
              in
              drain [] >>= fun got ->
              Mailbox.length mb >>= fun after ->
              return (hit, len, List.length got, after) )
        in
        Alcotest.check bool_v "a pusher was killed at the cursor" true hit;
        Alcotest.check int_v "one message lost with its pusher" 7 got;
        Alcotest.check int_v "length counts only queued messages" got len;
        Alcotest.check int_v "empty after draining" 0 after);
    case "mailbox_depth gauge records the high-water mark" (fun () ->
        let worst =
          value
            ( lift (fun () -> Obs.Metrics.create ()) >>= fun registry ->
              Mailbox.create ~metrics:registry ~name:"mb-test" ()
              >>= fun mb ->
              Mailbox.push mb 1 >>= fun () ->
              Mailbox.push mb 2 >>= fun () ->
              Mailbox.next mb >>= fun _ ->
              lift (fun () ->
                  Obs.Metrics.gauge_max
                    (Obs.Metrics.gauge registry
                       ~labels:[ ("name", "mb-test") ]
                       "mailbox_depth")) )
        in
        Alcotest.check int_v "worst depth" 2 worst);
  ]

(* --- QCheck: per-sender FIFO under random schedules --------------------- *)

(* Three senders interleave their numbered messages into one mailbox
   under a Random-policy scheduler; however the schedule lands, the
   receiver must see each sender's messages in their send order. *)
let fifo_property seed =
  let senders = 3 and per_sender = 5 in
  let io =
    Mailbox.create () >>= fun mb ->
    let sender s =
      let rec go k =
        if k >= per_sender then return ()
        else
          Mailbox.push mb (s, k) >>= fun () ->
          yield >>= fun () -> go (k + 1)
      in
      go 0
    in
    let rec spawn s acc =
      if s >= senders then return acc
      else Task.spawn (sender s) >>= fun t -> spawn (s + 1) (t :: acc)
    in
    spawn 0 [] >>= fun _tasks ->
    let rec drain n acc =
      if n = 0 then return (List.rev acc)
      else Mailbox.next mb >>= fun m -> drain (n - 1) (m :: acc)
    in
    drain (senders * per_sender) []
  in
  match (run_seed seed io).Runtime.outcome with
  | Runtime.Value msgs ->
      let last = Array.make senders (-1) in
      List.for_all
        (fun (s, k) ->
          let ok = k > last.(s) in
          last.(s) <- k;
          ok)
        msgs
  | _ -> false

let qcheck_fifo =
  QCheck.Test.make ~count:100 ~name:"mailbox: per-sender FIFO, random schedules"
    QCheck.small_nat fifo_property

(* --- actors: links, monitors, call, stop -------------------------------- *)

let actor_tests =
  [
    case "spawn/send/receive round-trip" (fun () ->
        Alcotest.check int_v "sum" 6
          (value
             ( Mvar.new_empty >>= fun result ->
               Actor.spawn ~name:"summer" (fun self ->
                   Actor.receive self (fun n -> Some n) >>= fun a ->
                   Actor.receive self (fun n -> Some n) >>= fun b ->
                   Actor.receive self (fun n -> Some n) >>= fun c ->
                   Mvar.put result (a + b + c))
               >>= fun a ->
               Actor.send a 1 >>= fun () ->
               Actor.send a 2 >>= fun () ->
               Actor.send a 3 >>= fun () -> Mvar.read result )));
    case "stop is a FIFO barrier: prior messages processed first" (fun () ->
        Alcotest.(check (pair int_v bool_v)) "all processed, clean stop" (3, true)
          (value
             ( lift (fun () -> ref 0) >>= fun count ->
               Actor.spawn ~name:"worker" (fun self ->
                   Combinators.forever
                     ( Actor.receive self (fun () -> Some ()) >>= fun () ->
                       lift (fun () -> incr count) ))
               >>= fun a ->
               Actor.send a () >>= fun () ->
               Actor.send a () >>= fun () ->
               Actor.send a () >>= fun () ->
               Actor.stop a >>= fun r ->
               lift (fun () -> (!count, r = Stdlib.Ok ())) )));
    case "await returns the crash; links deliver Exit_signal" (fun () ->
        let reason_is_boom, parent_got_signal =
          value
            ( Mvar.new_empty >>= fun saw ->
              Actor.spawn ~name:"parent" (fun self ->
                  Actor.spawn_link ~parent:self ~name:"child" (fun _ ->
                      throw (Failure "boom"))
                  >>= fun _child ->
                  catch
                    (Actor.receive self (fun `Never -> (None : unit option)))
                    (function
                      | Actor.Exit_signal { reason = Failure m; _ } ->
                          Mvar.put saw m
                      | e -> throw e))
              >>= fun parent ->
              Mvar.read saw >>= fun m ->
              Actor.await parent >>= fun r ->
              return (m = "boom", r = Stdlib.Ok ()) )
        in
        Alcotest.check bool_v "link carried the reason" true reason_is_boom;
        Alcotest.check bool_v "parent handled it, exited normally" true
          parent_got_signal);
    case "normal exit does not fire the link" (fun () ->
        Alcotest.check bool_v "parent unbothered" true
          (value
             ( Actor.spawn ~name:"parent" (fun self ->
                   Actor.spawn_link ~parent:self ~name:"quiet" (fun _ ->
                       return ())
                   >>= fun child ->
                   Actor.await child >>= fun _ ->
                   (* if a signal were in flight it would land at this
                      interruptible wait *)
                   Actor.receive_timeout 50 self (fun `Never ->
                       (None : unit option))
                   >>= fun _ -> return ())
               >>= fun parent ->
               Actor.await parent >>= fun r -> return (r = Stdlib.Ok ()) )));
    case "monitor: one Down, demonitor: none" (fun () ->
        Alcotest.(check (pair int_v int_v)) "downs" (1, 0)
          (value
             ( lift (fun () -> (ref 0, ref 0)) >>= fun (d1, d2) ->
               let watcher_body counter self =
                 Combinators.forever
                   ( Actor.receive self (fun (`Down _) -> Some ())
                     >>= fun () -> lift (fun () -> incr counter) )
               in
               Actor.spawn ~name:"w1" (watcher_body d1) >>= fun w1 ->
               Actor.spawn ~name:"w2" (watcher_body d2) >>= fun w2 ->
               Actor.spawn ~name:"victim" (fun self ->
                   Actor.receive self (fun `Die -> Some ()) >>= fun () ->
                   throw (Failure "x"))
               >>= fun v ->
               Actor.monitor ~watcher:w1 ~inject:(fun d -> `Down d) v
               >>= fun _m1 ->
               Actor.monitor ~watcher:w2 ~inject:(fun d -> `Down d) v
               >>= fun m2 ->
               Actor.demonitor m2 >>= fun () ->
               Actor.send v `Die >>= fun () ->
               Actor.await v >>= fun _ ->
               yields 10 >>= fun () ->
               Actor.stop w1 >>= fun _ ->
               Actor.stop w2 >>= fun _ ->
               lift (fun () -> (!d1, !d2)) )));
    case "monitoring a dead actor fires immediately (noproc)" (fun () ->
        Alcotest.check bool_v "down arrived" true
          (value
             ( Actor.spawn ~name:"gone" (fun _ -> return ()) >>= fun v ->
               Actor.await v >>= fun _ ->
               Actor.spawn ~name:"w" (fun self ->
                   Actor.monitor ~watcher:self ~inject:(fun d -> `Down d) v
                   >>= fun _ ->
                   (* the Down names the dead actor by its id *)
                   Actor.receive self (fun (`Down d) ->
                       if d.Actor.down_id = Actor.id v then Some () else None)
                   >>= fun () -> return ())
               >>= fun w ->
               Actor.await w >>= fun r -> return (r = Stdlib.Ok ()) )));
    case "call round-trips; timeout raises Call_timeout" (fun () ->
        let doubled, timed_out =
          value
            ( Actor.spawn ~name:"doubler" (fun self ->
                  Combinators.forever
                    ( Actor.receive self (fun m -> Some m) >>= function
                      | `Double (n, r) -> Actor.reply r (2 * n)
                      | `Sleepy r ->
                          sleep 10_000 >>= fun () -> Actor.reply r 0 ))
              >>= fun srv ->
              Actor.call srv (fun r -> `Double (21, r)) >>= fun v ->
              catch
                ( Actor.call ~timeout:100 srv (fun r -> `Sleepy r)
                  >>= fun _ -> return false )
                (function
                  | Actor.Call_timeout -> return true
                  | e -> throw e)
              >>= fun timed -> return (v, timed) )
        in
        Alcotest.check int_v "42" 42 doubled;
        Alcotest.check bool_v "timed out" true timed_out);
    case "call to a dead/dying server fails fast with Exit_signal" (fun () ->
        Alcotest.(check (pair bool_v bool_v)) "both fast" (true, true)
          (value
             ( (* already dead *)
               Actor.spawn ~name:"dead" (fun _ -> return ()) >>= fun d ->
               Actor.await d >>= fun _ ->
               catch
                 ( Actor.call d (fun r -> `Get r) >>= fun (_ : int) ->
                   return false )
                 (function
                   | Actor.Exit_signal _ -> return true
                   | e -> throw e)
               >>= fun noproc ->
               (* dies while the call waits: no timeout needed *)
               Actor.spawn ~name:"dying" (fun self ->
                   Actor.receive self (fun (`Get _) -> Some ()) >>= fun () ->
                   throw (Failure "mid-call"))
               >>= fun srv ->
               catch
                 ( Actor.call srv (fun r -> `Get r) >>= fun (_ : int) ->
                   return false )
                 (function
                   | Actor.Exit_signal _ -> return true
                   | e -> throw e)
               >>= fun fast -> return (noproc, fast) )));
    case "a Down survives a second kill of the dying actor" (fun () ->
        (* the victim dies while six senders crowd its watcher's mailbox,
           so its exit protocol's Down push waits for the write cursor;
           a second kill lands there and must not cut the protocol *)
        let hit, got_down, result =
          value
            ( lift (fun () -> ref false) >>= fun got ->
              Actor.spawn ~name:"watcher" (fun self ->
                  sleep 50 >>= fun () ->
                  Actor.receive self (function
                    | `Down _ -> Some ()
                    | `Noise -> None)
                  >>= fun () -> lift (fun () -> got := true))
              >>= fun w ->
              Actor.spawn ~name:"victim" (fun _ ->
                  sleep 10 >>= fun () -> throw (Failure "victim"))
              >>= fun v ->
              Actor.monitor ~watcher:w ~inject:(fun d -> `Down d) v
              >>= fun _ ->
              let rec senders n =
                if n = 0 then return ()
                else
                  fork (sleep 10 >>= fun () -> Actor.send w `Noise)
                  >>= fun _ -> senders (n - 1)
              in
              senders 6 >>= fun () ->
              Actor.tid v >>= fun tid ->
              sleep 10 >>= fun () ->
              kill_first_waiting (Option.to_list tid) >>= fun hit ->
              Actor.await v >>= fun r ->
              Actor.await w >>= fun _ ->
              lift (fun () -> (hit, !got, r)) )
        in
        Alcotest.check bool_v "the dying actor took the second kill" true hit;
        Alcotest.check bool_v "the Down arrived" true got_down;
        Alcotest.check bool_v "its first death is recorded" true
          (result = Stdlib.Error (Failure "victim")));
    case "kill then stop: the recorded result answers immediately" (fun () ->
        Alcotest.check bool_v "stop saw the kill" true
          (value
             ( Actor.spawn ~name:"v" (fun self ->
                   Combinators.forever
                     (Actor.receive self (fun () -> Some ())))
               >>= fun a ->
               Actor.kill a >>= fun () ->
               Actor.await a >>= fun _ ->
               Actor.stop a >>= fun r ->
               return (r = Stdlib.Error Kill_thread) )));
  ]

(* --- router ------------------------------------------------------------- *)

let router_tests =
  [
    case "pick is deterministic and total" (fun () ->
        let rt = Router.create 4 in
        let keys = List.init 256 (Printf.sprintf "key-%d") in
        let owners = List.map (Router.pick rt) keys in
        Alcotest.(check (list int_v))
          "stable" owners
          (List.map (Router.pick rt) keys);
        (* 256 keys over 4 shards with 32 vnodes: all shards get some *)
        Alcotest.(check (list int_v))
          "all shards used" [ 0; 1; 2; 3 ]
          (List.sort_uniq compare owners));
    case "placement is pinned" (fun () ->
        (* FNV-1a over "shard-i#v": the sweep schedules of the sharded
           server depend on exactly this key-to-shard map *)
        Alcotest.(check (list int_v))
          "FNV-1a 32-bit test vectors" [ 0x811c9dc5; 0xe40c292c; 0xbf9cf968 ]
          (List.map Router.hash [ ""; "a"; "foobar" ]);
        let rt = Router.create 2 in
        Alcotest.(check (list int_v))
          "owners on 2 shards" [ 0; 1; 0; 1; 0; 1 ]
          (List.map (Router.pick rt)
             [ "key-0"; "key-10"; "alpha"; "beta"; "conn-1"; "ka" ]));
  ]

(* --- sharded server ------------------------------------------------------ *)

let handler = Server.route [ ("/hello", fun body -> Http.ok ("hi" ^ body)) ]

let get ?key srv path =
  Shard.connect ?key srv >>= fun conn ->
  Http.write_request conn { Http.meth = "GET"; path; headers = []; body = "" }
  >>= fun () -> Http.read_response conn

let shard_tests =
  [
    case "clients across shards are all served" (fun () ->
        let statuses, stats =
          value
            ( Shard.start ~shards:2 handler >>= fun srv ->
              Combinators.parallel_map
                (fun i ->
                  get ~key:(Printf.sprintf "k%d" i) srv "/hello"
                  >>= fun r -> return r.Http.status)
                [ 0; 1; 2; 3; 4; 5 ]
              >>= fun statuses ->
              Shard.shutdown srv >>= fun stats -> return (statuses, stats) )
        in
        Alcotest.(check (list int_v)) "all 200" [ 200; 200; 200; 200; 200; 200 ]
          statuses;
        Alcotest.check int_v "served" 6 stats.Server.served);
    case "keep-alive: several requests on one connection" (fun () ->
        let config = { Server.default_config with keep_alive = true } in
        Alcotest.(check (list int_v)) "three 200s" [ 200; 200; 200 ]
          (value
             ( Shard.start ~config ~shards:2 handler >>= fun srv ->
               Shard.connect ~key:"ka" srv >>= fun conn ->
               let req =
                 { Http.meth = "GET"; path = "/hello"; headers = []; body = "" }
               in
               let one () =
                 Http.write_request conn req >>= fun () ->
                 Http.read_response conn >>= fun r -> return r.Http.status
               in
               one () >>= fun a ->
               one () >>= fun b ->
               one () >>= fun c ->
               Http.Conn.close conn >>= fun () ->
               Shard.shutdown srv >>= fun _ -> return [ a; b; c ] )));
    case "killed shard actor restarts; queued connection still served"
      (fun () ->
        let status, restarts =
          value
            ( Shard.start ~shards:2 handler >>= fun srv ->
              (* aim at the shard that owns this key, then connect *)
              let key = "after-the-kill" in
              let victim = Shard.owner srv key in
              (* the shard body sits several forks deep under the root
                 sup; until it runs and registers its tid a kill is a
                 Thread_not_found no-op — wait for it to come up *)
              let rec wait_up n =
                if n = 0 then Alcotest.fail "shard actor never came up"
                else
                  Actor.tid victim >>= function
                  | Some _ -> return ()
                  | None -> yield >>= fun () -> wait_up (n - 1)
              in
              wait_up 1_000 >>= fun () ->
              Actor.kill victim >>= fun () ->
              get ~key srv "/hello" >>= fun r ->
              Shard.shutdown srv >>= fun stats ->
              return (r.Http.status, stats.Server.restarts) )
        in
        Alcotest.check int_v "served after restart" 200 status;
        Alcotest.check bool_v "a restart was spent" true (restarts >= 1));
    case "a keyed connect is admitted by its ring shard's bulkhead"
      (fun () ->
        let admitted =
          value
            ( lift Obs.Metrics.create >>= fun reg ->
              Shard.start ~metrics:reg ~shards:2 handler >>= fun srv ->
              get ~key:"beta" srv "/hello" >>= fun _ ->
              Shard.shutdown srv >>= fun _ ->
              return
                (List.init 2 (fun i ->
                     Obs.Metrics.gauge_max
                       (Obs.Metrics.gauge reg
                          ~labels:[ ("name", Printf.sprintf "shard-%d" i) ]
                          "sup_bulkhead_entered"))) )
        in
        let owner = Router.pick (Router.create 2) "beta" in
        Alcotest.(check (list int_v))
          "only shard-<pick beta> admitted it"
          (List.init 2 (fun i -> if i = owner then 1 else 0))
          admitted);
    case "connect after shutdown raises Server_stopped" (fun () ->
        match
          run
            ( Shard.start ~shards:2 handler >>= fun srv ->
              Shard.shutdown srv >>= fun _ -> Shard.connect srv )
        with
        | { Runtime.outcome = Runtime.Uncaught Server.Server_stopped; _ } -> ()
        | _ -> Alcotest.fail "expected Server_stopped");
  ]

(* --- sweep-backed: Down exactly once, jobs-invariance -------------------- *)

let sweep_tests =
  [
    slow_case "sweep: Down exactly once with the watcher targeted" (fun () ->
        (* the satellite's claim: even when the kill lands on the
           monitoring watcher mid-delivery, a Down is never duplicated
           (and still delivered when watcher + monitor survived) *)
        let r =
          Fault.Sweep.sweep ~jobs:2 ~target:(Fault.Plan.Named "watcher")
            Fault.Cases.actor_link
        in
        Alcotest.check int_v "failures" 0 (List.length r.Fault.Sweep.r_failures));
    slow_case "sweep: link/monitor races, acting thread" (fun () ->
        let r = Fault.Sweep.sweep ~jobs:2 Fault.Cases.actor_link in
        Alcotest.check int_v "failures" 0 (List.length r.Fault.Sweep.r_failures));
    slow_case "sweep: jobs-invariance on the actor-call case" (fun () ->
        let r1 =
          Fault.Sweep.sweep ~jobs:1 ~target:(Fault.Plan.Named "counter")
            Fault.Cases.actor_call
        in
        let r4 =
          Fault.Sweep.sweep ~jobs:4 ~target:(Fault.Plan.Named "counter")
            Fault.Cases.actor_call
        in
        Alcotest.check bool_v "reports equal" true (r1 = r4));
  ]

let suites =
  [
    ("actor:mailbox", mailbox_tests);
    ("actor:props", [ QCheck_alcotest.to_alcotest qcheck_fifo ]);
    ("actor:core", actor_tests);
    ("actor:router", router_tests);
    ("actor:shard", shard_tests);
    ("actor:sweep", sweep_tests);
  ]
