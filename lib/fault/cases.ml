open Hio
open Hio_std
open Hserver
open Io

let rec yields n =
  if n <= 0 then return () else yield >>= fun () -> yields (n - 1)

(* Wait for a task, discarding its outcome: a killed child must not fail
   the run. [Task.await] re-throws the child's exception, but the same
   [catch] would also swallow a kill aimed at main while it waits here —
   and a main that silently survives its own kill runs the probes
   concurrently with children it never joined, producing phantom
   failures. Disambiguate by polling: if the task is finished the
   exception was its recorded failure (discard it and move on); if not,
   we were the victim — re-throw, so the run ends in [Uncaught
   Kill_thread] and the sweep judges it as a killed-main run. *)
let join t =
  catch
    (ignore_result (Task.await t))
    (fun e ->
      Task.poll t >>= function
      | Some _ -> return ()
      | None -> throw e)

(* --- the serving protocol ------------------------------------------------

   Every server case checks the same §7 promise — a server built from
   bracket, timeout and throwTo degrades but never wedges — so the
   protocol is written once and a case supplies only data: which tree to
   start on which backend, its clients, their timeout, its probes. *)

type outcome = Status of int | Timed_out | Transport
type tree = Single | Sharded of int
type client = { at : int option; key : string option }

type service = {
  name : string;
  tree : tree;
  config : Server.config;
  handler : Server.handler;
  clients : client list;
  timeout : int;
  probes : string option list;
  attempts : int;
}

let hello = Server.route [ ("/hello", fun body -> Http.ok ("hi" ^ body)) ]
let at_once n = List.init n (fun _ -> { at = None; key = None })

(* A started tree, whichever kind. *)
type running = {
  connect : string option -> Http.Conn.t Io.t;
  root_alive : bool Io.t;
  shutdown : unit Io.t;
  metrics : Obs.Metrics.t;
}

let start s backend =
  match s.tree with
  | Single ->
      Server.start ~config:s.config ?backend s.handler >>= fun srv ->
      return
        {
          connect = (fun _ -> Server.connect srv);
          root_alive =
            (match Server.supervisor srv with
            | None -> return true
            | Some sup -> Hsup.Sup.alive sup);
          shutdown = ignore_result (Server.shutdown srv);
          metrics = Server.metrics srv;
        }
  | Sharded shards ->
      Shard.start ~config:s.config ?backend ~shards s.handler >>= fun srv ->
      return
        {
          connect = (fun key -> Shard.connect ?key srv);
          root_alive = Hsup.Sup.alive (Shard.supervisor srv);
          shutdown = ignore_result (Shard.shutdown srv);
          metrics = Shard.metrics srv;
        }

(* One request: a dead accept loop or a killed worker means no reply, so
   the read is bounded; a transport fault is a lawful degradation, not a
   crash. *)
let request s tree key =
  catch
    ( tree.connect key >>= fun conn ->
      Http.write_request conn
        { Http.meth = "GET"; path = "/hello"; headers = []; body = "" }
      >>= fun () ->
      Combinators.timeout s.timeout (Http.read_response conn) >>= function
      | Some resp -> return (Status resp.Http.status)
      | None -> return Timed_out )
    (fun e ->
      if Hsup.Retry.transient_io e || e = Server.Dial_timeout then
        return Transport
      else throw e)

let lawful = function
  | Status (200 | 503 | 504) | Timed_out | Transport -> true
  | Status _ -> false

(* How far the probes got: every key answered 200, the first key never
   did, or a later key failed after an earlier one had answered 200. *)
type probed = Served | Down | Lapsed

(* Each key must answer 200 within [attempts] tries, 300 µs apart — past
   breaker reset windows and restart churn. On a [clean] transport no
   plan injects faults, so a transport fault is a violation outright. *)
let probe ~clean s tree =
  let rec attempt key n =
    request s tree key >>= fun o ->
    if o = Status 200 then return true
    else if clean && o = Transport then
      Sweep.require
        (s.name ^ ": a probe on a clean transport meets no transport fault")
        false
      >>= fun () -> return false
    else if n <= 1 then return false
    else sleep 300 >>= fun () -> attempt key (n - 1)
  in
  let rec go served = function
    | [] -> return Served
    | key :: rest ->
        attempt key s.attempts >>= fun ok ->
        if ok then go true rest else return (if served then Lapsed else Down)
  in
  go false s.probes

let serve ?chaos s =
  let backend =
    Option.map (fun ctl -> Ev.Chaos.wrap ctl (Ev.Backend.sim ())) chaos
  in
  start s backend >>= fun tree ->
  lift (fun () -> Array.make (List.length s.clients) None) >>= fun outcomes ->
  let client i c =
    let go =
      request s tree c.key >>= fun o ->
      lift (fun () -> outcomes.(i) <- Some o)
    in
    match c.at with Some at -> sleep at >>= fun () -> go | None -> go
  in
  let rec spawn i acc = function
    | [] -> return (List.rev acc)
    | c :: rest ->
        Task.spawn ~name:(Printf.sprintf "client%d" i) (client i c)
        >>= fun t -> spawn (i + 1) (t :: acc) rest
  in
  spawn 0 [] s.clients >>= fun tasks ->
  let rec reap = function
    | [] -> return ()
    | t :: rest -> join t >>= fun () -> reap rest
  in
  reap tasks >>= fun () ->
  Sweep.disarm >>= fun () ->
  (match chaos with Some ctl -> Ev.Chaos.disarm ctl | None -> return ())
  >>= fun () ->
  (* graceful degradation: every client that finished holds a lawful
     answer; only the kill itself may end one early *)
  let rec check i = function
    | [] -> return ()
    | t :: rest ->
        Task.poll t >>= fun st ->
        lift (fun () -> outcomes.(i)) >>= fun o ->
        (match st with
        | Some (Stdlib.Error Kill_thread) -> return ()
        | Some (Stdlib.Error e) ->
            Sweep.require
              (Printf.sprintf "%s: client%d died of %s" s.name i
                 (Printexc.to_string e))
              false
        | _ ->
            Sweep.require
              (s.name ^ ": every surviving client got a lawful outcome")
              (match o with Some o -> lawful o | None -> false))
        >>= fun () -> check (i + 1) rest
  in
  check 0 tasks >>= fun () ->
  (* steady state: the probes answer 200 again. [root_alive] can lag a
     killed root's teardown, and the probes' own timeouts give that
     teardown ample virtual time — so a first probe that fails is a
     violation only while the root is still alive. Once a probe has
     answered 200, every later one must too, root or no root. A dead
     root is what a process manager would restart: model that with a
     fresh tree on a clean transport and require service restored. *)
  tree.root_alive >>= fun alive ->
  (if alive then probe ~clean:(Option.is_none chaos) s tree else return Down)
  >>= (function
        | Served -> return ()
        | Lapsed -> Sweep.require (s.name ^ ": steady state persists") false
        | Down ->
            tree.root_alive >>= fun still_alive ->
            Sweep.require (s.name ^ ": steady state answers 200")
              (not still_alive)
            >>= fun () ->
            start s (Option.map (fun _ -> Ev.Backend.sim ()) backend)
            >>= fun fresh ->
            probe ~clean:true s fresh >>= fun r ->
            Sweep.require
              (s.name ^ ": a fresh tree restores service")
              (r = Served)
            >>= fun () -> fresh.shutdown)
  >>= fun () ->
  tree.shutdown >>= fun () ->
  catch
    (tree.connect None >>= fun _ -> return false)
    (fun e -> return (e = Server.Server_stopped))
  >>= Sweep.require (s.name ^ ": connect after shutdown is refused")
  >>= fun () -> return (outcomes, tree.metrics)

(* --- §5.2 / §7 abstractions --------------------------------------------- *)

let sem_units =
  Sweep.case "sem-units"
    ( Sem.create 2 >>= fun s ->
      let worker = Combinators.repeat 2 (Sem.with_unit s (yields 2)) in
      Task.spawn ~name:"w1" worker >>= fun t1 ->
      Task.spawn ~name:"w2" worker >>= fun t2 ->
      Task.spawn ~name:"w3" worker >>= fun t3 ->
      join t1 >>= fun () ->
      join t2 >>= fun () ->
      join t3 >>= fun () ->
      Sweep.disarm >>= fun () ->
      Sem.available s >>= fun n ->
      Sweep.require "Sem: units conserved" (n = 2) >>= fun () ->
      (* and the semaphore still cycles *)
      Sem.wait s >>= fun () -> Sem.signal s )

let barrier_withdraw =
  Sweep.case "barrier-withdraw"
    ( Barrier.create 2 >>= fun b ->
      (* Alone at a 2-party barrier, the straggler can only leave by
         exception; the baseline provides one kill ([cancel]) and the
         sweep layers a second at every step — including inside the
         withdraw handler. *)
      Task.spawn ~name:"straggler" (ignore_result (Barrier.await b))
      >>= fun t ->
      yields 4 >>= fun () ->
      Task.cancel t >>= fun () ->
      join t >>= fun () ->
      Sweep.disarm >>= fun () ->
      (* the arrival was withdrawn: a fresh pair trips round 0 cleanly *)
      Task.spawn ~name:"p1" (ignore_result (Barrier.await b)) >>= fun p1 ->
      Barrier.await b >>= fun _ -> join p1 )

let chan_conserve =
  Sweep.case "chan-conserve"
    ( Chan.create () >>= fun c ->
      Task.spawn ~name:"producer" (Chan.send_list c [ 1; 2; 3; 4 ])
      >>= fun p ->
      Task.spawn ~name:"consumer"
        (Combinators.repeat 4 (ignore_result (Chan.recv c)))
      >>= fun q ->
      join p >>= fun () ->
      (* a killed producer starves the consumer: top the channel up so
         [join q] terminates (leftovers are harmless, send never blocks) *)
      Chan.send_list c [ 90; 91; 92; 93 ] >>= fun () ->
      join q >>= fun () ->
      Sweep.disarm >>= fun () ->
      (* both cursors must have been restored: a fresh send/recv cycles *)
      Chan.send c 99 >>= fun () ->
      Chan.recv c >>= fun _ -> Chan.try_recv c >>= fun _ -> return () )

let bchan_conserve =
  Sweep.case "bchan-conserve"
    ( Bchan.create 2 >>= fun c ->
      let rec send_all = function
        | [] -> return ()
        | x :: xs -> Bchan.send c x >>= fun () -> send_all xs
      in
      Task.spawn ~name:"producer" (send_all [ 1; 2; 3; 4; 5 ]) >>= fun p ->
      Task.spawn ~name:"consumer"
        (Combinators.repeat 5 (ignore_result (Bchan.recv c)))
      >>= fun q ->
      (* A killed peer starves the survivor, so main must compensate —
         but a blocked sender/receiver legitimately HOLDS its cursor
         MVar, so main may only touch an endpoint once its owner is done
         (then §5.2 restoration guarantees the cursor is free and
         [try_send]/[try_recv] cannot block). Wait for either task to
         finish, then feed or drain the survivor. At most one kill per
         run means at most one side needs help. No timers here, so the
         poll spin cannot stall the virtual clock. *)
      let rec wait_first () =
        Task.poll p >>= fun rp ->
        Task.poll q >>= fun rq ->
        if rp = None && rq = None then yield >>= fun () -> wait_first ()
        else return ()
      in
      let rec feed () =
        Task.poll q >>= function
        | Some _ -> return ()
        | None ->
            Bchan.try_send c 0 >>= fun _ ->
            yield >>= fun () -> feed ()
      in
      let rec drain () =
        Task.poll p >>= function
        | Some _ -> return ()
        | None ->
            Bchan.try_recv c >>= fun _ ->
            yield >>= fun () -> drain ()
      in
      wait_first () >>= fun () ->
      (Task.poll p >>= function Some _ -> feed () | None -> drain ())
      >>= fun () ->
      Sweep.disarm >>= fun () ->
      let rec empty () =
        Bchan.try_recv c >>= function
        | Some _ -> empty ()
        | None -> return ()
      in
      empty () >>= fun () ->
      Bchan.send c 42 >>= fun () ->
      Bchan.recv c >>= fun v ->
      Sweep.require "Bchan: fresh send/recv round-trips" (v = 42) )

let mvar_lock =
  Sweep.case "mvar-lock"
    ( Mvar.new_filled 0 >>= fun m ->
      let worker =
        Combinators.repeat 2 (Mvar.modify m (fun v -> return (v + 1)))
      in
      Task.spawn ~name:"w1" worker >>= fun t1 ->
      Task.spawn ~name:"w2" worker >>= fun t2 ->
      Task.spawn ~name:"w3" worker >>= fun t3 ->
      join t1 >>= fun () ->
      join t2 >>= fun () ->
      join t3 >>= fun () ->
      Sweep.disarm >>= fun () ->
      (* §5.2 safe update: the lock is never lost, whatever was killed *)
      Mvar.try_take m >>= fun v ->
      Sweep.require "Mvar.modify: lock conserved" (v <> None) )

let cleanup_flags =
  Sweep.case "cleanup-flags"
    ( (* fresh flags per run: the sweep re-executes this program once per
         kill point *)
      lift (fun () -> (ref false, ref false, ref 0))
      >>= fun (started, cleaned, balance) ->
      let worker =
        Combinators.finally
          ( lift (fun () -> started := true) >>= fun () ->
            Combinators.bracket_
              (lift (fun () -> incr balance))
              (yields 4)
              (lift (fun () -> decr balance)) )
          (lift (fun () -> cleaned := true))
      in
      Task.spawn ~name:"worker" worker >>= fun t ->
      yields 2 >>= fun () ->
      Task.cancel t >>= fun () ->
      join t >>= fun () ->
      Sweep.disarm >>= fun () ->
      lift (fun () -> (!started, !cleaned, !balance)) >>= fun (s, c, b) ->
      Sweep.require "finally: cleanup ran iff the body started"
        (c || not s)
      >>= fun () ->
      Sweep.require "bracket: acquire/release balanced" (b = 0) )

let std =
  [
    sem_units;
    barrier_withdraw;
    chan_conserve;
    bchan_conserve;
    mvar_lock;
    cleanup_flags;
  ]

(* --- the §11 server ------------------------------------------------------ *)

(* A kill-sweep case on the serving protocol, over the tree's default
   transport. *)
let serving ?(tree = Single) name config ~clients ~probes =
  Sweep.case ~max_steps:400_000 name
    (ignore_result
       (serve
          {
            name;
            tree;
            config;
            handler = hello;
            clients;
            timeout = 1_000;
            probes;
            attempts = 1;
          }))

let server =
  serving "server-requests" Server.default_config ~clients:(at_once 2)
    ~probes:[ None ]

let server_targets =
  [ Plan.Acting; Plan.Named "listener"; Plan.Named "conn-worker" ]

(* --- lib/sup: supervision and resilience --------------------------------

   These cases mechanise the tentpole claim of the supervision layer:
   recovery, not just quiescence, survives a kill at every point. Each
   case runs a supervised structure through its normal life in the armed
   window, then disarms and probes that the structure is back in steady
   state — children running (or the whole subtree down if the supervisor
   itself was the victim), breaker closed, bulkhead accounting at zero,
   the server answering 200s again. *)

open Hsup

(* The two generic restart cases share one shape. Two heartbeat children
   increment counters under a supervisor; the probe phase must not guess
   whether the supervisor was the kill victim — a killed supervisor stays
   [alive] until its teardown handler has run, so any immediate check
   races. Instead it calls [Sup.stop], which is idempotent and blocks on
   the supervisor's final outcome: once it returns, the teardown is
   complete in {e every} scenario, and its result says which scenario
   happened — [Ok ()] iff the supervisor processed the [Stop] message,
   i.e. survived the kill (and, mailbox being FIFO, had already restarted
   any killed child). *)
let sup_restart_case name ~strategy ~after_stop =
  Sweep.case name
    ( lift (fun () -> (ref 0, ref 0)) >>= fun (a, b) ->
      let beat r =
        Combinators.forever (lift (fun () -> incr r) >>= fun () -> yield)
      in
      Sup.start ~strategy
        ~intensity:{ Sup.max_restarts = 5; window = 1_000 }
        [ Sup.child "a" (beat a); Sup.child "b" (beat b) ]
      >>= fun sup ->
      yields 30 >>= fun () ->
      Sweep.disarm >>= fun () ->
      (* both children ran: even a child killed at the first armed step
         was restarted in time to beat before the window closed *)
      lift (fun () -> !a > 0 && !b > 0) >>= fun beat_ok ->
      Sweep.require "sup: both children made progress" beat_ok >>= fun () ->
      Sup.stop sup >>= fun r ->
      Sweep.require "sup: only a kill ends the supervisor abnormally"
        (r = Stdlib.Ok () || r = Stdlib.Error Kill_thread)
      >>= fun () ->
      (* stopped or killed, the subtree is down — the heartbeats must be
         provably silent (no stranded child) *)
      lift (fun () -> (!a, !b)) >>= fun (a0, b0) ->
      yields 10 >>= fun () ->
      lift (fun () -> (!a, !b)) >>= fun (a1, b1) ->
      Sweep.require "sup: no stranded child after stop"
        (a1 = a0 && b1 = b0)
      >>= fun () ->
      if r = Stdlib.Ok () then
        (* the supervisor survived: one kill costs at most one restart *)
        Sup.restart_count sup >>= fun rc ->
        Sweep.require "sup: one kill costs at most one restart" (rc <= 1)
        >>= fun () -> after_stop sup
      else return () )

let sup_one_for_one =
  sup_restart_case "sup-one-for-one" ~strategy:Sup.One_for_one
    ~after_stop:(fun _ -> return ())

let sup_all_for_one =
  sup_restart_case "sup-all-for-one" ~strategy:Sup.All_for_one
    ~after_stop:(fun sup ->
      (* collective restart: whichever child was hit, both slots were
         restarted together, so their start counts stay equal *)
      Sup.child_starts sup "a" >>= fun sa ->
      Sup.child_starts sup "b" >>= fun sb ->
      Sweep.require "all-for-one: children start in lockstep" (sa = sb))

(* Retry over a breaker around a flaky operation: the baseline walks
   closed → open → fail-fast → half-open → closed; after the kill, a
   probe past the reset window must still be admitted and close the
   circuit (no wedged half-open trial). *)
let sup_retry_breaker =
  Sweep.case "sup-retry-breaker"
    ( lift (fun () -> ref 0) >>= fun calls ->
      Breaker.create ~failure_threshold:2 ~reset_timeout:50 () >>= fun br ->
      let flaky =
        lift (fun () ->
            incr calls;
            !calls)
        >>= fun n -> if n <= 2 then throw (Failure "flaky") else return ()
      in
      (* baseline walks the whole state machine deterministically:
         closed -> (two failures) open -> fail-fast rejections under
         backoff -> half-open trial after the reset window -> closed *)
      Task.spawn ~name:"caller"
        (Retry.retry ~attempts:6 ~base:5 ~jitter:3 (Breaker.run br flaky))
      >>= fun t ->
      join t >>= fun () ->
      Sweep.disarm >>= fun () ->
      (* whatever the kill hit, the breaker must not be wedged: past the
         reset window a probe call must be admitted (a stuck half-open
         trial would fail-fast it) and close the circuit *)
      sleep 60 >>= fun () ->
      Breaker.run br (return ()) >>= fun () ->
      Breaker.state br >>= fun st ->
      Sweep.require "breaker: probe success closes the circuit"
        (st = Breaker.Closed) )

(* Four jobs through a capacity-2/waiting-1 bulkhead: after the kill,
   occupancy is back to zero and a fresh call is admitted. *)
let sup_bulkhead =
  Sweep.case "sup-bulkhead"
    ( Bulkhead.create ~capacity:2 ~max_waiting:1 () >>= fun bh ->
      lift (fun () -> (ref 0, ref 0)) >>= fun (oks, sheds) ->
      let job =
        Bulkhead.run bh (yields 3) >>= function
        | Ok () -> lift (fun () -> incr oks)
        | Error `Shed -> lift (fun () -> incr sheds)
      in
      Task.spawn ~name:"b1" job >>= fun t1 ->
      Task.spawn ~name:"b2" job >>= fun t2 ->
      Task.spawn ~name:"b3" job >>= fun t3 ->
      Task.spawn ~name:"b4" job >>= fun t4 ->
      join t1 >>= fun () ->
      join t2 >>= fun () ->
      join t3 >>= fun () ->
      join t4 >>= fun () ->
      Sweep.disarm >>= fun () ->
      Bulkhead.entered bh >>= fun n ->
      Sweep.require "bulkhead: occupancy drained to zero" (n = 0)
      >>= fun () ->
      (* full capacity is back: a fresh call is admitted, not shed *)
      Bulkhead.run bh (return ()) >>= fun r ->
      Sweep.require "bulkhead: fresh call admitted" (r = Ok ()) )

(* Graceful degradation of the supervised server: saturating clients
   (capacity 2 + 1 waiting, 4 clients) exercise the shedding path in the
   baseline, and the serving protocol holds after a kill anywhere —
   client, worker, bulkhead, listener, supervisor. *)
let sup_server_config =
  {
    Server.default_config with
    max_concurrent = 2;
    max_waiting = 1;
    restart_intensity = { Sup.max_restarts = 4; window = 10_000 };
  }

let sup_server =
  (* probed twice, so the first probe wasn't a fluke of a half-restarted
     tree *)
  serving "sup-server" sup_server_config ~clients:(at_once 4)
    ~probes:[ None; None ]

let sup_server_targets =
  [
    Plan.Acting;
    Plan.Named "supervisor";
    Plan.Named "listener";
    Plan.Named "conn-worker";
  ]

(* --- the actor layer ----------------------------------------------------

   Links are throwTo, monitors are messages, and the exit protocol runs
   under uninterruptibly — so the claims to sweep are delivery claims:
   a Down arrives at most once (exactly once when watcher and monitor
   both survived), a linked parent always learns of its child's death,
   per-sender mailbox order holds whatever the schedule, and the
   sharded server degrades instead of wedging when any layer of its
   tree is the victim. *)

module Actor = Hactor.Actor

let actor_link =
  Sweep.case "actor-link"
    ( lift (fun () -> (ref 0, ref 0, ref false, ref None))
      >>= fun (downs, exits, armed, child_ref) ->
      (* the watcher only counts Down messages *)
      Actor.spawn ~name:"watcher" (fun self ->
          Combinators.forever
            ( Actor.receive self (fun (`Down (_ : Actor.down)) -> Some ())
              >>= fun () -> lift (fun () -> incr downs) ))
      >>= fun watcher ->
      (* the parent spawns a linked child that crashes on demand,
         monitors it on behalf of the watcher, then waits for the link
         to fire *)
      Actor.spawn ~name:"parent" (fun self ->
          Actor.spawn_link ~parent:self ~name:"child" (fun cself ->
              Actor.receive cself (fun `Boom -> Some ()) >>= fun () ->
              throw (Failure "boom"))
          >>= fun child ->
          lift (fun () -> child_ref := Some child) >>= fun () ->
          Actor.monitor ~watcher ~inject:(fun d -> `Down d) child
          >>= fun _mref ->
          lift (fun () -> armed := true) >>= fun () ->
          Actor.send child `Boom >>= fun () ->
          catch
            (Actor.receive self (fun `Boom -> (None : unit option)))
            (function
              | Actor.Exit_signal _ -> lift (fun () -> incr exits)
              | e -> throw e))
      >>= fun parent ->
      Actor.await parent >>= fun _ ->
      (* settle the child whichever way the kill went: it always dies
         abnormally (crash, link cascade from the parent, or this kill) *)
      lift (fun () -> !child_ref) >>= (function
        | Some child ->
            Actor.kill child >>= fun () ->
            Actor.await child >>= fun _ -> return ()
        | None -> return ())
      >>= fun () ->
      (* give the watcher thread time to drain its mailbox *)
      yields 10 >>= fun () ->
      Sweep.disarm >>= fun () ->
      Actor.alive watcher >>= fun watcher_alive ->
      lift (fun () -> (!downs, !armed)) >>= fun (d, a) ->
      Sweep.require "actor: Down delivered at most once" (d <= 1)
      >>= fun () ->
      (if watcher_alive && a then
         (* monitor armed and the watcher never died: the watched
            actor's death must deliver exactly one Down *)
         Sweep.require "actor: Down delivered exactly once" (d = 1)
       else return ())
      >>= fun () ->
      Actor.stop watcher >>= fun _ -> return () )

let actor_call =
  Sweep.case "actor-call"
    ( Actor.spawn ~name:"counter" (fun self ->
          lift (fun () -> ref 0) >>= fun state ->
          Combinators.forever
            ( Actor.receive self (fun m -> Some m) >>= function
              | `Add (n, r) ->
                  lift (fun () -> state := !state + n) >>= fun () ->
                  Actor.reply r ()
              | `Get r -> lift (fun () -> !state) >>= fun v -> Actor.reply r v ))
      >>= fun counter ->
      (* two clients race calls; a dead server must fail them fast
         (monitor), not leave them waiting out the timeout *)
      let client =
        Combinators.repeat 2
          (catch
             (Actor.call ~timeout:1_000 counter (fun r -> `Add (1, r)))
             (function
               | Actor.Exit_signal _ | Actor.Call_timeout -> return ()
               | e -> throw e))
      in
      Task.spawn ~name:"caller1" client >>= fun t1 ->
      Task.spawn ~name:"caller2" client >>= fun t2 ->
      join t1 >>= fun () ->
      join t2 >>= fun () ->
      Sweep.disarm >>= fun () ->
      Actor.alive counter >>= fun up ->
      (if up then
         (* [up] can be a lie: a kill posted while the masked server was
            mid-message is delivered at its next receive wait — i.e.
            during this very probe, which then fails fast with the
            kill's Exit_signal. That is the monitor doing its job, not
            a violation; any other reason is. *)
         catch
           ( Actor.call ~timeout:1_000 counter (fun r -> `Get r)
             >>= fun v ->
             Sweep.require "actor: counter bounded by completed calls"
               (v >= 0 && v <= 4)
             >>= fun () ->
             Actor.stop counter >>= fun r ->
             Sweep.require "actor: graceful stop acknowledged"
               (r = Stdlib.Ok ()) )
           (function
             | Actor.Exit_signal { reason = Kill_thread; _ } -> return ()
             | e -> throw e)
       else return ()) )

(* A token ring (4 actors × 2 laps): if nobody was killed the token
   completes; killed or not, each member's single-predecessor hop
   numbers are strictly increasing — per-sender mailbox FIFO under
   every schedule the sweep reaches. *)
let actor_ring =
  Sweep.case "actor-ring"
    ( let n = 4 and laps = 2 in
      let limit = n * laps in
      lift (fun () -> (Array.make n [], ref false)) >>= fun (seen, completed) ->
      Mvar.new_empty >>= fun done_mv ->
      let rec mk i acc =
        if i < 0 then return acc
        else
          Actor.create ~name:(Printf.sprintf "ring-%d" i) () >>= fun a ->
          mk (i - 1) (a :: acc)
      in
      mk (n - 1) [] >>= fun ring_list ->
      let ring = Array.of_list ring_list in
      (* each member records the hop count it saw and forwards; the
         last hop fills done_mv *)
      let member i self =
        Combinators.forever
          ( Actor.receive self (fun (`Token k) -> Some k) >>= fun k ->
            lift (fun () -> seen.(i) <- k :: seen.(i)) >>= fun () ->
            if k + 1 >= limit then
              lift (fun () -> completed := true) >>= fun () ->
              Mvar.try_put done_mv () >>= fun _ -> return ()
            else Actor.send ring.((i + 1) mod n) (`Token (k + 1)) )
      in
      let rec go i =
        if i >= n then return ()
        else Actor.fork_body ring.(i) (member i) >>= fun () -> go (i + 1)
      in
      go 0 >>= fun () ->
      Actor.send ring.(0) (`Token 0) >>= fun () ->
      (* a killed member drops the token: bound the wait. The timeout
         combinator forks its payload as a child thread and, per its §7
         contract, rethrows the child's exception here — so an injected
         kill whose acting thread is that child surfaces as Kill_thread
         in main. Absorb it and wait again (injections are one-shot;
         the ring itself was untouched and the token still circulates). *)
      let rec bounded_wait () =
        catch
          (Combinators.timeout 2_000 (Mvar.read done_mv) >>= fun _ ->
           return ())
          (function Kill_thread -> bounded_wait () | e -> throw e)
      in
      bounded_wait () >>= fun () ->
      let rec all_alive i acc =
        if i >= n then return acc
        else Actor.alive ring.(i) >>= fun a -> all_alive (i + 1) (acc && a)
      in
      all_alive 0 true >>= fun alive ->
      lift (fun () -> !completed) >>= fun ok ->
      (* tear the ring down (members loop forever) *)
      let rec kill_all i =
        if i >= n then return ()
        else
          Actor.kill ring.(i) >>= fun () ->
          Actor.await ring.(i) >>= fun _ -> kill_all (i + 1)
      in
      kill_all 0 >>= fun () ->
      Sweep.disarm >>= fun () ->
      Sweep.require "ring: token completes its laps when nobody was killed"
        ((not alive) || ok)
      >>= fun () ->
      (* per-member FIFO: the single-predecessor hop numbers must be
         strictly increasing however the schedule interleaved *)
      lift (fun () ->
          Array.for_all
            (fun l ->
              let rec increasing = function
                | a :: (b :: _ as rest) -> a < b && increasing rest
                | _ -> true
              in
              increasing (List.rev l))
            seen)
      >>= Sweep.require "ring: per-member hop order is FIFO" )

(* The sharded server on the serving protocol: keyed clients, one per
   shard — the case is swept unsampled over six targets, so it is kept
   deliberately small — with kill targets at every layer of the tree:
   the root, a shard subtree, its nested supervisor, the shard's
   serving actor and its workers. *)
let actor_shard_config =
  {
    Server.default_config with
    max_concurrent = 2;
    max_waiting = 1;
    restart_intensity = { Sup.max_restarts = 6; window = 10_000 };
  }

let actor_shard =
  (* a key per shard ("key-0" on shard 0, "key-10" on shard 1, as
     actor:router's "placement is pinned" checks), then the first again *)
  serving ~tree:(Sharded 2) "actor-shard" actor_shard_config
    ~clients:
      [ { at = None; key = Some "key-0" }; { at = None; key = Some "key-10" } ]
    ~probes:[ Some "key-0"; Some "key-10"; Some "key-0" ]

let actor_shard_targets =
  [
    Plan.Acting;
    Plan.Named "shard-0";
    Plan.Named "shard-sup-0";
    Plan.Named "shard-serve";
    Plan.Named "conn-worker";
    Plan.Named "shard-root";
  ]

(* --- the sup and actor kill sweeps: each case with its targets ---------- *)

let sup =
  [
    (sup_one_for_one, Plan.Acting);
    (sup_one_for_one, Plan.Named "supervisor");
    (sup_one_for_one, Plan.Named "a");
    (sup_all_for_one, Plan.Acting);
    (sup_retry_breaker, Plan.Acting);
    (sup_bulkhead, Plan.Acting);
  ]
  @ List.map (fun t -> (sup_server, t)) sup_server_targets

let actor =
  [
    (actor_link, Plan.Acting);
    (actor_link, Plan.Named "watcher");
    (actor_link, Plan.Named "parent");
    (actor_link, Plan.Named "child");
    (actor_call, Plan.Acting);
    (actor_call, Plan.Named "counter");
    (actor_ring, Plan.Acting);
    (actor_ring, Plan.Named "ring-1");
  ]
  @ List.map (fun t -> (actor_shard, t)) actor_shard_targets

(* --- a deliberately broken abstraction, to test the harness ------------- *)

let naive_lock =
  Sweep.case ~max_steps:5_000 "naive-lock"
    ( Mvar.new_filled () >>= fun lock ->
      (* BUG (on purpose): bare take/put with no mask and no restore — a
         kill between them loses the lock (§5.2 is exactly about this) *)
      let worker =
        Mvar.take lock >>= fun () -> yields 2 >>= fun () -> Mvar.put lock ()
      in
      Task.spawn ~name:"n1" worker >>= fun t1 ->
      Task.spawn ~name:"n2" worker >>= fun t2 ->
      join t1 >>= fun () ->
      join t2 >>= fun () ->
      Sweep.disarm >>= fun () ->
      Mvar.take lock (* wedges if a kill landed while the lock was held *) )
