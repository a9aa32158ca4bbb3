(* The I/O chaos layer: determinism and transparency of the Ev.Chaos
   decorator, the injection metric, the Io_sweep driver (clean suites
   stay clean, a deliberately fragile case is caught and shrunk), and
   the headline robustness demonstration — a reset injected into the
   server's response write restarts the worker and degrades that one
   connection instead of escaping the supervisor — and the layered-kill
   failures of both composed drivers (Io_sweep combined mode and
   Load_sweep): named, shrunk to armed steps, and replayable. *)

open Hio_std
open Hio.Io
open Helpers
open Fault

let int_v = Alcotest.int

let fault_t : (Ev.Chaos.op * int * Ev.Chaos.fault) Alcotest.testable =
  Alcotest.testable
    (fun ppf (op, at, f) ->
      Fmt.pf ppf "%s@%d:%s" (Ev.Chaos.op_label op) at
        (Ev.Chaos.fault_label f))
    ( = )

let handler =
  Hserver.Server.route [ ("/hello", fun _ -> Hserver.Http.ok "hi") ]

let request conn =
  Hserver.Http.write_request conn
    { Hserver.Http.meth = "GET"; path = "/hello"; headers = []; body = "" }
  >>= fun () ->
  Combinators.timeout 2_000 (Hserver.Http.read_response conn)

(* One client against a server on a chaos-wrapped sim backend; returns
   (outcome, injections, injected list). *)
let one_shot ?metrics plan =
  value
    ( lift (fun () -> Ev.Chaos.create ?metrics plan) >>= fun ctl ->
      Hserver.Server.start
        ~backend:(Ev.Chaos.wrap ctl (Ev.Backend.sim ()))
        handler
      >>= fun server ->
      catch
        ( Hserver.Server.connect server >>= fun conn ->
          request conn >>= fun r ->
          return
            (match r with
            | Some resp -> `Status resp.Hserver.Http.status
            | None -> `Timed_out) )
        (fun e ->
          if Hsup.Retry.transient_io e || e = Hserver.Server.Dial_timeout
          then return `Transport
          else throw e)
      >>= fun outcome ->
      Ev.Chaos.disarm ctl >>= fun () ->
      Hserver.Server.shutdown server >>= fun _ ->
      return (outcome, Ev.Chaos.injected ctl) )

let decorator_tests =
  [
    case "an empty plan is observationally transparent" (fun () ->
        let bare =
          value
            ( Hserver.Server.start ~backend:(Ev.Backend.sim ()) handler
            >>= fun server ->
              Hserver.Server.connect server >>= fun conn ->
              request conn >>= fun r ->
              Hserver.Server.shutdown server >>= fun stats ->
              return (r, stats.Hserver.Server.served) )
        in
        let wrapped, injected = one_shot [] in
        (match (bare, wrapped) with
        | (Some resp, served), `Status s ->
            Alcotest.check int_v "same status" resp.Hserver.Http.status s;
            Alcotest.check int_v "served one" 1 served
        | _ -> Alcotest.fail "bare or wrapped run diverged");
        Alcotest.(check (list fault_t)) "nothing injected" [] injected);
    case "a dial-refusal rule injects Connection_refused" (fun () ->
        let outcome, injected =
          one_shot
            [ { Ev.Chaos.r_op = Dial; r_at = 0; r_fault = Ev.Chaos.Reset } ]
        in
        Alcotest.(check bool) "client degraded" true (outcome = `Transport);
        Alcotest.(check (list fault_t))
          "one dial injection"
          [ (Ev.Chaos.Dial, 0, Ev.Chaos.Reset) ]
          injected);
    case "injections are deterministic across runs" (fun () ->
        let plan =
          [
            { Ev.Chaos.r_op = Recv; r_at = 5; r_fault = Ev.Chaos.Eof };
            { Ev.Chaos.r_op = Send; r_at = 1; r_fault = Ev.Chaos.Reset };
          ]
        in
        let o1, i1 = one_shot plan in
        let o2, i2 = one_shot plan in
        Alcotest.(check bool) "same outcome" true (o1 = o2);
        Alcotest.(check (list fault_t)) "same injections" i1 i2;
        Alcotest.(check bool) "something landed" true (i1 <> []));
    case "chaos_injected_total counts by op and kind" (fun () ->
        let reg = Obs.Metrics.create () in
        let _ =
          one_shot ~metrics:reg
            [ { Ev.Chaos.r_op = Send; r_at = 0; r_fault = Ev.Chaos.Eof } ]
        in
        Alcotest.check int_v "labelled series" 1
          (Obs.Metrics.counter_value
             (Obs.Metrics.counter reg
                ~labels:[ ("kind", "eof"); ("op", "send") ]
                "chaos_injected_total")));
    case "disarm stops counting and injecting" (fun () ->
        let sites =
          value
            ( lift (fun () ->
                  Ev.Chaos.create
                    [
                      {
                        Ev.Chaos.r_op = Send;
                        r_at = 0;
                        r_fault = Ev.Chaos.Reset;
                      };
                    ])
            >>= fun ctl ->
              Ev.Backend.sim_pipe () >>= fun (a, _b) ->
              let a = Ev.Chaos.wrap_conn ctl a in
              Ev.Chaos.disarm ctl >>= fun () ->
              a.Ev.Backend.c_send "quiet" >>= fun () ->
              return
                (Ev.Chaos.site_counts ctl, List.length (Ev.Chaos.injected ctl))
            )
        in
        Alcotest.(check bool)
          "no sites, no injections" true
          (sites = (List.map (fun op -> (op, 0)) Ev.Chaos.all_ops, 0)));
    case "a recv trickle delivers one byte per 25us, even to chunk reads"
      (fun () ->
        let chunks =
          value
            ( lift (fun () ->
                  Ev.Chaos.create
                    [
                      {
                        Ev.Chaos.r_op = Recv;
                        r_at = 0;
                        r_fault = Ev.Chaos.Trickle 25;
                      };
                    ])
            >>= fun ctl ->
              Ev.Backend.sim_pipe () >>= fun (a, b) ->
              let b = Ev.Chaos.wrap_conn ctl b in
              a.Ev.Backend.c_send "hello" >>= fun () ->
              now >>= fun t0 ->
              let rec go n acc =
                if n = 0 then return (List.rev acc)
                else
                  b.Ev.Backend.c_recv ~upto:None ~max:64 >>= fun s ->
                  now >>= fun t ->
                  go (n - String.length s) ((s, t - t0) :: acc)
              in
              go 5 [] )
        in
        Alcotest.(check (list (pair string int)))
          "one byte per trickle delay"
          [ ("h", 25); ("e", 50); ("l", 75); ("l", 100); ("o", 125) ]
          chunks);
  ]

(* --- the headline demonstration ----------------------------------------

   With one client, the wrapped backend's Send sites are: 0 = the
   client's request write, 1 = the server's response write. Resetting
   site 1 cuts the connection mid-response inside the worker: the write
   fault escapes the worker on purpose, the supervisor restarts the
   slot, and the restarted incarnation finds the request already
   answered and simply closes the connection — the client degrades, the
   supervisor does not escalate, and the next request is served. *)
let mid_response_reset_tests =
  [
    case "a mid-response reset restarts the worker, not the server"
      (fun () ->
        let reg = Obs.Metrics.create () in
        let outcome, restarts, probe_ok, injections =
          value
            ( lift (fun () ->
                  Ev.Chaos.create
                    [
                      {
                        Ev.Chaos.r_op = Send;
                        r_at = 1;
                        r_fault = Ev.Chaos.Reset;
                      };
                    ])
            >>= fun ctl ->
              Hserver.Server.start ~metrics:reg
                ~backend:(Ev.Chaos.wrap ctl (Ev.Backend.sim ()))
                handler
              >>= fun server ->
              catch
                ( Hserver.Server.connect server >>= fun conn ->
                  request conn >>= fun r ->
                  return
                    (match r with
                    | Some resp -> `Status resp.Hserver.Http.status
                    | None -> `Timed_out) )
                (fun e ->
                  if Hsup.Retry.transient_io e then return `Transport
                  else throw e)
              >>= fun outcome ->
              Ev.Chaos.disarm ctl >>= fun () ->
              (match Hserver.Server.supervisor server with
              | Some sup -> Hsup.Sup.restart_count sup
              | None -> return (-1))
              >>= fun restarts ->
              (* steady state: the next request on a clean transport is
                 served normally *)
              Hserver.Server.connect server >>= fun conn ->
              request conn >>= fun r ->
              Hserver.Server.shutdown server >>= fun _ ->
              return
                ( outcome,
                  restarts,
                  (match r with
                  | Some resp -> resp.Hserver.Http.status = 200
                  | None -> false),
                  List.length (Ev.Chaos.injected ctl) ) )
        in
        Alcotest.(check bool)
          "that connection degraded (transport fault or timeout)" true
          (outcome = `Transport || outcome = `Timed_out);
        Alcotest.(check bool)
          (Printf.sprintf "worker was restarted (count %d)" restarts)
          true (restarts >= 1);
        Alcotest.(check bool) "next request served with 200" true probe_ok;
        Alcotest.check int_v "exactly the planned injection" 1 injections;
        Alcotest.check int_v "the reset was booked as a server io fault" 1
          (Obs.Metrics.counter_value
             (Obs.Metrics.counter reg
                ~labels:[ ("backend", "sim"); ("kind", "reset") ]
                "server_io_faults_total")));
  ]

(* --- the sweep driver --------------------------------------------------- *)

(* A deliberately fragile case: the reader demands the WHOLE payload, so
   any fault that cuts the stream (eof, reset, short write) must be
   caught by the sweep — and shrunk to an early site. *)
let fragile =
  Io_sweep.case ~max_steps:50_000 "fragile-pipe" (fun ctl ->
      Ev.Backend.sim_pipe ~capacity:8 () >>= fun (a, b) ->
      let a = Ev.Chaos.wrap_conn ctl a and b = Ev.Chaos.wrap_conn ctl b in
      let payload = "all or nothing" in
      lift (fun () -> Buffer.create 16) >>= fun got ->
      let writer =
        catch (a.Ev.Backend.c_send payload) (fun _ -> return ())
        >>= fun () -> a.Ev.Backend.c_close ()
      in
      let reader =
        let rec go () =
          b.Ev.Backend.c_recv_char () >>= fun c ->
          lift (fun () -> Buffer.add_char got c) >>= fun () -> go ()
        in
        catch
          (ignore_result (Combinators.timeout 5_000 (go ())))
          (fun _ -> return ())
        >>= fun () -> b.Ev.Backend.c_close ()
      in
      Task.spawn ~name:"writer" writer >>= fun w ->
      Task.spawn ~name:"reader" reader >>= fun r ->
      Fault.Cases.join w >>= fun () ->
      a.Ev.Backend.c_close () >>= fun () ->
      Fault.Cases.join r >>= fun () ->
      Sweep.disarm >>= fun () ->
      Ev.Chaos.disarm ctl >>= fun () ->
      lift (fun () -> Buffer.contents got) >>= fun got ->
      Sweep.require "fragile: the whole payload arrived" (got = payload))

(* The fault rule of an {!Io_sweep} failure, and its shrunk form. *)
let io_rules f =
  match f.Sweep.f_fault with
  | Sweep.Io { rule; shrunk_rule } -> (rule, shrunk_rule)
  | Sweep.Kill | Sweep.Load _ -> Alcotest.fail "not an io failure"

(* The sites, fault points and kill runs of an {!Io_sweep} report. *)
let chaos (r : Sweep.report) =
  match r.r_payload with
  | Sweep.Chaos { sites; fault_points; kill_runs; _ } ->
      (sites, fault_points, kill_runs)
  | Sweep.Kills _ | Sweep.Overload _ -> Alcotest.fail "not a chaos report"

(* Fail with the printed report if the sweep failed anywhere. *)
let check_clean (r : Sweep.report) =
  if r.r_failures <> [] then
    Alcotest.failf "unexpected failures:@.%a" Sweep.pp_report r

let sweep_tests =
  [
    case "io-pipe survives every fault at every site (plus kills)"
      (fun () ->
        let r = Io_sweep.sweep ~kills_per_point:1 Io_cases.io_pipe in
        let sites, fault_points, kill_runs = chaos r in
        Alcotest.(check bool) "has fault points" true (fault_points > 0);
        Alcotest.(check bool) "ran combined kills" true (kill_runs > 0);
        check_clean r;
        Alcotest.(check bool) "send sites seen" true
          (List.assoc Ev.Chaos.Send sites >= 1));
    slow_case "io-server survives a sampled fault+kill sweep" (fun () ->
        let r =
          Io_sweep.sweep ~max_sites_per_op:2 ~kills_per_point:1
            Io_cases.io_server
        in
        check_clean r;
        let sites, _, _ = chaos r in
        Alcotest.(check bool) "reached dial sites" true
          (List.assoc Ev.Chaos.Dial sites >= 1));
    case "a fragile case is caught and the rule shrinks to an early site"
      (fun () ->
        let r = Io_sweep.sweep ~max_sites_per_op:3 fragile in
        Alcotest.(check bool) "failures found" true (r.r_failures <> []);
        List.iter
          (fun f ->
            let rule, shrunk_rule = io_rules f in
            Alcotest.(check bool) "shrunk site is no later" true
              (shrunk_rule.Ev.Chaos.r_at <= rule.Ev.Chaos.r_at))
          r.r_failures;
        (* replay: a reported (shrunk) counterexample still fails *)
        let schedule, _ = Io_sweep.record fragile in
        let _, shrunk_rule = io_rules (List.hd r.r_failures) in
        Alcotest.(check bool) "replay fails" true
          (fst (Io_sweep.run_rule fragile schedule shrunk_rule []) <> None));
    case "io-pipe sweeps clean over a 2-domain replay log" (fun () ->
        (* the baseline runs live on two domains; every faulted run
           replays its captured log until the chaos fault diverges it,
           then continues under the free single-domain scheduler *)
        let r =
          Io_sweep.sweep ~max_sites_per_op:2 ~domains:2 Io_cases.io_pipe
        in
        let _, fault_points, _ = chaos r in
        Alcotest.(check bool) "has fault points" true (fault_points > 0);
        check_clean r);
    case "sweep reports are identical across job counts" (fun () ->
        let strip (r : Sweep.report) =
          ( r.r_payload,
            r.r_faulted_steps,
            List.map
              (fun f -> (f.Sweep.f_fault, f.f_plan, f.f_shrunk))
              r.r_failures )
        in
        let r1 =
          Io_sweep.sweep ~kills_per_point:1 ~jobs:1 Io_cases.io_pipe
        in
        let r4 =
          Io_sweep.sweep ~kills_per_point:1 ~jobs:4 Io_cases.io_pipe
        in
        Alcotest.(check bool) "same report" true (strip r1 = strip r4));
  ]

(* --- layered kills in the composed drivers ------------------------------ *)

(* Survives any single fault or ramp, but not a kill: two workers share
   a lock with bare take/put (nothing masked), so a kill landing while
   one holds it strands the other — and the probe after [disarm]. *)
let naive_lock =
  Hio.Mvar.new_filled () >>= fun lock ->
  let worker =
    Hio.Mvar.take lock >>= fun () -> yields 2 >>= fun () -> Hio.Mvar.put lock ()
  in
  Task.spawn ~name:"n1" worker >>= fun t1 ->
  Task.spawn ~name:"n2" worker >>= fun t2 ->
  Fault.Cases.join t1 >>= fun () ->
  Fault.Cases.join t2 >>= fun () ->
  Sweep.disarm >>= fun () -> Hio.Mvar.take lock

(* The chaos half: a one-byte pipe exchange that tolerates every fault
   (the writer closes before the reader reads, so the read ends in data
   or EOF), then the lock. *)
let lock_after_pipe =
  Io_sweep.case ~max_steps:50_000 "lock-after-pipe" (fun ctl ->
      Ev.Backend.sim_pipe ~capacity:8 () >>= fun (a, b) ->
      let a = Ev.Chaos.wrap_conn ctl a and b = Ev.Chaos.wrap_conn ctl b in
      let tolerant io = catch io (fun _ -> return ()) in
      tolerant (a.Ev.Backend.c_send "x") >>= fun () ->
      tolerant (a.Ev.Backend.c_close ()) >>= fun () ->
      tolerant (ignore_result (b.Ev.Backend.c_recv_char ())) >>= fun () ->
      tolerant (b.Ev.Backend.c_close ()) >>= fun () ->
      Ev.Chaos.disarm ctl >>= fun () -> naive_lock)

(* The overload half: a "ramp" of [mult] yields whose goodput scales
   with the load (so the driver's gates hold), then the lock. It never
   touches the transport, so no resource plan changes its schedule. *)
let lock_after_ramp =
  Load_sweep.case ~max_steps:50_000 "lock-after-ramp" (fun ctl ~mult ->
      yields mult >>= fun () ->
      naive_lock >>= fun () ->
      Ev.Chaos.disarm ctl >>= fun () ->
      return
        {
          Sweep.lt_offered = mult;
          lt_ok = mult;
          lt_shed = 0;
          lt_late = 0;
          lt_transport = 0;
          lt_max_qdelay = 0;
        })

(* A layered-kill failure names its kill plan, shrunk within the armed
   steps of the schedule it was found on; [replay] re-runs a kill plan
   over that schedule. The shrunk plan still fails, and it is a fixed
   point of the shrinker: no one-step reduction on armed steps fails. *)
let check_layered_kill ~schedule ~replay f =
  Alcotest.(check bool) "names the kill plan" true (f.Sweep.f_plan <> []);
  let armed = List.map fst (Array.to_list schedule.Sweep.s_armed) in
  let on_armed p = List.for_all (fun i -> List.mem i.Plan.at_step armed) p in
  Alcotest.(check bool) "shrunk to armed steps" true
    (f.Sweep.f_shrunk <> [] && on_armed f.Sweep.f_shrunk);
  Alcotest.(check bool) "shrunk plan replays as a failure" true
    (replay f.Sweep.f_shrunk <> None);
  List.iter
    (fun p ->
      if on_armed p && replay p <> None then
        Alcotest.failf "shrunk plan %a is not minimal: %a fails too" Plan.pp
          f.Sweep.f_shrunk Plan.pp p)
    (Shrink.candidates f.Sweep.f_shrunk)

let layered_kill_tests =
  [
    case "Io_sweep combined mode shrinks and replays a kill failure"
      (fun () ->
        let r = Io_sweep.sweep ~kills_per_point:1_000 lock_after_pipe in
        Alcotest.(check bool) "kill failures found" true (r.r_failures <> []);
        List.iter
          (fun f ->
            let rule, shrunk_rule = io_rules f in
            Alcotest.(check bool) "the clean rule is reported as is" true
              (shrunk_rule = rule);
            let schedule = Sweep.record (lock_after_pipe [ rule ] (ref None)) in
            check_layered_kill ~schedule
              ~replay:(fun p ->
                fst (Io_sweep.run_rule lock_after_pipe schedule rule p))
              f)
          r.r_failures);
    case "Load_sweep shrinks and replays a kill failure" (fun () ->
        let r = Load_sweep.sweep ~kills_per_ramp:1_000 lock_after_ramp in
        Alcotest.(check bool) "kill failures found" true (r.r_failures <> []);
        List.iter
          (fun f ->
            match f.Sweep.f_fault with
            | Sweep.Load { mult; _ } ->
                let resources = Ev.Chaos.no_resources in
                let schedule, _ =
                  Load_sweep.record lock_after_ramp ~mult ~resources
                in
                check_layered_kill ~schedule
                  ~replay:(fun p ->
                    fst
                      (Load_sweep.run_kill lock_after_ramp schedule ~mult
                         ~resources p))
                  f
            | Sweep.Kill | Sweep.Io _ -> Alcotest.fail "not a load failure")
          r.r_failures);
  ]

let suites =
  [
    ("chaos:decorator", decorator_tests);
    ("chaos:mid-response-reset", mid_response_reset_tests);
    ("chaos:sweep", sweep_tests);
    ("chaos:layered-kills", layered_kill_tests);
  ]
