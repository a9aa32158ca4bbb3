(* Regenerates every claim-validation table recorded in EXPERIMENTS.md.
   Where bench/main.exe measures time, this program checks *behaviour*:
   model-checking verdicts, schedule sweeps, frame depths, cancellation
   latencies, and thunk-policy step counts.

   Run with: dune exec bin/experiments.exe *)

open Ch_semantics
open Ch_explore
open Hio
open Hio_std

let header title = Printf.printf "\n=== %s ===\n" title

let quiet = { Step.default_config with Step.stuck_io = false }

let explore ?(config = quiet) program =
  Space.explore ~config (State.initial program)

let verdict result =
  let kinds = Space.terminal_kinds result in
  let deadlock = List.mem Space.Deadlock kinds in
  Printf.sprintf "%-32s %s"
    (Fmt.str "%a" Fmt.(list ~sep:(any ", ") Space.pp_terminal_kind) kinds)
    (if deadlock then "LOCK CAN BE LOST" else "safe")

(* --- C1/C2: §5.1–§5.2 locking protocols --------------------------------- *)

let kill_points (r : Fault.Sweep.report) =
  match r.r_payload with
  | Kills k -> k.kill_points
  | Chaos _ | Overload _ -> invalid_arg "not a kill-sweep report"

let c1_c2 () =
  header "C1/C2 — locking protocols, exhaustively model-checked (§5.1-5.2)";
  Printf.printf "%-28s %8s %8s  %s\n" "protocol" "states" "edges"
    "terminals / verdict";
  List.iter
    (fun (name, protocol) ->
      let r = explore (Ch_corpus.Locking.harness protocol) in
      Printf.printf "%-28s %8d %8d  %s\n" name r.Space.visited r.Space.edges
        (verdict r))
    [
      ("unprotected (naive)", Ch_corpus.Locking.unprotected);
      ("catch only (§5.1)", Ch_corpus.Locking.catch_only);
      ("block + catch (§5.2)", Ch_corpus.Locking.block_protected);
      ("block, no window (§7.4)", Ch_corpus.Locking.blocked_compute);
    ]

(* --- C3: §5.3 interruptible operations ----------------------------------- *)

let c3 () =
  header "C3 — interruptibility of takeMVar inside block (§5.3)";
  let program_waiting =
    Ch_lang.Parser.parse
      {|do { m <- newEmptyMVar;
            t <- forkIO (block (takeMVar m >>= \x -> return ()));
            throwTo t #KillThread;
            return 1 }|}
  in
  let program_available =
    Ch_lang.Parser.parse
      {|do { m <- newEmptyMVar; putMVar m 7;
            t <- forkIO (block (takeMVar m >>= \x -> putMVar m x));
            throwTo t #KillThread;
            takeMVar m }|}
  in
  List.iter
    (fun (name, program) ->
      let r = explore program in
      Printf.printf "%-44s -> %s\n" name
        (Fmt.str "%a" Fmt.(list ~sep:(any ", ") Space.pp_terminal_kind)
           (Space.terminal_kinds r)))
    [
      ("masked takeMVar on EMPTY mvar + kill", program_waiting);
      ("masked takeMVar on FULL mvar + kill", program_available);
    ];
  Printf.printf
    "(empty: the kill is deliverable — thread dies, program completes;\n\
    \ full: the take is atomic — the update always completes with 7)\n"

(* --- C5: §8.1 frame collapse ---------------------------------------------- *)

let c5 () =
  header "C5 — mask-frame collapse keeps recursion in constant stack (§8.1)";
  let rec recur n =
    if n = 0 then Io.frame_depth else Io.block (Io.unblock (recur (n - 1)))
  in
  Printf.printf "%-10s %18s %18s\n" "depth n" "collapse ON" "collapse OFF";
  List.iter
    (fun n ->
      let depth config =
        match (Runtime.run ~config (recur n)).Runtime.outcome with
        | Runtime.Value d -> d
        | _ -> -1
      in
      let on = depth Runtime.Config.default in
      let off =
        depth
          {
            Runtime.Config.default with
            Runtime.Config.collapse_mask_frames = false;
          }
      in
      Printf.printf "%-10d %18d %18d\n" n on off)
    [ 10; 100; 1_000; 10_000 ]

(* --- C6: §8.2 vs §9 throwTo designs ---------------------------------------- *)

let c6 () =
  header "C6 — asynchronous vs synchronous throwTo (§8.2 vs §9)";
  let open Io in
  let probe config =
    (* steps for the sender to get PAST throwTo while the target stays
       masked: async returns at once; sync waits for the unblock window *)
    let prog =
      Mvar.new_empty >>= fun started ->
      fork
        (block
           ( Mvar.put started () >>= fun () ->
             Combinators.repeat 50 yield >>= fun () ->
             catch (unblock (Combinators.forever yield)) (fun _ -> return ())
           ))
      >>= fun t ->
      Mvar.take started >>= fun () ->
      now >>= fun _ ->
      throw_to t Kill_thread >>= fun () -> return ()
    in
    (Runtime.run ~config prog).Runtime.steps
  in
  let async_steps = probe Runtime.Config.default in
  let sync_steps =
    probe { Runtime.Config.default with Runtime.Config.sync_throw_to = true }
  in
  Printf.printf "async throwTo: sender finished after %3d steps\n" async_steps;
  Printf.printf "sync  throwTo: sender finished after %3d steps (waited for delivery)\n"
    sync_steps

(* --- C7: §2 polling baseline ------------------------------------------------ *)

let c7 () =
  header "C7 — semi-asynchronous polling vs fully-asynchronous throwTo (§2)";
  Printf.printf "%-18s %14s %16s\n" "poll interval" "overhead steps"
    "cancel latency";
  let baseline =
    let open Io in
    let prog =
      Polling.create >>= fun tok -> Polling.polling_worker tok ~every:0 ~units:2_000
    in
    (Runtime.run prog).Runtime.steps
  in
  List.iter
    (fun every ->
      let open Io in
      (* overhead: full run, never cancelled *)
      let overhead =
        let prog =
          Polling.create >>= fun tok ->
          Polling.polling_worker tok ~every ~units:2_000
        in
        (Runtime.run prog).Runtime.steps - baseline
      in
      (* latency: units the worker still executes between the cancellation
         request and its detection at the next poll point, averaged over
         request phases *)
      let latency_at phase =
        let counter = ref 0 in
        let prog =
          Polling.create >>= fun tok ->
          let rec work () =
            (if every > 0 && !counter mod every = 0 then Polling.poll tok
             else return ())
            >>= fun () ->
            lift (fun () -> incr counter) >>= fun () ->
            yield >>= fun () -> work ()
          in
          Task.spawn (catch (work ()) (fun _ -> return ())) >>= fun t ->
          Combinators.repeat phase yield >>= fun () ->
          lift (fun () -> !counter) >>= fun at_request ->
          Polling.request_cancel tok >>= fun () ->
          Task.await t >>= fun () ->
          lift (fun () -> !counter - at_request)
        in
        match (Runtime.run prog).Runtime.outcome with
        | Runtime.Value extra -> extra
        | _ -> 0
      in
      let phases = List.init 16 (fun i -> 500 + (7 * i)) in
      let mean =
        float_of_int (List.fold_left (fun acc p -> acc + latency_at p) 0 phases)
        /. float_of_int (List.length phases)
      in
      Printf.printf "%-18d %14d %11.1f units\n" every overhead mean)
    [ 1; 4; 16; 64; 256 ];
  (* the fully-asynchronous design: zero overhead, immediate delivery *)
  let open Io in
  let async_latency =
    let counter = ref 0 in
    let prog =
      Task.spawn
        (catch
           (Combinators.forever (lift (fun () -> incr counter)))
           (fun _ -> return (-1)))
      >>= fun t ->
      Combinators.repeat 500 yield >>= fun () ->
      lift (fun () -> !counter) >>= fun at_cancel ->
      Task.cancel t >>= fun () ->
      Task.await t >>= fun _ ->
      lift (fun () -> !counter - at_cancel)
    in
    match (Runtime.run prog).Runtime.outcome with
    | Runtime.Value extra -> extra
    | _ -> -1
  in
  Printf.printf "%-18s %14d %13d units\n" "async throwTo" 0 async_latency

(* --- C8: §8 thunk policies --------------------------------------------------- *)

let c8 () =
  header "C8 — interrupted thunks: revert (restart) vs freeze (resume) (§8)";
  let fib_term =
    Ch_lang.Parser.parse
      "let rec fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) in fib 17"
  in
  let baseline =
    let m = Ch_pure.Machine.create fib_term in
    ignore (Ch_pure.Machine.force_deep m);
    Ch_pure.Machine.steps_taken m
  in
  Printf.printf "uninterrupted evaluation: %d machine steps\n" baseline;
  Printf.printf "%-14s %16s %16s %12s\n" "interrupt at" "revert total"
    "freeze total" "same value?";
  List.iter
    (fun k ->
      let total policy =
        let m = Ch_pure.Machine.create fib_term in
        (match Ch_pure.Machine.run m ~steps:k with
        | Ch_pure.Machine.Running -> Ch_pure.Machine.interrupt m policy
        | _ -> ());
        let v = Ch_pure.Machine.force_deep m in
        (Ch_pure.Machine.steps_taken m, v)
      in
      let revert_steps, rv = total Ch_pure.Machine.Revert in
      let freeze_steps, fv = total Ch_pure.Machine.Freeze in
      Printf.printf "%-14d %16d %16d %12b\n" k revert_steps freeze_steps
        (rv = fv))
    [ 1_000; 10_000; 50_000; 100_000 ]

(* --- C14: the §4 semaphore, model-checked ------------------------------------ *)

let c14 () =
  header "C14 — §4's object-language semaphore: 2001-era bug vs §5.3 fix";
  let scenario =
    Ch_lang.Parser.parse
      {|do {
          s <- newSem 0;
          w <- forkIO (block (do { waitSem s; signalSem s }));
          throwTo w #KillThread;
          signalSem s;
          waitSem s;
          return 1
        }|}
  in
  List.iter
    (fun (name, variant) ->
      let r =
        Space.explore
          ~config:{ quiet with Step.fuel = 50_000 }
          ~max_states:400_000
          (State.initial (Ch_corpus.Semaphore.with_sem_prelude ~variant scenario))
      in
      Printf.printf "%-28s %8d states  %s\n" name r.Space.visited
        (Fmt.str "%a" Fmt.(list ~sep:(any ", ") Space.pp_terminal_kind)
           (Space.terminal_kinds r)))
    [ ("naive (unblocked take)", `Naive); ("robust (§5.3 + retry)", `Robust) ];
  Printf.printf
    "(naive: a unit can be handed to a doomed waiter, or lost by a killed\n\
    \ signaller — deadlock reachable; robust: success on every schedule)\n"

(* --- Extra: fork mask inheritance ablation ----------------------------------- *)

let fork_inheritance () =
  header
    "EXTRA — why GHC made forked threads inherit the mask (Fig 5 ablation)";
  (* The window: a runtime pushes a child's catch frame only when the child
     first runs, so a kill delivered before that first step bypasses the
     would-be handler. A child forked masked (GHC inheritance) cannot
     receive anything until its own unblock — by which time the handler is
     installed. (In the paper's term semantics the context is syntactic, so
     the window does not exist there; this is an implementation-level
     refinement the formal semantics justifies.) *)
  let open Io in
  let runs = 60 in
  let sweep inherits =
    (* random scheduling: the dangerous interleaving is "parent forks, then
       parent throws" with the child never scheduled in between, which
       round-robin cannot produce *)
    let handled = ref 0 and lost = ref 0 in
    for seed = 1 to runs do
      let config =
        {
          Runtime.Config.default with
          Runtime.Config.policy = Runtime.Config.Random seed;
          fork_inherits_mask = inherits;
        }
      in
      let prog =
        Mvar.new_empty >>= fun m ->
        block
          (fork
             (catch
                (unblock (Combinators.forever yield))
                (fun _ -> Mvar.put m `Handled)))
        >>= fun child ->
        throw_to child Kill_thread >>= fun () ->
        Combinators.either (Mvar.take m) (Combinators.repeat 200 yield)
      in
      match (Runtime.run ~config prog).Runtime.outcome with
      | Runtime.Value (Either.Left `Handled) -> incr handled
      | _ -> incr lost
    done;
    (!handled, !lost)
  in
  let h_inherit, l_inherit = sweep true in
  let h_literal, l_literal = sweep false in
  Printf.printf
    "fork inherits mask (GHC refinement): handler ran %2d/%d, cleanup lost %2d/%d\n"
    h_inherit runs l_inherit runs;
  Printf.printf
    "fork starts unmasked (Fig 5 literal): handler ran %2d/%d, cleanup lost %2d/%d\n"
    h_literal runs l_literal runs

(* --- C17: domain-parallel engines are observationally sequential ------------- *)

let c17 () =
  header "C17 — parallel sweep & exploration: results independent of --jobs";
  (* The parallel engines' contract (lib/par + Sweep ?jobs + Space ?jobs):
     worker domains only change wall clock, never results. Each faulted
     re-run / BFS expansion happens in a private runtime, partials are
     indexed, and the merge replays them in sequential order. Checked
     here by structural equality of the full reports — including failure
     lists and shrunk plans — not just summary counts. *)
  let jobs_list = [ 2; 4 ] in
  Printf.printf "%-20s %12s %14s  %s\n" "sweep case" "kill points"
    "faulted steps" "jobs∈{2,4} ≡ jobs=1";
  List.iter
    (fun case ->
      let seq = Fault.Sweep.sweep ~jobs:1 case in
      let same =
        List.for_all (fun j -> Fault.Sweep.sweep ~jobs:j case = seq) jobs_list
      in
      Printf.printf "%-20s %12d %14d  %b\n" (Fault.Sweep.case_name case)
        (kill_points seq) seq.Fault.Sweep.r_faulted_steps same)
    Fault.Cases.std;
  let seq =
    Space.explore ~config:quiet
      (State.initial (Ch_corpus.Locking.harness Ch_corpus.Locking.catch_only))
  in
  let same =
    List.for_all
      (fun j ->
        Space.explore ~config:quiet ~jobs:j
          (State.initial
             (Ch_corpus.Locking.harness Ch_corpus.Locking.catch_only))
        = seq)
      jobs_list
  in
  Printf.printf "%-20s %12d %14d  %b\n" "explore catch-only" seq.Space.visited
    seq.Space.edges same

(* --- C18: supervision — graceful degradation under worker kills -------------- *)

let c18 () =
  header "C18 — supervision (lib/sup): killed workers degrade, never wedge";
  (* The robustness claim the supervision layer adds on top of §11: with
     the same four-client load and the same injected worker kill, the
     supervised server answers every client (a 503 from the restarted
     slot, or a 200 when the kill lands before the request was consumed)
     and counts one restart, while the bare forkIO+semaphore prototype
     leaves the killed connection silent until the client's own timeout.
     Both modes are then swept: every sampled kill point into a
     conn-worker, judged by the sweep's wedge/invariant verdict. The
     exhaustive version of that sweep (every suite, every armed step) is
     the CI gate. *)
  let open Io in
  let outcomes = ref [] and stats = ref None in
  let scenario ~supervised =
    let config =
      {
        Hserver.Server.default_config with
        Hserver.Server.supervised;
        max_concurrent = 2;
        max_waiting = 1;
      }
    in
    let client id server =
      catch
        ( Hserver.Server.connect server >>= fun conn ->
          Hserver.Http.write_request conn
            { Hserver.Http.meth = "GET"; path = "/"; headers = []; body = "" }
          >>= fun () ->
          Combinators.timeout 2_000 (Hserver.Http.read_response conn)
          >>= fun r ->
          lift (fun () ->
              let out =
                match r with
                | Some resp -> string_of_int resp.Hserver.Http.status
                | None -> "silent"
              in
              outcomes := (id, out) :: !outcomes) )
        (fun _ -> lift (fun () -> outcomes := (id, "killed") :: !outcomes))
    in
    lift (fun () ->
        outcomes := [];
        stats := None)
    >>= fun () ->
    Hserver.Server.start ~config
      (Hserver.Server.route [ ("/", fun _ -> Hserver.Http.ok "x") ])
    >>= fun server ->
    Combinators.parallel_map Task.spawn
      [ client 0 server; client 1 server; client 2 server; client 3 server ]
    >>= fun tasks ->
    let rec joins = function
      | [] -> return ()
      | t :: rest ->
          catch (Task.await t) (fun _ -> return ()) >>= fun () -> joins rest
    in
    joins tasks >>= fun () ->
    Fault.Sweep.disarm >>= fun () ->
    Hserver.Server.shutdown server >>= fun s ->
    lift (fun () -> stats := Some s)
  in
  let run_mode ~supervised =
    let case =
      Fault.Sweep.case
        (if supervised then "c18-supervised" else "c18-bare")
        (scenario ~supervised)
    in
    let sched = Fault.Sweep.record case in
    let armed = sched.Fault.Sweep.s_armed in
    (* one representative kill, 60% into this mode's own armed window —
       late enough that a worker is mid-request *)
    let at_step, _ = armed.(Array.length armed * 3 / 5) in
    let plan =
      [
        {
          Fault.Plan.at_step;
          target = Fault.Plan.Named "conn-worker";
          exn = Kill_thread;
        };
      ]
    in
    let verdict, _ = Fault.Sweep.run_plan case sched plan in
    let outs =
      List.sort compare !outcomes |> List.map snd |> String.concat " "
    in
    let s = Option.get !stats in
    let report =
      Fault.Sweep.sweep ~max_points:200 ~shrink:false
        ~target:(Fault.Plan.Named "conn-worker") case
    in
    (outs, s, verdict, report)
  in
  Printf.printf "%-26s %-22s %29s\n" "" "client outcomes"
    "served/shed/timeouts/restarts";
  List.iter
    (fun supervised ->
      let outs, s, verdict, r = run_mode ~supervised in
      Printf.printf "%-26s %-22s %17d/%d/%d/%d   sweep: %d/%d points failed%s\n"
        (if supervised then "supervised (lib/sup)" else "bare (§11 prototype)")
        outs s.Hserver.Server.served s.Hserver.Server.shed
        s.Hserver.Server.timeouts s.Hserver.Server.restarts
        (List.length r.Fault.Sweep.r_failures)
        (kill_points r)
        (match verdict with None -> "" | Some v -> "  [" ^ v ^ "]"))
    [ true; false ]

(* --- OBS: §5 delivery windows, quantified ------------------------------------ *)

let obs_latency () =
  header "OBS — send→deliver latency vs the receiver's mask (virtual steps)";
  (* The §5 claim made quantitative: a throwTo into an unmasked receiver
     lands at its next scheduling point; into a masked region it is pinned
     at the send until the unblock opens a window. The observability
     recorder stamps both edges on the virtual-step clock, so the latency
     below is exact and reproducible, not a timing measurement. *)
  let open Io in
  let latency victim =
    let r = Obs.Rec.create () in
    let config = Obs.Rec.attach r Runtime.Config.default in
    let prog =
      fork victim >>= fun t ->
      Combinators.repeat 2 yield >>= fun () ->
      throw_to t Kill_thread >>= fun () -> Combinators.repeat 300 yield
    in
    ignore (Runtime.run ~config prog);
    match Obs.Span.deliveries (Obs.Rec.entries r) with
    | [ d ] -> d.Obs.Span.dl_delivered - Option.get d.Obs.Span.dl_sent
    | ds -> failwith (Printf.sprintf "%d deliveries" (List.length ds))
  in
  Printf.printf "%-34s %s\n" "receiver" "send→deliver (steps)";
  Printf.printf "%-34s %d\n" "unmasked (forever yield)"
    (latency (Combinators.forever yield));
  List.iter
    (fun n ->
      Printf.printf "%-34s %d\n"
        (Printf.sprintf "masked for %d yields, then unblock" n)
        (latency
           (block (Combinators.repeat n yield >>= fun () -> unblock (Combinators.forever yield)))))
    [ 0; 5; 10; 20; 40 ];
  Printf.printf "%-34s %s\n" "masked forever (block, no unblock)" "never"

let () =
  print_endline
    "Asynchronous Exceptions in Haskell (PLDI 2001) — claim validation";
  c1_c2 ();
  c3 ();
  c5 ();
  c6 ();
  c7 ();
  c8 ();
  c14 ();
  c17 ();
  c18 ();
  fork_inheritance ();
  obs_latency ()
