(* Benchmark harness: one Bechamel test (or test group) per figure and per
   measurable claim of the paper — see DESIGN.md's per-experiment index and
   EXPERIMENTS.md for the measured numbers.

   F1  Figure 1  term syntax: parser / printer throughput
   F2  Figure 2  program states: construction + canonical keys
   F4  Figure 4  Concurrent-Haskell stepper throughput
   F5  Figure 5  asynchronous-exception rules throughput
   C1  §5.1/5.2  model-checking cost of the locking protocols
   C4  §7        combinator overhead (timeout nesting, either, both)
   C5  §8.1      mask-frame collapse ablation
   C6  §8.2/§9   asynchronous vs synchronous throwTo
   C7  §2        polling baseline vs fully-asynchronous cancellation
   C8  §8        thunk policies: restart (revert) vs resume (freeze)
   RT  —         runtime primitive costs (MVar, Chan, Sem, fork)
   SC  —         scheduler hot path at scale (many runnable threads)
   OB  —         observability overhead: Obs.Rec vs logs tracer vs off
   PAR —         domain-parallel sweep/exploration at 1/2/4/8 domains
   SUP —         supervised vs bare server, clean and under injected kills
   ACT —         actor layer: call round-trip, mailbox ring, selective stash

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit

(* --- helpers -------------------------------------------------------------- *)

let quiet_sem =
  { Ch_semantics.Step.default_config with Ch_semantics.Step.stuck_io = false }

let run_rr io =
  match (Hio.Runtime.run io).Hio.Runtime.outcome with
  | Hio.Runtime.Value v -> v
  | _ -> failwith "bench program failed"

let run_config config io =
  match (Hio.Runtime.run ~config io).Hio.Runtime.outcome with
  | Hio.Runtime.Value v -> v
  | _ -> failwith "bench program failed"

let stage = Staged.stage

(* --- F1: Figure 1 — syntax ----------------------------------------------- *)

let either_source = Ch_lang.Pretty.term_to_string Ch_corpus.Combinators.either_t

let fig1 =
  [
    Test.make ~name:"fig1/parse-either" (stage (fun () ->
        Ch_lang.Parser.parse either_source));
    Test.make ~name:"fig1/print-either" (stage (fun () ->
        Ch_lang.Pretty.term_to_string Ch_corpus.Combinators.either_t));
    Test.make ~name:"fig1/subst-capture" (stage (fun () ->
        Ch_lang.Subst.subst Ch_corpus.Combinators.either_t "a"
          (Ch_lang.Term.Var "b")));
  ]

(* --- F2: Figure 2 — program states --------------------------------------- *)

let mid_state =
  (* a representative mid-execution state: the locking harness after 12
     round-robin steps *)
  let program = Ch_corpus.Locking.harness Ch_corpus.Locking.block_protected in
  let run =
    Ch_explore.Sched.run ~config:quiet_sem ~max_steps:12
      Ch_explore.Sched.Round_robin
      (Ch_semantics.State.initial program)
  in
  run.Ch_explore.Sched.final

let fig2 =
  [
    Test.make ~name:"fig2/initial-state" (stage (fun () ->
        Ch_semantics.State.initial Ch_corpus.Combinators.either_t));
    Test.make ~name:"fig2/canonical-key" (stage (fun () ->
        Ch_semantics.State.canonical_key mid_state));
    Test.make ~name:"fig2/enumerate" (stage (fun () ->
        Ch_semantics.Step.enumerate ~config:quiet_sem mid_state));
  ]

(* --- F4/F5: stepper throughput ------------------------------------------- *)

let run_sem program =
  let r =
    Ch_explore.Sched.run ~config:quiet_sem ~max_steps:100_000
      Ch_explore.Sched.Round_robin
      (Ch_semantics.State.initial program)
  in
  assert (r.Ch_explore.Sched.outcome = Ch_explore.Sched.Terminated);
  r.Ch_explore.Sched.steps

let fig4 =
  [
    Test.make ~name:"fig4/counter-loop-20" (stage (fun () ->
        run_sem (Ch_corpus.Programs.counter_loop 20)));
    Test.make ~name:"fig4/ping-pong" (stage (fun () ->
        run_sem Ch_corpus.Programs.ping_pong));
    Test.make ~name:"fig4/pure-eval-fib10" (stage (fun () ->
        Ch_pure.Eval.eval ~fuel:200_000
          (Ch_lang.Parser.parse
             "let rec fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) in fib 10")));
  ]

let mask_heavy =
  Ch_lang.Parser.parse
    {|let rec go = \n ->
        if n == 0 then return 0
        else block (unblock (sleep 1)) >>= \u -> go (n - 1) in
      go 10|}

let fig5 =
  [
    Test.make ~name:"fig5/mask-loop" (stage (fun () -> run_sem mask_heavy));
    Test.make ~name:"fig5/kill-sleeping" (stage (fun () ->
        run_sem Ch_corpus.Programs.kill_sleeping));
    Test.make ~name:"fig5/mask-interrupt" (stage (fun () ->
        run_sem Ch_corpus.Programs.mask_interrupt));
  ]

(* --- C1/C2: model checking the §5 protocols ------------------------------- *)

let check protocol =
  let r =
    Ch_explore.Space.explore ~config:quiet_sem
      (Ch_semantics.State.initial (Ch_corpus.Locking.harness protocol))
  in
  r.Ch_explore.Space.visited

let c1 =
  [
    Test.make ~name:"c1/check-unprotected" (stage (fun () ->
        check Ch_corpus.Locking.unprotected));
    Test.make ~name:"c1/check-catch-only" (stage (fun () ->
        check Ch_corpus.Locking.catch_only));
    Test.make ~name:"c1/check-block-protected" (stage (fun () ->
        check Ch_corpus.Locking.block_protected));
  ]

(* --- C4: combinator overhead ---------------------------------------------- *)

open Hio
open Hio_std

let rec nested_timeout depth =
  if depth = 0 then Io.map (fun () -> true) (Io.sleep 1)
  else
    Io.map
      (function Some b -> b | None -> false)
      (Combinators.timeout 1_000 (nested_timeout (depth - 1)))

let c4 =
  [
    Test.make ~name:"c4/timeout-depth1" (stage (fun () ->
        run_rr (nested_timeout 1)));
    Test.make ~name:"c4/timeout-depth4" (stage (fun () ->
        run_rr (nested_timeout 4)));
    Test.make ~name:"c4/either" (stage (fun () ->
        run_rr (Combinators.either (Io.sleep 1) (Io.sleep 2))));
    Test.make ~name:"c4/both" (stage (fun () ->
        run_rr (Combinators.both (Io.sleep 1) (Io.sleep 2))));
    Test.make ~name:"c4/bracket" (stage (fun () ->
        run_rr
          (Combinators.bracket (Io.return ())
             (fun () -> Io.return 1)
             (fun () -> Io.return ()))));
  ]

(* --- C5: §8.1 frame collapse ablation -------------------------------------- *)

let rec mask_recursion n =
  if n = 0 then Io.return 0 else Io.block (Io.unblock (mask_recursion (n - 1)))

let no_collapse =
  {
    Runtime.Config.default with
    Runtime.Config.collapse_mask_frames = false;
  }

let c5 =
  [
    Test.make ~name:"c5/collapse-on-500" (stage (fun () ->
        run_rr (mask_recursion 500)));
    Test.make ~name:"c5/collapse-off-500" (stage (fun () ->
        run_config no_collapse (mask_recursion 500)));
  ]

(* --- C6: asynchronous vs synchronous throwTo -------------------------------- *)

let throw_storm n =
  (* a victim that perpetually catches; the main thread throws n times *)
  let open Io in
  fork
    (let rec absorb () =
       catch (Combinators.forever yield) (fun _ -> absorb ())
     in
     absorb ())
  >>= fun t ->
  Combinators.repeat n (throw_to t Io.Kill_thread >>= fun () -> yield)
  >>= fun () -> return n

let sync_cfg = { Runtime.Config.default with Runtime.Config.sync_throw_to = true }

let c6 =
  [
    Test.make ~name:"c6/throwto-async-50" (stage (fun () ->
        run_rr (throw_storm 50)));
    Test.make ~name:"c6/throwto-sync-50" (stage (fun () ->
        run_config sync_cfg (throw_storm 50)));
  ]

(* --- C7: polling vs asynchronous cancellation ------------------------------ *)

let polling_run every =
  let open Io in
  Polling.create >>= fun token ->
  Polling.polling_worker token ~every ~units:1_000

let async_worker_run =
  (* identical workload with the polls compiled out ([every:0] never
     polls): what the fully-asynchronous design charges the target *)
  polling_run 0

let c7 =
  [
    Test.make ~name:"c7/poll-every-1" (stage (fun () -> run_rr (polling_run 1)));
    Test.make ~name:"c7/poll-every-16" (stage (fun () -> run_rr (polling_run 16)));
    Test.make ~name:"c7/poll-every-128" (stage (fun () -> run_rr (polling_run 128)));
    Test.make ~name:"c7/async-no-polling" (stage (fun () -> run_rr async_worker_run));
  ]

(* --- C8: thunk policies — restart vs resume -------------------------------- *)

let fib_term =
  Ch_lang.Parser.parse
    "let rec fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) in fib 16"

let thunk_policy_total policy =
  let m = Ch_pure.Machine.create fib_term in
  (match Ch_pure.Machine.run m ~steps:20_000 with
  | Ch_pure.Machine.Running -> Ch_pure.Machine.interrupt m policy
  | Ch_pure.Machine.Done _ | Ch_pure.Machine.Raised _ -> ());
  match Ch_pure.Machine.force_deep m with
  | Some _ -> Ch_pure.Machine.steps_taken m
  | None -> failwith "budget"

let gc_heavy_term =
  Ch_lang.Parser.parse
    {|let start = 4000 in
      let rec go = \n -> if n == 0 then 0 else go (n - 1) in
      go start|}

let machine_with_gc threshold =
  let m = Ch_pure.Machine.create gc_heavy_term in
  Ch_pure.Machine.set_gc_threshold m threshold;
  match Ch_pure.Machine.force_deep m with
  | Some _ -> Ch_pure.Machine.heap_size m
  | None -> failwith "budget"

let c8 =
  [
    Test.make ~name:"c8/run-to-done" (stage (fun () ->
        Ch_pure.Machine.eval_result fib_term));
    Test.make ~name:"c8/revert-restart" (stage (fun () ->
        thunk_policy_total Ch_pure.Machine.Revert));
    Test.make ~name:"c8/freeze-resume" (stage (fun () ->
        thunk_policy_total Ch_pure.Machine.Freeze));
    Test.make ~name:"c8/gc-on-loop-4k" (stage (fun () ->
        machine_with_gc (Some 1_000)));
    Test.make ~name:"c8/gc-off-loop-4k" (stage (fun () ->
        machine_with_gc None));
  ]

(* --- DN: denotation + equivalence-checking costs ---------------------------- *)

let fib12_term =
  Ch_lang.Parser.parse
    "let rec fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) in return (fib 12)"

let dn =
  [
    Test.make ~name:"dn/denote-fib12" (stage (fun () ->
        Ch_denote.Denote.run fib12_term));
    Test.make ~name:"dn/bigstep-fib12" (stage (fun () ->
        Ch_pure.Eval.eval ~fuel:2_000_000
          (Ch_lang.Parser.parse
             "let rec fib = \\n -> if n < 2 then n else fib (n - 1) + fib (n - 2) in fib 12")));
    Test.make ~name:"dn/observe-lock-harness" (stage (fun () ->
        Ch_explore.Equiv.observe ~config:quiet_sem
          (Ch_corpus.Locking.harness Ch_corpus.Locking.block_protected)));
  ]

(* --- RT: runtime primitive costs ------------------------------------------- *)

let mvar_pingpong n =
  let open Io in
  Mvar.new_empty >>= fun ping ->
  Mvar.new_empty >>= fun pong ->
  fork
    (let rec echo () =
       Mvar.take ping >>= fun v ->
       Mvar.put pong v >>= fun () -> echo ()
     in
     echo ())
  >>= fun _ ->
  Combinators.repeat n
    ( Mvar.put ping 1 >>= fun () ->
      Mvar.take pong >>= fun _ -> return () )
  >>= fun () -> return n

let chan_stream n =
  let open Io in
  Chan.create () >>= fun c ->
  fork (Combinators.repeat n (Chan.send c 1)) >>= fun _ ->
  Combinators.repeat n (Chan.recv c >>= fun _ -> return ()) >>= fun () ->
  return n

let sem_cycle n =
  let open Io in
  Sem.create 1 >>= fun s ->
  Combinators.repeat n (Sem.with_unit s (return ())) >>= fun () -> return n

let fork_join n =
  let open Io in
  let rec go i =
    if i = 0 then return n
    else
      Task.spawn (return ()) >>= fun t ->
      Task.await t >>= fun () -> go (i - 1)
  in
  go n

let rt =
  [
    Test.make ~name:"rt/mvar-pingpong-100" (stage (fun () ->
        run_rr (mvar_pingpong 100)));
    Test.make ~name:"rt/chan-stream-100" (stage (fun () ->
        run_rr (chan_stream 100)));
    Test.make ~name:"rt/sem-cycle-100" (stage (fun () -> run_rr (sem_cycle 100)));
    Test.make ~name:"rt/fork-join-100" (stage (fun () -> run_rr (fork_join 100)));
    Test.make ~name:"rt/bind-chain-10k" (stage (fun () ->
        let open Io in
        let rec loop i acc =
          if i = 0 then return acc else return (acc + 1) >>= loop (i - 1)
        in
        run_rr (loop 10_000 0)));
  ]

(* --- SC: scheduler hot path at scale ---------------------------------------- *)

(* Many-runnable-thread scenarios: with the seed's list-based run queue
   every enqueue is O(|runq|), so a storm of n runnable threads costs
   O(n) per step — these benchmarks are the before/after evidence for the
   O(1) ring-deque substitution (BENCH_scheduler.json). *)

(* A binary fork tree of depth d: the spawners fork in parallel, so all
   2^(d+1)-1 threads become runnable within ~2(d+1) scheduler cycles and
   then yield together — the run queue really holds ~2^(d+1) threads, which
   a sequential fork loop cannot achieve (the forker gets one step per
   round-robin cycle, so its children die faster than it spawns them). *)
let fork_tree depth rounds =
  let open Io in
  let total = (1 lsl (depth + 1)) - 1 in
  Mvar.new_empty >>= fun done_mv ->
  let rec node d =
    (if d = 0 then return ()
     else
       fork (node (d - 1)) >>= fun _ ->
       fork (node (d - 1)) >>= fun _ -> return ())
    >>= fun () ->
    Combinators.repeat rounds yield >>= fun () -> Mvar.put done_mv ()
  in
  fork (node depth) >>= fun _ ->
  Combinators.repeat total (Mvar.take done_mv) >>= fun () -> return total

let fork_storm n =
  let open Io in
  Mvar.new_empty >>= fun done_mv ->
  let rec spawn i =
    if i = 0 then return ()
    else fork (Mvar.put done_mv ()) >>= fun _ -> spawn (i - 1)
  in
  spawn n >>= fun () ->
  Combinators.repeat n (Mvar.take done_mv) >>= fun () -> return n

let random_cfg =
  { Runtime.Config.default with Runtime.Config.policy = Runtime.Config.Random 42 }

let sc =
  [
    Test.make ~name:"sc/fork-tree-1023x30" (stage (fun () ->
        run_rr (fork_tree 9 30)));
    Test.make ~name:"sc/fork-tree-2047x20" (stage (fun () ->
        run_rr (fork_tree 10 20)));
    Test.make ~name:"sc/fork-storm-1000" (stage (fun () ->
        run_rr (fork_storm 1_000)));
    Test.make ~name:"sc/fork-tree-random-1023x10" (stage (fun () ->
        run_config random_cfg (fork_tree 9 10)));
  ]

(* --- DOM: the multi-domain work-stealing scheduler --------------------------- *)

(* The BENCH_domains.json scenarios: the SC storm (1023 simultaneously
   runnable threads, 30 yield laps each) executed live on 1/2/4/8
   scheduler domains, plus a single-domain deterministic replay of a
   captured 4-domain log. The multi-domain cells include everything a
   real `chrun run --domains N` pays: domain spawn/join, the global-lock
   sequenced steps (cross-domain throwTo among them), work stealing,
   and always-on replay-log recording. On a single-core container domains >
   1 can only lose (same caveat as the PAR group); the >=2.5x storm
   criterion is judged on a multi-core runner. *)

let run_domains domains io =
  let config = { Runtime.Config.default with Runtime.Config.domains } in
  match (Runtime.run ~config io).Runtime.outcome with
  | Runtime.Value v -> v
  | _ -> failwith "bench program failed"

let dom_storm () = fork_tree 9 30

(* One 4-domain log, captured at first use: the replay cell prices
   following a recorded schedule, not recording it. *)
let dom_log =
  lazy
    (let config = { Runtime.Config.default with Runtime.Config.domains = 4 } in
     match (Runtime.run ~config (dom_storm ())).Runtime.replay_log with
     | Some log -> log
     | None -> assert false)

let dom_replay () =
  let config =
    { Runtime.Config.default with Runtime.Config.replay = Some (Lazy.force dom_log) }
  in
  let r = Runtime.run ~config (dom_storm ()) in
  assert (not r.Runtime.replay_diverged);
  match r.Runtime.outcome with
  | Runtime.Value v -> v
  | _ -> failwith "bench program failed"

let dom_group =
  List.map
    (fun domains ->
      Test.make
        ~name:(Printf.sprintf "dom/fork-tree-1023x30-d%d" domains)
        (stage (fun () -> run_domains domains (dom_storm ()))))
    [ 1; 2; 4; 8 ]
  @ [
      Test.make ~name:"dom/replay-1023x30-of-d4" (stage (fun () ->
          dom_replay ()));
    ]

(* --- OB: observability overhead ---------------------------------------------- *)

(* The BENCH_obs.json criterion: attaching the Obs.Rec ring recorder must
   cost <10% on the many-thread scenario. Rec's hot-path cost is one
   packed word per step into the runtime's step journal plus a few int
   stores per structured event; the comparison points are no tracer at
   all, the Logs-based tracer (which formats every event), and the live
   Runtime_obs metrics collector. One shared recorder/registry across
   runs, never cleared — the rings overwrite by construction, and a
   per-run clear would bill an Array.fill of the whole journal (~0.5MB)
   to workloads that are microseconds long. *)

let ob_recorder = Obs.Rec.create ()
let ob_rec_cfg = Obs.Rec.attach ob_recorder Runtime.Config.default

let ob_registry = Obs.Metrics.create ()
let ob_metrics_cfg = Obs.Runtime_obs.metrics ob_registry Runtime.Config.default

let ob_buf = Buffer.create 65536
let ob_src = Logs.Src.create "bench.obs"

let ob_logs_cfg =
  let ppf = Format.formatter_of_buffer ob_buf in
  let report _src _level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kfprintf (fun _ -> over (); k ()) ppf fmt)
  in
  Logs.set_reporter { Logs.report };
  Logs.Src.set_level ob_src (Some Logs.Debug);
  {
    Runtime.Config.default with
    Runtime.Config.tracer = Some (Runtime.logs_tracer ~src:ob_src ());
  }

let ob =
  [
    Test.make ~name:"ob/fork-tree-1023x30-off" (stage (fun () ->
        run_rr (fork_tree 9 30)));
    Test.make ~name:"ob/fork-tree-1023x30-rec" (stage (fun () ->
        run_config ob_rec_cfg (fork_tree 9 30)));
    Test.make ~name:"ob/fork-tree-1023x30-logs" (stage (fun () ->
        Buffer.clear ob_buf;
        run_config ob_logs_cfg (fork_tree 9 30)));
    Test.make ~name:"ob/fork-tree-1023x30-metrics" (stage (fun () ->
        run_config ob_metrics_cfg (fork_tree 9 30)));
    Test.make ~name:"ob/pingpong-100-rec" (stage (fun () ->
        run_config ob_rec_cfg (mvar_pingpong 100)));
    Test.make ~name:"ob/pingpong-100-off" (stage (fun () ->
        run_rr (mvar_pingpong 100)));
  ]

(* --- DS: direct-style (effects) runtime vs the monadic runtime -------------- *)

module D = Hio_direct.Direct

let direct_pingpong n =
  D.run (fun () ->
      let ping = D.new_mvar () and pong = D.new_mvar () in
      let _t =
        D.fork (fun () ->
            let rec echo () =
              let v : int = D.take ping in
              D.put pong v;
              echo ()
            in
            echo ())
      in
      for _ = 1 to n do
        D.put ping 1;
        ignore (D.take pong)
      done;
      n)

let ds =
  [
    Test.make ~name:"ds/direct-pingpong-100" (stage (fun () ->
        direct_pingpong 100));
    Test.make ~name:"ds/hio-pingpong-100" (stage (fun () ->
        run_rr (mvar_pingpong 100)));
  ]

(* --- SV: the §11 server substrate -------------------------------------------- *)

let server_roundtrips n =
  let open Hserver in
  let open Io in
  run_rr
    ( Server.start (Server.route [ ("/", fun _ -> Http.ok "x") ])
    >>= fun server ->
      Combinators.repeat n
        ( Server.connect server >>= fun conn ->
          Http.write_request conn
            { Http.meth = "GET"; path = "/"; headers = []; body = "" }
          >>= fun () ->
          Http.read_response conn >>= fun _ -> Io.return () )
      >>= fun () ->
      Server.shutdown server >>= fun stats -> Io.return stats.Server.served )

let sv =
  [
    Test.make ~name:"sv/request-roundtrips-10" (stage (fun () ->
        server_roundtrips 10));
  ]

(* --- PAR: domain-parallel sweep and exploration ------------------------------ *)

(* The BENCH_par.json scenarios: kill-point sweep throughput of the std
   fault suite and BFS exploration of the lock-protocol harness, at 1, 2,
   4 and 8 worker domains. Each cell includes the pool's spawn/shutdown
   cost — that is the real unit of work `chrun sweep --jobs N` pays.
   Results are byte-identical across jobs counts (asserted in
   test/test_par.ml); only wall clock may differ, and on a single-core
   container jobs > 1 is expected to {e lose} (domain contention), which
   is the honest number to record there. The >=2x acceptance criterion is
   measured on a multi-core CI runner. *)

let sweep_std_total jobs =
  List.fold_left
    (fun acc case ->
      let r = Fault.Sweep.sweep ~jobs case in
      acc + r.Fault.Sweep.r_faulted_steps)
    0 Fault.Cases.std

let explore_lock jobs =
  let r =
    Ch_explore.Space.explore ~config:quiet_sem ~jobs
      (Ch_semantics.State.initial
         (Ch_corpus.Locking.harness Ch_corpus.Locking.block_protected))
  in
  r.Ch_explore.Space.visited

let par_group =
  List.concat_map
    (fun jobs ->
      [
        Test.make
          ~name:(Printf.sprintf "par/sweep-std-jobs-%d" jobs)
          (stage (fun () -> sweep_std_total jobs));
        Test.make
          ~name:(Printf.sprintf "par/explore-lock-jobs-%d" jobs)
          (stage (fun () -> explore_lock jobs));
      ])
    [ 1; 2; 4; 8 ]

(* --- SUP: the supervision layer under injected kills ------------------------- *)

(* The BENCH_sup.json scenarios: the §11 server at a fixed four-client
   load, once under the lib/sup tree (default) and once as the bare
   forkIO+semaphore prototype ([supervised = false]), both clean and
   under the kill-point sweep targeting its conn-workers. The clean
   pair prices the supervision tree itself (mailbox, bulkhead, restart
   bookkeeping); the sweep pair prices what each mode pays per injected
   worker kill — the supervised server restarts the slot and answers
   503, the bare one leaves the client to its timeout. Sweeps are
   sampled ([max_points]) and unshrunk: this is a throughput cell, the
   exhaustive pass/fail run is `chrun sweep --suite sup` in CI. *)

let sup_server_load ~supervised =
  let open Hserver in
  let open Io in
  let config =
    {
      Server.default_config with
      Server.supervised;
      max_concurrent = 2;
      max_waiting = 1;
    }
  in
  Server.start ~config (Server.route [ ("/", fun _ -> Http.ok "x") ])
  >>= fun server ->
  let client =
    Server.connect server >>= fun conn ->
    Http.write_request conn
      { Http.meth = "GET"; path = "/"; headers = []; body = "" }
    >>= fun () ->
    Combinators.timeout 2_000 (Http.read_response conn) >>= fun _ ->
    return ()
  in
  Combinators.parallel_map Task.spawn [ client; client; client; client ]
  >>= fun tasks ->
  let rec joins = function
    | [] -> return ()
    | t :: rest ->
        catch (Task.await t) (fun _ -> return ()) >>= fun () -> joins rest
  in
  joins tasks >>= fun () ->
  Fault.Sweep.disarm >>= fun () ->
  Server.shutdown server >>= fun stats ->
  Io.return (stats.Server.served + stats.Server.shed)

let sup_case ~supervised =
  Fault.Sweep.case
    (if supervised then "bench-sup-server" else "bench-bare-server")
    (Io.( >>= ) (sup_server_load ~supervised) (fun _ -> Io.return ()))

let sup_kill_sweep ~supervised =
  let r =
    Fault.Sweep.sweep ~max_points:48 ~shrink:false
      ~target:(Fault.Plan.Named "conn-worker")
      (sup_case ~supervised)
  in
  r.Fault.Sweep.r_faulted_steps

let sup_group =
  [
    Test.make ~name:"sup/serve-4-supervised" (stage (fun () ->
        run_rr (sup_server_load ~supervised:true)));
    Test.make ~name:"sup/serve-4-bare" (stage (fun () ->
        run_rr (sup_server_load ~supervised:false)));
    Test.make ~name:"sup/kill-sweep-48-supervised" (stage (fun () ->
        sup_kill_sweep ~supervised:true));
    Test.make ~name:"sup/kill-sweep-48-bare" (stage (fun () ->
        sup_kill_sweep ~supervised:false));
  ]

(* --- ACT: actor layer -------------------------------------------------------- *)

(* The fixed costs of lib/actor, in wall-clock form (the mailbox lines
   of examples/sharded_server.expected count them in scheduler steps):
   a call round-trip (mailbox send + selective receive + reply mvar), a
   token lap around a ring of mailboxes, and selective receive when
   every message must first be stashed past. *)

let act_call_roundtrips n =
  let open Io in
  let module Actor = Hactor.Actor in
  Actor.spawn ~name:"ponger" (fun self ->
      Combinators.forever
        ( Actor.receive self (fun (`Ping r) -> Some r) >>= fun r ->
          Actor.reply r () ))
  >>= fun ponger ->
  Combinators.repeat n (Actor.call ponger (fun r -> `Ping r)) >>= fun () ->
  Actor.stop ponger >>= fun _ -> return n

let act_ring ~members:m ~laps =
  let open Io in
  let module Actor = Hactor.Actor in
  Mvar.new_empty >>= fun done_mv ->
  let rec mk i acc =
    if i = 0 then return (Array.of_list acc)
    else Actor.create () >>= fun a -> mk (i - 1) (a :: acc)
  in
  mk m [] >>= fun ring ->
  let rec start i =
    if i = m then return ()
    else
      Actor.fork_body ring.(i) (fun self ->
          Combinators.forever
            ( Actor.receive self (fun (`Token k) -> Some k) >>= fun k ->
              if k = 0 then Mvar.put done_mv ()
              else Actor.send ring.((i + 1) mod m) (`Token (k - 1)) ))
      >>= fun () -> start (i + 1)
  in
  start 0 >>= fun () ->
  Actor.send ring.(0) (`Token (m * laps)) >>= fun () ->
  Mvar.take done_mv >>= fun () ->
  let rec kill_all i =
    if i = m then return (m * laps)
    else Actor.kill ring.(i) >>= fun () -> kill_all (i + 1)
  in
  kill_all 0

let act_selective_stash n =
  (* n low-priority messages arrive first; the receiver picks the one
     high-priority message, restashing past all of them, then drains *)
  let open Io in
  let module Mailbox = Hactor.Mailbox in
  Mailbox.create () >>= fun mb ->
  Combinators.repeat n (Mailbox.push mb 0) >>= fun () ->
  Mailbox.push mb 1 >>= fun () ->
  Mailbox.receive mb (fun v -> if v = 1 then Some v else None) >>= fun _ ->
  Combinators.repeat n (Mailbox.next mb >>= fun _ -> return ()) >>= fun () ->
  return n

let act =
  [
    Test.make ~name:"act/call-roundtrip-100" (stage (fun () ->
        run_rr (act_call_roundtrips 100)));
    Test.make ~name:"act/ring-16x20" (stage (fun () ->
        run_rr (act_ring ~members:16 ~laps:20)));
    Test.make ~name:"act/selective-stash-200" (stage (fun () ->
        run_rr (act_selective_stash 200)));
  ]

(* --- OVL: overload posture --------------------------------------------------- *)

(* The cost of one open-loop load ramp (lib/fault/load_cases) against
   each server, clean, at the bottom and the top of the multiplier
   range: the measured unit behind the goodput/shed curves of the
   `chrun sweep --suite overload` gate, recorded in BENCH_fault.json.
   BENCH_overload.json holds these ops' baselines. The ramp runs on
   the simulated clock, so wall time here is pure scheduler + shedding
   machinery — admission checks, CoDel queue deadlines, breaker peeks —
   not I/O. *)

let ovl_ramp case mult =
  match
    Fault.Load_sweep.record case ~mult ~resources:Ev.Chaos.no_resources
  with
  | _, Some t -> t.Fault.Sweep.lt_ok
  | _, None -> failwith "overload ramp recorded no tally"

let ovl =
  [
    Test.make ~name:"ovl/server-ramp-1x" (stage (fun () ->
        ovl_ramp Fault.Load_cases.overload_server 1));
    Test.make ~name:"ovl/server-ramp-10x" (stage (fun () ->
        ovl_ramp Fault.Load_cases.overload_server 10));
    Test.make ~name:"ovl/shard-ramp-10x" (stage (fun () ->
        ovl_ramp Fault.Load_cases.overload_shard 10));
  ]

(* --- harness ---------------------------------------------------------------- *)

let groups =
  [
    ("F1 Figure-1 syntax", fig1);
    ("F2 Figure-2 states", fig2);
    ("F4 Figure-4 stepper", fig4);
    ("F5 Figure-5 stepper", fig5);
    ("C1 model-check locking", c1);
    ("C4 combinators", c4);
    ("C5 frame collapse", c5);
    ("C6 throwTo designs", c6);
    ("C7 polling baseline", c7);
    ("C8 thunk policies", c8);
    ("DN denotation bridge", dn);
    ("DS direct-style contrast", ds);
    ("SV server substrate", sv);
    ("RT runtime primitives", rt);
    ("SC scheduler hot path", sc);
    ("DOM multi-domain scheduler", dom_group);
    ("OB observability overhead", ob);
    ("PAR domain-parallel engines", par_group);
    ("SUP supervision layer", sup_group);
    ("ACT actor layer", act);
    ("OVL overload posture", ovl);
  ]

(* CLI: [-quota SECONDS] bounds the per-test measuring time (CI smoke runs
   use a small value), [-only PREFIX] selects matching groups, [-json
   FILE] writes the OLS estimates machine-readably (the input of
   scripts/bench_check.sh's regression gate). *)
let quota, only, json_path =
  let quota = ref 0.4 and only = ref [] and json = ref None in
  let usage () =
    Printf.eprintf
      "usage: main.exe [-quota SECONDS] [-only PREFIX]... [-json FILE]\n"
  in
  let rec parse = function
    | [] -> ()
    | "-quota" :: v :: rest -> (
        match float_of_string_opt v with
        | Some f ->
            quota := f;
            parse rest
        | None ->
            usage ();
            failwith ("bad -quota value " ^ v))
    | "-only" :: v :: rest ->
        only := String.lowercase_ascii v :: !only;
        parse rest
    | "-json" :: v :: rest ->
        json := Some v;
        parse rest
    | arg :: _ ->
        usage ();
        failwith ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  (!quota, !only, !json)

let groups =
  match only with
  | [] -> groups
  | prefixes ->
      List.filter
        (fun (name, _) ->
          let name = String.lowercase_ascii name in
          List.exists
            (fun p -> String.length p <= String.length name
                      && String.sub name 0 (String.length p) = p)
            prefixes)
        groups

let () =
  match groups with
  | [] ->
      Printf.eprintf "no benchmark group matches the -only prefixes\n";
      exit 2
  | _ -> ()

let ols =
  Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]

let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ()
let instances = Instance.[ monotonic_clock ]

let pretty_time ns =
  if ns >= 1_000_000. then Printf.sprintf "%10.2f ms" (ns /. 1_000_000.)
  else if ns >= 1_000. then Printf.sprintf "%10.2f us" (ns /. 1_000.)
  else Printf.sprintf "%10.1f ns" ns

let () =
  Printf.printf "benchmarks: %d groups, monotonic clock, OLS on run count\n"
    (List.length groups);
  (* (name, ns/run) in run order, for -json; names are bench identifiers
     (no quoting needed) and estimates plain floats. *)
  let rows = ref [] in
  List.iter
    (fun (group, tests) ->
      Printf.printf "\n-- %s --\n%!" group;
      List.iter
        (fun test ->
          let results = Benchmark.all cfg instances test in
          let analyzed = Analyze.all ols Instance.monotonic_clock results in
          Hashtbl.iter
            (fun name ols_result ->
              let ns =
                match Analyze.OLS.estimates ols_result with
                | Some (e :: _) -> Some e
                | Some [] | None -> None
              in
              (match ns with
              | Some e -> rows := (name, e) :: !rows
              | None -> ());
              let estimate =
                match ns with
                | Some e -> pretty_time e
                | None -> "       n/a"
              in
              let r2 =
                match Analyze.OLS.r_square ols_result with
                | Some r -> Printf.sprintf "r²=%.3f" r
                | None -> ""
              in
              Printf.printf "  %-28s %s/run  %s\n%!" name estimate r2)
            analyzed)
        tests)
    groups;
  match json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc "{\n  \"schema_version\": 1,\n";
      Printf.fprintf oc
        "  \"description\": \"bechamel OLS estimates, nanoseconds per run, \
         monotonic clock; written by bench/main.exe -json and consumed by \
         scripts/bench_check.sh\",\n";
      Printf.fprintf oc "  \"quota_seconds\": %g,\n" quota;
      Printf.fprintf oc "  \"estimates\": {\n";
      let rows = List.rev !rows in
      List.iteri
        (fun i (name, ns) ->
          Printf.fprintf oc "    \"%s\": %.1f%s\n" name ns
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  }\n}\n";
      close_out oc;
      Printf.printf "\nestimates written to %s\n" path
