(* Tests for the lib/fault kill-point sweep: the shrinker, harness
   validation against a deliberately broken lock, the §7 suites swept at
   every armed step (the paper's universally-quantified safety claims),
   and deterministic regression pins for the Chan/Bchan
   cursor-restoration fix. *)

open Hio
open Hio_std
open Hio.Io
open Helpers
open Fault

let kill at = { Plan.at_step = at; target = Plan.Acting; exn = Io.Kill_thread }

let plan_t : Plan.t Alcotest.testable =
  Alcotest.testable Plan.pp (fun a b -> a = b)

let shrink_tests =
  [
    case "candidates drop injections and move them earlier" (fun () ->
        let cands = Shrink.candidates [ kill 10 ] in
        Alcotest.check Alcotest.bool "drop present" true
          (List.mem [] cands);
        Alcotest.check Alcotest.bool "move-to-0 present" true
          (List.mem [ kill 0 ] cands);
        Alcotest.check Alcotest.bool "halving present" true
          (List.mem [ kill 5 ] cands));
    case "an injection at step 0 cannot move further" (fun () ->
        Alcotest.check (Alcotest.list plan_t) "only the drop" [ [] ]
          (Shrink.candidates [ kill 0 ]));
    case "minimize reaches the least failing plan" (fun () ->
        (* "fails" iff some injection sits at step >= 3: the minimum is a
           single injection at exactly 3 *)
        let fails p = List.exists (fun i -> i.Plan.at_step >= 3) p in
        Alcotest.check plan_t "fixed point" [ kill 3 ]
          (Shrink.minimize fails [ kill 10; kill 7 ]));
    case "minimize leaves a passing plan alone" (fun () ->
        let plan = [ kill 10; kill 7 ] in
        Alcotest.check plan_t "unchanged" plan
          (Shrink.minimize (fun _ -> false) plan));
  ]

(* A kill sweep that injected somewhere, found a live target at every
   kill point, and failed nowhere. *)
let check_clean (r : Sweep.report) =
  let kill_points, applied = Helpers.kill_counts r in
  Alcotest.check Alcotest.bool "has kill points" true (kill_points > 0);
  Alcotest.check Alcotest.int "every injection found a live target"
    kill_points applied;
  match r.r_failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%d failures, first: %a — %s"
        (List.length r.r_failures)
        Plan.pp f.Sweep.f_shrunk f.Sweep.f_reason

(* The §7 suites, each swept at EVERY armed scheduler step. These are the
   paper's §5.2/§7 claims mechanised: no matter where the kill lands, the
   abstractions conserve their resources and no thread is left wedged.
   sem-units is the Sem.wait unit-conservation coverage; barrier-withdraw
   the Barrier.await arrival-withdrawal coverage; chan-/bchan-conserve pin
   the cursor-restoration fix (recv/send must not wrap their inner
   take/put in [unblock] — §5.3 interruptibility already covers the wait,
   and the wrapper opened a post-transfer window that lost items). *)
let sweep_case c =
  case (Sweep.case_name c ^ " survives a kill at every armed step")
    (fun () -> check_clean (Sweep.sweep c))

let sweep_tests =
  List.map sweep_case Cases.std
  @ [
      case "the std suites clear the 500-kill-point bar" (fun () ->
          let total =
            List.fold_left
              (fun acc c ->
                acc + Array.length (Sweep.record c).Sweep.s_armed)
              0 Cases.std
          in
          Alcotest.check Alcotest.bool
            (Printf.sprintf "%d >= 500" total)
            true (total >= 500));
      case "the harness catches and shrinks the naive lock" (fun () ->
          let r = Sweep.sweep Cases.naive_lock in
          Alcotest.check Alcotest.bool "found the §5.2 violation" true
            (r.Sweep.r_failures <> []);
          List.iter
            (fun f ->
              Alcotest.check Alcotest.int "shrunk to a single injection" 1
                (List.length f.Sweep.f_shrunk))
            r.Sweep.r_failures);
      case "sample keeps both ends and rejects n < 1" (fun () ->
          let arr = Array.init 10 Fun.id in
          Alcotest.(check (list int)) "3 of 10" [ 0; 4; 9 ] (Sweep.sample 3 arr);
          Alcotest.(check (list int)) "1 of 10" [ 0 ] (Sweep.sample 1 arr);
          Alcotest.(check (list int)) "more than there are" [ 0; 1 ]
            (Sweep.sample 5 [| 0; 1 |]);
          List.iter
            (fun n ->
              match Sweep.sample n arr with
              | _ -> Alcotest.failf "sample %d: expected Invalid_argument" n
              | exception Invalid_argument _ -> ())
            [ 0; -1 ]);
      case "record refuses a baseline that strands threads" (fun () ->
          let wedged =
            Sweep.case "wedged"
              (Mvar.new_empty >>= fun m ->
               fork (Mvar.take m) >>= fun _ -> return ())
          in
          match Sweep.record wedged with
          | _ -> Alcotest.fail "expected the baseline to be rejected"
          | exception Failure _ -> ());
    ]

(* Deterministic pins for the §5.3 fix: a peer killed while WAITING on a
   channel must restore the cursor so the channel keeps working. (The
   post-transfer window itself is covered by the full sweeps above.) *)
let regression_tests =
  [
    case "Chan.recv killed while waiting restores the read cursor"
      (fun () ->
        Alcotest.check Alcotest.int "probe" 1
          (value
             ( Chan.create () >>= fun c ->
               Task.spawn (Chan.recv c >>= fun _ -> return ()) >>= fun t ->
               yields 3 >>= fun () ->
               Task.cancel t >>= fun () ->
               catch (ignore_result (Task.await t)) (fun _ -> return ())
               >>= fun () ->
               Chan.send c 1 >>= fun () -> Chan.recv c )));
    case "Bchan.send killed while waiting restores the write cursor"
      (fun () ->
        Alcotest.check (Alcotest.list Alcotest.int) "probe" [ 1; 2 ]
          (value
             ( Bchan.create 1 >>= fun c ->
               Bchan.send c 1 >>= fun () ->
               (* capacity reached: this sender blocks on the cell *)
               Task.spawn (Bchan.send c 99) >>= fun t ->
               yields 3 >>= fun () ->
               Task.cancel t >>= fun () ->
               catch (ignore_result (Task.await t)) (fun _ -> return ())
               >>= fun () ->
               Bchan.recv c >>= fun a ->
               Bchan.send c 2 >>= fun () ->
               Bchan.recv c >>= fun b -> return [ a; b ] )));
    case "Bchan.recv killed while waiting restores the read cursor"
      (fun () ->
        Alcotest.check Alcotest.int "probe" 7
          (value
             ( Bchan.create 1 >>= fun c ->
               Task.spawn (Bchan.recv c >>= fun _ -> return ()) >>= fun t ->
               yields 3 >>= fun () ->
               Task.cancel t >>= fun () ->
               catch (ignore_result (Task.await t)) (fun _ -> return ())
               >>= fun () ->
               Bchan.send c 7 >>= fun () -> Bchan.recv c )));
  ]

(* --- jobs-invariance: the parallel sweep is observationally sequential ---- *)

(* Random small concurrent programs, described as pure data so QCheck can
   print and shrink them, then swept at jobs 1..4. The property is NOT
   that the sweeps pass — a kill may well make a spawned child's await
   re-raise in main, and that failure (with its shrunk plan) is part of
   the report — but that every jobs value produces the structurally
   identical report, failures and all. *)
type prog =
  | Ret
  | Yield
  | Sleep of int
  | Seq of prog * prog
  | Spawn of prog  (** Task.spawn + await: the child is always joined *)
  | Both of prog * prog
  | Either of prog * prog
  | Timeout of int * prog
  | Mvar_cycle  (** put then take on a fresh mvar *)

let rec prog_to_io = function
  | Ret -> return ()
  | Yield -> Io.yield
  | Sleep n -> Io.sleep n
  | Seq (a, b) -> prog_to_io a >>= fun () -> prog_to_io b
  | Spawn p ->
      Task.spawn (prog_to_io p) >>= fun t ->
      Task.await t >>= fun () -> return ()
  | Both (a, b) ->
      Combinators.both (prog_to_io a) (prog_to_io b) >>= fun ((), ()) ->
      return ()
  | Either (a, b) ->
      Combinators.either (prog_to_io a) (prog_to_io b) >>= fun _ -> return ()
  | Timeout (n, p) ->
      Combinators.timeout n (prog_to_io p) >>= fun _ -> return ()
  | Mvar_cycle ->
      Mvar.new_empty >>= fun m ->
      Mvar.put m 1 >>= fun () -> Mvar.take m >>= fun _ -> return ()

let rec prog_print = function
  | Ret -> "ret"
  | Yield -> "yield"
  | Sleep n -> Printf.sprintf "sleep %d" n
  | Seq (a, b) -> Printf.sprintf "(%s; %s)" (prog_print a) (prog_print b)
  | Spawn p -> Printf.sprintf "spawn(%s)" (prog_print p)
  | Both (a, b) ->
      Printf.sprintf "both(%s, %s)" (prog_print a) (prog_print b)
  | Either (a, b) ->
      Printf.sprintf "either(%s, %s)" (prog_print a) (prog_print b)
  | Timeout (n, p) -> Printf.sprintf "timeout %d (%s)" n (prog_print p)
  | Mvar_cycle -> "mvar-cycle"

(* [Spawn] must stay out of cancellable contexts: either/timeout kill the
   losing branch in the {e baseline} run, and a spawned-but-unawaited
   child would be stranded — which [Sweep.record] rightly rejects. So the
   inner generator is Spawn-free, and Spawn only appears at the top
   level, where the baseline always reaches its await. *)
let gen_cancellable =
  QCheck2.Gen.(
    sized_size (1 -- 4)
    @@ fix (fun self n ->
           if n <= 0 then
             oneofl [ Ret; Yield; Sleep 1; Sleep 2; Mvar_cycle ]
           else
             let sub = self (n / 2) in
             oneof
               [
                 map2 (fun a b -> Seq (a, b)) sub sub;
                 map2 (fun a b -> Both (a, b)) sub sub;
                 map2 (fun a b -> Either (a, b)) sub sub;
                 map2 (fun n p -> Timeout (n, p)) (1 -- 5) sub;
               ]))

let gen_prog =
  QCheck2.Gen.(
    let sub = gen_cancellable in
    oneof
      [
        sub;
        map (fun p -> Spawn p) sub;
        map2 (fun a b -> Seq (Spawn a, b)) sub sub;
        map2 (fun a b -> Both (a, b)) sub sub;
      ])

let jobs_invariance_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"sweep reports are identical for jobs 1..4"
         ~count:25 ~print:prog_print gen_prog (fun p ->
           (* the trailing yields let cancellation cascades finish: either/
              timeout kill their losers and move on, and a baseline that
              ends the instant after would catch the loser's children
              still mid-death and (rightly) be rejected by [record] *)
           let io = prog_to_io p >>= fun () -> yields 16 in
           let c = Sweep.case ~max_steps:2_000 "qcheck" io in
           let seq = Sweep.sweep ~jobs:1 c in
           List.for_all (fun j -> Sweep.sweep ~jobs:j c = seq) [ 2; 3; 4 ]));
    case "the naive lock's failures shrink identically at any jobs" (fun () ->
        (* the failure/shrink path, deterministically: same failing plans,
           same shrunk counterexamples, same order *)
        let seq = Sweep.sweep ~jobs:1 Cases.naive_lock in
        Alcotest.check Alcotest.bool "failures found" true
          (seq.Sweep.r_failures <> []);
        List.iter
          (fun j ->
            Alcotest.check Alcotest.bool
              (Printf.sprintf "jobs=%d equals jobs=1" j)
              true
              (Sweep.sweep ~jobs:j Cases.naive_lock = seq))
          [ 2; 4 ]);
    case "the server case sweeps identically in parallel" (fun () ->
        (* regression for the shared-metrics bug: Server.start used to
           create its default Obs.Metrics registry at application time,
           so concurrent sweeps shared one in-flight gauge and shutdown
           span extra steps waiting on other domains' workers *)
        let seq = Sweep.sweep ~jobs:1 ~max_points:40 Cases.server in
        Alcotest.check Alcotest.bool "jobs=4 equals jobs=1" true
          (Sweep.sweep ~jobs:4 ~max_points:40 Cases.server = seq));
  ]

(* Sweeps over a multi-domain replay log: the baseline runs live on two
   domains, its interleaving log is captured, and every faulted run
   replays that log up to the kill — the §7 claims probed over a real
   parallel schedule, each faulted run still fully deterministic. *)
let domain_sweep_tests =
  let std name = List.find (fun c -> Sweep.case_name c = name) Cases.std in
  let sem_units = std "sem-units" and chan_conserve = std "chan-conserve" in
  [
    case "sem-units sweeps clean over a 2-domain replay log" (fun () ->
        check_clean (Sweep.sweep ~domains:2 sem_units));
    case "a 2-domain record carries the log; 1-domain does not" (fun () ->
        let s2 = Sweep.record ~domains:2 chan_conserve in
        Alcotest.check Alcotest.bool "log captured" true
          (s2.Sweep.s_log <> None);
        let s1 = Sweep.record chan_conserve in
        Alcotest.check Alcotest.bool "no log at one domain" true
          (s1.Sweep.s_log = None));
    case "faulted runs over one 2-domain log repeat identically" (fun () ->
        (* jobs-invariance at domains > 1 must be judged against ONE
           recorded log: each [sweep] call records its own live baseline,
           whose interleaving may differ run to run. Given a fixed
           schedule, a faulted replay is a pure function of the plan. *)
        let s = Sweep.record ~domains:2 chan_conserve in
        let step, _ = s.Sweep.s_armed.(Array.length s.Sweep.s_armed / 2) in
        let plan =
          [ { Plan.at_step = step; target = Plan.Acting; exn = Io.Kill_thread } ]
        in
        let v1, r1 = Sweep.run_plan chan_conserve s plan in
        let v2, r2 = Sweep.run_plan chan_conserve s plan in
        Alcotest.check Alcotest.bool "same verdict" true (v1 = v2);
        Alcotest.check Alcotest.int "same steps" r1.Runtime.steps
          r2.Runtime.steps;
        Alcotest.check Alcotest.bool "same thread stats" true
          (r1.Runtime.thread_stats = r2.Runtime.thread_stats));
    case "the naive lock still fails over a 2-domain log" (fun () ->
        let r = Sweep.sweep ~domains:2 Cases.naive_lock in
        Alcotest.check Alcotest.bool "found the §5.2 violation" true
          (r.Sweep.r_failures <> []);
        List.iter
          (fun f ->
            Alcotest.check Alcotest.int "shrunk to a single injection" 1
              (List.length f.Sweep.f_shrunk))
          r.Sweep.r_failures);
  ]

let suites =
  [
    ("fault:shrink", shrink_tests);
    ("fault:sweep", sweep_tests);
    ("fault:regressions", regression_tests);
    ("fault:jobs-invariance", jobs_invariance_tests);
    ("fault:domain-sweep", domain_sweep_tests);
  ]
