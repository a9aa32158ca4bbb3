(* The multi-domain work-stealing scheduler ([Runtime.Config.domains])
   and its deterministic replay ([Runtime.Config.replay]):

   - functional correctness under real parallelism (fork/join trees,
     MVar traffic, cross-domain throwTo, timers);
   - record/replay fidelity: a live multi-domain run's log, replayed on
     one domain, reproduces outcome, output, forks, per-thread
     statistics, the step journal, and [Io.domain_index] observations —
     including a run whose threads really cross domains (a kill posted
     to a thread running on another domain, every record kind, records
     after main's exit);
   - replay determinism: replaying twice is byte-identical;
   - graceful divergence: a fault-injection hook perturbing a replay
     flips [replay_diverged] and continues deterministically;
   - the log survives its text encoding;
   - configuration guards ([tracer]/[inject]/[event_source]/[Random]
     are rejected on live multi-domain runs, [event_source] under
     replay too). *)

open Hio
open Io.Syntax
open Helpers

let mconfig ?(domains = 4) ?journal ?replay () =
  {
    Runtime.Config.default with
    Runtime.Config.domains;
    journal;
    replay;
    max_steps = 2_000_000;
  }

let outcome_str pp r = Fmt.str "%a" (Runtime.pp_outcome pp) r.Runtime.outcome

(* --- programs ------------------------------------------------------------- *)

(* A fork/join tree: 2^depth leaves, each subtree joined through its own
   pair of MVars — lots of cross-domain wakeup migration. *)
let rec tree depth =
  if depth = 0 then Io.return 1
  else
    let* m1 = Mvar.new_empty in
    let* m2 = Mvar.new_empty in
    let* _ = Io.fork (Io.bind (tree (depth - 1)) (Mvar.put m1)) in
    let* _ = Io.fork (Io.bind (tree (depth - 1)) (Mvar.put m2)) in
    let* a = Mvar.take m1 in
    let* b = Mvar.take m2 in
    Io.return (a + b + 1)

(* Spinners that only die by asynchronous kill, killed cross-domain. *)
let kill_the_spinners n =
  let rec spin () = Io.bind Io.yield (fun () -> spin ()) in
  let rec forks i acc =
    if i = 0 then Io.return acc
    else
      let* t = Io.fork (spin ()) in
      forks (i - 1) (t :: acc)
  in
  let* ts = forks n [] in
  let* () = yields 50 in
  let rec kill = function
    | [] -> Io.return ()
    | t :: rest -> Io.bind (Io.throw_to t Io.Kill_thread) (fun () -> kill rest)
  in
  let* () = kill ts in
  let rec wait = function
    | [] -> Io.return ()
    | t :: rest ->
        let* s = Io.thread_status t in
        if s = Io.Dead then wait rest
        else Io.bind Io.yield (fun () -> wait (t :: rest))
  in
  wait ts

(* A mixed workload: forks, MVar ping-pong, throwTo, timers, masked
   sections, console output. Its threads seldom leave the first domain
   they run on, so its kill rarely crosses domains; [crossing] below is
   the program whose kill does. *)
let mixed () =
  let* box = Mvar.new_empty in
  let* done_ = Mvar.new_empty in
  let* _ =
    Io.fork
      (let rec pong i =
         if i = 0 then Mvar.put done_ ()
         else
           let* v = Mvar.take box in
           let* () = Io.put_char (Char.chr (Char.code 'a' + (v mod 26))) in
           pong (i - 1)
       in
       pong 8)
  in
  let rec ping i =
    if i = 0 then Io.return ()
    else
      let* () = Mvar.put box i in
      let* () = Io.yield in
      ping (i - 1)
  in
  let* () = ping 8 in
  let* victim =
    Io.fork
      (Io.catch
         (let rec spin () = Io.bind Io.yield (fun () -> spin ()) in
          spin ())
         (fun _ -> Io.put_string "killed"))
  in
  let* () = yields 20 in
  let* () = Io.throw_to victim Io.Kill_thread in
  let* () = Io.mask_ (yields 5) in
  let* () = Io.sleep 100 in
  let* d = Io.domain_index in
  let* () = Io.put_string (string_of_int d) in
  Mvar.take done_

(* Main and a spinning victim stay runnable until [Io.domain_index] shows
   them on different domains; main then kills the victim cross-domain
   (posted to the victim's pending queue while it runs on the other
   domain, taken at its next step boundary), sleeps until the
   scheduler is quiescent (a clock advance), and forks a daemon spinner
   that runs alongside main's last steps and outlives it, so the log holds
   records after main's last. Both the victim's write of its index and
   main's read of it are [Io.lift] steps: sequenced, so the replay
   observes the same values (the cell itself is made inside the run, so
   the live run and its replay each get a fresh one). Returns whether the
   two threads were seen apart. *)
let crossing () =
  let* victim_dom = Io.lift (fun () -> ref (-1)) in
  let rec spin () = Io.bind Io.yield (fun () -> spin ()) in
  let* victim =
    Io.fork
      (Io.catch
         (let rec report () =
            let* d = Io.domain_index in
            let* () = Io.lift (fun () -> victim_dom := d) in
            let* () = Io.yield in
            report ()
          in
          report ())
         (fun _ -> Io.put_string "killed"))
  in
  let rec wait_apart n =
    if n = 0 then Io.return false
    else
      let* mine = Io.domain_index in
      let* theirs = Io.lift (fun () -> !victim_dom) in
      if theirs >= 0 && theirs <> mine then Io.return true
      else Io.bind Io.yield (fun () -> wait_apart (n - 1))
  in
  let* apart = wait_apart 20_000 in
  let* () = Io.throw_to victim Io.Kill_thread in
  let* () = Io.sleep 100 in
  let* _ = Io.fork (spin ()) in
  let* () = yields 20 in
  Io.return apart

(* Main forks a child (tid 1), waits until it is dead, then sets
   [joined] and runs on: a fault hook reading [joined] can aim at the
   finished child. *)
let outlive_child joined =
  let* m = Mvar.new_empty in
  let* child = Io.fork (Io.bind (Io.put_string "child ") (Mvar.put m)) in
  let* () = Mvar.take m in
  let rec wait () =
    let* s = Io.thread_status child in
    if s = Io.Dead then Io.return () else Io.bind Io.yield wait
  in
  let* () = wait () in
  let* () = Io.lift (fun () -> joined := true) in
  let* () = yields 10 in
  let* () = Io.put_string "main" in
  Io.return 42

(* --- live multi-domain runs ----------------------------------------------- *)

let multi_tests =
  [
    case "fork/join tree computes the right sum on 4 domains" (fun () ->
        let r = Runtime.run ~config:(mconfig ()) (tree 6) in
        (match r.Runtime.outcome with
        | Runtime.Value v -> Alcotest.(check int) "sum" 127 v
        | _ -> Alcotest.failf "outcome: %s" (outcome_str Fmt.int r));
        Alcotest.(check int) "forks" 127 r.Runtime.forks;
        Alcotest.(check int) "domain stats rows" 4
          (List.length r.Runtime.domain_stats);
        Alcotest.(check bool) "log recorded" true
          (r.Runtime.replay_log <> None));
    case "cross-domain throwTo kills spinners" (fun () ->
        let r = Runtime.run ~config:(mconfig ()) (kill_the_spinners 8) in
        match r.Runtime.outcome with
        | Runtime.Value () -> ()
        | _ -> Alcotest.failf "outcome: %s" (outcome_str (Fmt.any "()") r));
    case "deadlock is detected across domains" (fun () ->
        let io =
          let* m = Mvar.new_empty in
          let* _ = Io.fork (Io.bind (Mvar.take m) (fun _ -> Io.return ())) in
          Mvar.take m
        in
        let r = Runtime.run ~config:(mconfig ~domains:2 ()) io in
        match r.Runtime.outcome with
        | Runtime.Deadlock ->
            Alcotest.(check int) "blocked threads" 2
              (List.length r.Runtime.blocked_at_exit)
        | _ -> Alcotest.failf "outcome: %s" (outcome_str (Fmt.any "_") r));
    case "per-domain steps sum to the total" (fun () ->
        let r = Runtime.run ~config:(mconfig ()) (tree 5) in
        let sum =
          List.fold_left
            (fun acc d -> acc + d.Runtime.ds_steps)
            0 r.Runtime.domain_stats
        in
        Alcotest.(check int) "steps" r.Runtime.steps sum);
    case "tracer/inject/event_source/Random are rejected" (fun () ->
        let reject name config =
          match Runtime.run ~config (Io.return ()) with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s: expected Invalid_argument" name
        in
        let base = mconfig ~domains:2 () in
        let event_source =
          Some
            {
              Runtime.es_now = (fun () -> 0);
              es_modify = (fun ~fd:_ ~read:_ ~write:_ -> ());
              es_wait = (fun ~timeout_us:_ -> []);
            }
        in
        reject "event_source" { base with Runtime.Config.event_source };
        let log =
          Option.get (Runtime.run ~config:base (Io.return ())).Runtime.replay_log
        in
        reject "event_source under replay"
          {
            (mconfig ~domains:1 ~replay:log ()) with
            Runtime.Config.event_source;
          };
        reject "tracer"
          { base with Runtime.Config.tracer = Some (fun _ -> ()) };
        reject "inject"
          {
            base with
            Runtime.Config.inject = Some (fun ~step:_ ~running:_ -> None);
          };
        reject "policy"
          { base with Runtime.Config.policy = Runtime.Config.Random 7 });
  ]

(* --- record/replay fidelity ------------------------------------------------ *)

let record_and_replay ?(domains = 4) io =
  let live =
    Runtime.run
      ~config:(mconfig ~domains ~journal:(Step_journal.create ()) ())
      io
  in
  let log =
    match live.Runtime.replay_log with
    | Some log -> log
    | None -> Alcotest.fail "live run recorded no log"
  in
  let replay =
    Runtime.run
      ~config:
        (mconfig ~domains:1 ~journal:(Step_journal.create ()) ~replay:log ())
      io
  in
  (live, replay)

let check_faithful name pp (live : _ Runtime.result)
    (replay : _ Runtime.result) =
  Alcotest.(check bool)
    (name ^ ": replay stayed on the log")
    false replay.Runtime.replay_diverged;
  Alcotest.(check string)
    (name ^ ": outcome")
    (outcome_str pp live) (outcome_str pp replay);
  Alcotest.(check string) (name ^ ": output") live.Runtime.output
    replay.Runtime.output;
  Alcotest.(check int) (name ^ ": forks") live.Runtime.forks
    replay.Runtime.forks;
  Alcotest.(check int) (name ^ ": steps") live.Runtime.steps
    replay.Runtime.steps;
  let stats r =
    List.map
      (fun s ->
        Fmt.str "t%d:%a steps=%d blocked=%d delivered=%d" s.Runtime.ts_id
          Fmt.(option string)
          s.Runtime.ts_name s.Runtime.ts_steps s.Runtime.ts_blocked
          s.Runtime.ts_delivered)
      r.Runtime.thread_stats
  in
  Alcotest.(check (list string))
    (name ^ ": thread stats")
    (stats live) (stats replay)

let replay_tests =
  [
    case "mixed workload: replay reproduces the live run" (fun () ->
        let live, replay = record_and_replay (mixed ()) in
        check_faithful "mixed" (Fmt.any "()") live replay);
    case "cross-domain kill: every record kind, replayed past main's exit"
      (fun () ->
        (* only a run whose threads never separated is retried *)
        let live, replay =
          retrying 5 (fun () ->
              let live, replay = record_and_replay ~domains:2 (crossing ()) in
              match live.Runtime.outcome with
              | Runtime.Value true -> (live, replay)
              | _ -> Alcotest.fail "main and victim never ran apart")
        in
        let log = Option.get live.Runtime.replay_log in
        let module R = Step_journal.Replay in
        List.iter
          (fun (name, k) ->
            if R.count k log < 1 then Alcotest.failf "no %s record" name)
          [
            ("K_op", R.K_op); ("K_deliver", R.K_deliver); ("K_end", R.K_end);
            ("K_clock", R.K_clock);
          ];
        (* the victim on the other domain received the kill *)
        Alcotest.(check string) "victim's output" "killed" live.Runtime.output;
        let records = log.R.records in
        let main_last = ref (-1) in
        Array.iteri
          (fun i r ->
            match r.R.r_kind with
            | (R.K_op | R.K_deliver | R.K_end) when r.R.r_tid = 0 ->
                main_last := i
            | _ -> ())
          records;
        if !main_last >= Array.length records - 1 then
          Alcotest.fail "no record after main's last";
        check_faithful "crossing" Fmt.bool live replay);
    case "fork/join tree: replay reproduces the live run" (fun () ->
        let live, replay = record_and_replay (tree 5) in
        check_faithful "tree" Fmt.int live replay);
    case "spinner kills: replay reproduces the live run" (fun () ->
        let live, replay = record_and_replay (kill_the_spinners 6) in
        check_faithful "kills" (Fmt.any "()") live replay);
    case "replaying twice is byte-identical (journal included)" (fun () ->
        let live =
          Runtime.run ~config:(mconfig ()) (mixed ())
        in
        let log = Option.get live.Runtime.replay_log in
        let go () =
          let j = Step_journal.create () in
          let r =
            Runtime.run
              ~config:(mconfig ~domains:1 ~journal:j ~replay:log ())
              (mixed ())
          in
          (r.Runtime.output, r.Runtime.steps, Step_journal.entries j)
        in
        let o1, s1, j1 = go () and o2, s2, j2 = go () in
        Alcotest.(check string) "output" o1 o2;
        Alcotest.(check int) "steps" s1 s2;
        Alcotest.(check bool) "journals equal" true (j1 = j2));
    case "live journal equals replay journal" (fun () ->
        let jl = Step_journal.create () in
        let live =
          Runtime.run ~config:(mconfig ~journal:jl ()) (tree 4)
        in
        let log = Option.get live.Runtime.replay_log in
        let jr = Step_journal.create () in
        let _ =
          Runtime.run
            ~config:(mconfig ~domains:1 ~journal:jr ~replay:log ())
            (tree 4)
        in
        Alcotest.(check bool)
          "same (step, tid) sequence" true
          (Step_journal.entries jl = Step_journal.entries jr));
    case "domain_index observations replay byte-identically" (fun () ->
        let io =
          let* m = Mvar.new_empty in
          let rec worker i =
            if i = 0 then Mvar.put m ()
            else
              let* d = Io.domain_index in
              let* () = Io.put_string (string_of_int d) in
              let* () = yields 3 in
              worker (i - 1)
          in
          let* _ = Io.fork (worker 10) in
          let* () = yields 40 in
          Mvar.take m
        in
        let live, replay = record_and_replay io in
        check_faithful "domain_index" (Fmt.any "()") live replay);
    case "the log round-trips through its text encoding" (fun () ->
        let live = Runtime.run ~config:(mconfig ()) (mixed ()) in
        let log = Option.get live.Runtime.replay_log in
        let log' = Step_journal.Replay.decode (Step_journal.Replay.to_string log)
        in
        Alcotest.(check int) "domains" log.Step_journal.Replay.domains
          log'.Step_journal.Replay.domains;
        Alcotest.(check bool) "records" true
          (log.Step_journal.Replay.records = log'.Step_journal.Replay.records);
        let r =
          Runtime.run ~config:(mconfig ~domains:1 ~replay:log' ()) (mixed ())
        in
        Alcotest.(check string) "decoded log replays" live.Runtime.output
          r.Runtime.output);
    case "a fault hook diverges the replay deterministically" (fun () ->
        let live = Runtime.run ~config:(mconfig ()) (kill_the_spinners 4) in
        let log = Option.get live.Runtime.replay_log in
        let go () =
          let config =
            {
              (mconfig ~domains:1 ~replay:log ()) with
              Runtime.Config.inject =
                Some
                  (fun ~step ~running:_ ->
                    if step = 40 then Some (0, Io.Kill_thread) else None);
            }
          in
          Runtime.run ~config (kill_the_spinners 4)
        in
        let r1 = go () and r2 = go () in
        Alcotest.(check bool) "diverged" true r1.Runtime.replay_diverged;
        Alcotest.(check int) "injections" 1 r1.Runtime.injections;
        (match r1.Runtime.outcome with
        | Runtime.Uncaught Io.Kill_thread -> ()
        | _ -> Alcotest.failf "outcome: %s" (outcome_str (Fmt.any "()") r1));
        Alcotest.(check string) "deterministic outcome"
          (outcome_str (Fmt.any "()") r1)
          (outcome_str (Fmt.any "()") r2);
        Alcotest.(check int) "deterministic steps" r1.Runtime.steps
          r2.Runtime.steps);
    case "an injection at a tid that is no live thread does nothing"
      (fun () ->
        (* every step aims at tid 9999 or -1 until the child (tid 1) is
           dead, then at the dead child *)
        let aim joined ~step ~running:_ =
          if !joined then Some (1, Io.Kill_thread)
          else Some ((if step mod 2 = 0 then 9999 else -1), Io.Kill_thread)
        in
        let check name config =
          let go hook =
            let joined = ref false in
            let inject = if hook then Some (aim joined) else None in
            Runtime.run
              ~config:{ config with Runtime.Config.inject }
              (outlive_child joined)
          in
          let plain = go false and hooked = go true in
          Alcotest.(check int) (name ^ ": injections") 0
            hooked.Runtime.injections;
          Alcotest.(check bool) (name ^ ": replay stayed on the log") false
            hooked.Runtime.replay_diverged;
          Alcotest.(check string) (name ^ ": outcome")
            (outcome_str Fmt.int plain) (outcome_str Fmt.int hooked);
          Alcotest.(check string) (name ^ ": output") plain.Runtime.output
            hooked.Runtime.output
        in
        check "single domain" Runtime.Config.default;
        let live =
          Runtime.run ~config:(mconfig ~domains:2 ()) (outlive_child (ref false))
        in
        check "replay of a 2-domain log"
          (mconfig ~domains:1 ~replay:(Option.get live.Runtime.replay_log) ()));
  ]

(* --- random programs: multi-domain record, single-domain replay ------------ *)

(* A tiny structured-program AST, interpreted into [Io]. Programs fork
   children, exchange MVar tokens, kill their own children, sleep, mask,
   and print — every scheduler feature the replay log must pin down.
   Nothing here is race-free by construction: fidelity must come from
   the log alone. *)
type op =
  | P_yield
  | P_put of char
  | P_compute of int
  | P_sleep of int
  | P_mask of op list
  | P_fork of op list
  | P_kill_child of op list
  | P_pingpong of int

let rec interp_ops ops =
  match ops with
  | [] -> Io.return ()
  | op :: rest -> Io.bind (interp_op op) (fun () -> interp_ops rest)

and interp_op = function
  | P_yield -> Io.yield
  | P_put c -> Io.put_char c
  | P_compute n ->
      let rec go i = if i = 0 then Io.return () else go (i - 1) in
      go n
  | P_sleep d -> Io.sleep d
  | P_mask ops -> Io.mask_ (interp_ops ops)
  | P_fork ops -> Io.ignore_result (Io.fork (interp_ops ops))
  | P_kill_child ops ->
      let* t = Io.fork (Io.catch (interp_ops ops) (fun _ -> Io.return ())) in
      let* () = Io.yield in
      Io.throw_to t Io.Kill_thread
  | P_pingpong n ->
      let* m = Mvar.new_empty in
      let* _ =
        Io.fork
          (let rec pong i =
             if i = 0 then Io.return ()
             else Io.bind (Mvar.take m) (fun _ -> pong (i - 1))
           in
           pong n)
      in
      let rec ping i =
        if i = 0 then Io.return ()
        else Io.bind (Mvar.put m i) (fun () -> ping (i - 1))
      in
      ping n

let gen_ops : op list QCheck2.Gen.t =
  QCheck2.Gen.(
    let gen_op =
      fix (fun self n ->
          let leaf =
            oneof
              [
                return P_yield;
                map (fun c -> P_put c) (char_range 'a' 'z');
                map (fun i -> P_compute i) (int_range 1 30);
                map (fun d -> P_sleep d) (int_range 1 50);
                map (fun n -> P_pingpong n) (int_range 1 4);
              ]
          in
          if n <= 0 then leaf
          else
            let sub = list_size (int_range 1 3) (self (n / 2)) in
            oneof
              [
                leaf;
                map (fun ops -> P_mask ops) sub;
                map (fun ops -> P_fork ops) sub;
                map (fun ops -> P_kill_child ops) sub;
              ])
    in
    sized_size (int_range 1 8) (fun n -> list_size (int_range 1 4) (gen_op n)))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60
         ~name:"random programs: 3-domain record == 1-domain replay"
         gen_ops
         (fun ops ->
           let io = interp_ops ops in
           let jl = Step_journal.create () in
           let live =
             Runtime.run ~config:(mconfig ~domains:3 ~journal:jl ()) io
           in
           let log = Option.get live.Runtime.replay_log in
           let jr = Step_journal.create () in
           let replay =
             Runtime.run
               ~config:(mconfig ~domains:1 ~journal:jr ~replay:log ())
               io
           in
           if replay.Runtime.replay_diverged then
             QCheck2.Test.fail_report "replay diverged";
           let sig_of (r : unit Runtime.result) =
             ( outcome_str (Fmt.any "()") r,
               r.Runtime.output,
               r.Runtime.steps,
               r.Runtime.forks,
               List.map
                 (fun s ->
                   ( s.Runtime.ts_id,
                     s.Runtime.ts_steps,
                     s.Runtime.ts_blocked,
                     s.Runtime.ts_delivered ))
                 r.Runtime.thread_stats )
           in
           if sig_of live <> sig_of replay then
             QCheck2.Test.fail_report "live and replay results differ";
           if Step_journal.entries jl <> Step_journal.entries jr then
             QCheck2.Test.fail_report "step journals differ";
           true));
  ]

let suites =
  [
    ("domains:multi", multi_tests);
    ("domains:replay", replay_tests);
    ("domains:qcheck", qcheck_tests);
  ]
