(* chrun — run and model-check object-language programs from the command
   line.

     dune exec bin/chrun.exe -- run -e 'do { putChar (getChar ... ) }'
     dune exec bin/chrun.exe -- run program.ch --policy random --seed 7
     dune exec bin/chrun.exe -- check program.ch --max-states 100000
     dune exec bin/chrun.exe -- parse -e '\x -> x + 1'

   Programs get the §7 combinator prelude ([finally], [bracket], [either],
   [both], [timeout], [safePoint]) bound around them. *)

open Cmdliner
open Ch_semantics
open Ch_explore

let read_program file expr prelude =
  let source =
    match (file, expr) with
    | Some path, None ->
        let ic = open_in path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
    | None, Some e -> e
    | Some _, Some _ -> invalid_arg "give either a FILE or -e EXPR, not both"
    | None, None -> invalid_arg "give a FILE or -e EXPR"
  in
  let term = Ch_lang.Parser.parse source in
  if prelude then Ch_corpus.Combinators.with_prelude term else term

let handle_syntax f =
  match f () with
  | () -> Ok ()
  | exception Ch_lang.Lexer.Lex_error { line; col; message } ->
      Error (Printf.sprintf "lexical error at %d:%d: %s" line col message)
  | exception Ch_lang.Parser.Parse_error { line; col; message } ->
      Error (Printf.sprintf "syntax error at %d:%d: %s" line col message)
  | exception Invalid_argument m -> Error m
  | exception Sys_error m -> Error m
  | exception Failure m -> Error m

(* --- common flags --------------------------------------------------------- *)

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Program file.")

let expr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "e"; "expr" ] ~docv:"EXPR" ~doc:"Inline program text.")

let prelude_arg =
  Arg.(
    value & flag
    & info [ "p"; "prelude" ]
        ~doc:"Bind the §7 combinators (finally, bracket, either, both, \
              timeout, safePoint) around the program.")

let input_arg =
  Arg.(
    value & opt string ""
    & info [ "i"; "input" ] ~docv:"STRING" ~doc:"Standard input for getChar.")

let fuel_arg =
  Arg.(
    value & opt int 100_000
    & info [ "fuel" ] ~docv:"N" ~doc:"Fuel for the inner semantics.")

let stuck_io_arg =
  Arg.(
    value & flag
    & info [ "stuck-io" ]
        ~doc:"Enable the (Stuck PutChar)/(Stuck GetChar)/(Stuck Sleep) rules \
              (enlarges the state space).")

let config_of fuel stuck_io =
  { Step.default_config with Step.fuel; stuck_io }

(* --- chrun parse ----------------------------------------------------------- *)

let parse_cmd =
  let run file expr prelude =
    handle_syntax (fun () ->
        let term = read_program file expr prelude in
        Fmt.pr "%a@." Ch_lang.Pretty.pp_term term)
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse a program and print it back.")
    Term.(term_result' (const run $ file_arg $ expr_arg $ prelude_arg))

(* --- chrun run ------------------------------------------------------------- *)

let policy_arg =
  Arg.(
    value
    & opt (enum [ ("rr", `Rr); ("random", `Random); ("first", `First) ]) `Rr
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Scheduling policy: $(b,rr), $(b,random) or $(b,first).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random-policy seed.")

let steps_arg =
  Arg.(
    value & opt int 100_000
    & info [ "max-steps" ] ~docv:"N" ~doc:"Step bound for one execution.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print every transition taken.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "After the result, print the accounting table (per-thread steps, \
           exception deliveries, (Proc GC) transitions) and the blocked-at-\
           exit report. The table is an Obs.Metrics registry filled by \
           Obs.Of_sem.observe — the same accounting path as $(b,--metrics).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the full metrics table, including per-rule transition \
           counts (sem_rule_steps_total) keyed by the paper's rule names.")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:
          "Write the execution as Chrome trace-event JSON (load in \
           chrome://tracing or Perfetto): one track per thread, run slices \
           as duration events, spawns/exits/throwTo/deliveries/mask \
           changes as instants, stamped with the virtual-step clock. \
           Deterministic under $(b,--policy rr).")

(* --- the hio-runtime path: run --domains / --record, and replay ----------- *)

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Execute on the §8 hio runtime (via denotation) sharded across \
           $(docv) scheduler domains with per-domain run queues and work \
           stealing. Any value (including 1) switches to the hio path, on \
           which the semantics-scheduler flags ($(b,--policy), \
           $(b,--trace), $(b,--stats), $(b,--metrics), $(b,--chrome), \
           $(b,--stuck-io)) do not apply.")

let record_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:
          "Write the run's interleaving log (the deterministic-replay \
           format) to $(docv); $(b,chrun replay) re-executes it on one \
           domain and must print a byte-identical summary. Requires \
           $(b,--domains) of at least 2 — a single-domain run is already \
           deterministic and writes no log.")

let hio_arg =
  Arg.(
    value & flag
    & info [ "hio" ]
        ~doc:
          "Run on the §8 hio runtime via denotation even at \
           $(b,--domains) 1.")

(* The canonical summary shared by [run --domains] and [replay]: a live
   multi-domain run and the single-domain replay of its captured log
   must print byte-identical text (CI diffs exactly that), so every line
   is either schedule-independent or reproduced exactly by the replay —
   outcome, output, totals, per-thread accounting in tid order, and the
   log's own shape. Divergence gets its own line: a clean replay never
   prints it, so any drift breaks the diff loudly. *)
let hio_summary ~log ppf (r : Ch_lang.Term.term Hio.Runtime.result) =
  (match r.Hio.Runtime.outcome with
  | Hio.Runtime.Value t ->
      Fmt.pf ppf "result: %a@." Ch_lang.Pretty.pp_term t
  | Hio.Runtime.Uncaught (Ch_denote.Denote.Obj_exn e) ->
      Fmt.pf ppf "uncaught exception: #%s@." e
  | Hio.Runtime.Uncaught Hio.Io.Kill_thread ->
      Fmt.pf ppf "uncaught exception: #KillThread@."
  | Hio.Runtime.Uncaught Hio.Io.Timeout ->
      Fmt.pf ppf "uncaught exception: #Timeout@."
  | Hio.Runtime.Uncaught e ->
      Fmt.pf ppf "uncaught exception: %s@." (Printexc.to_string e)
  | Hio.Runtime.Deadlock -> Fmt.pf ppf "deadlock@."
  | Hio.Runtime.Out_of_steps -> Fmt.pf ppf "out of steps@.");
  if r.Hio.Runtime.output <> "" then
    Fmt.pf ppf "output: %S@." r.Hio.Runtime.output;
  Fmt.pf ppf "steps:  %d@." r.Hio.Runtime.steps;
  Fmt.pf ppf "time:   %dus@." r.Hio.Runtime.time;
  Fmt.pf ppf "forks:  %d@." r.Hio.Runtime.forks;
  let stats =
    List.sort
      (fun (a : Hio.Runtime.thread_stat) b ->
        compare a.Hio.Runtime.ts_id b.Hio.Runtime.ts_id)
      r.Hio.Runtime.thread_stats
  in
  Fmt.pf ppf "threads:%a@."
    (fun ppf ->
      List.iter (fun (ts : Hio.Runtime.thread_stat) ->
          Fmt.pf ppf " t%d=%d" ts.Hio.Runtime.ts_id ts.Hio.Runtime.ts_steps))
    stats;
  (match log with
  | Some (l : Hio.Step_journal.Replay.t) ->
      Fmt.pf ppf "log:    %d domains, %d records, %d steps@."
        l.Hio.Step_journal.Replay.domains
        (Array.length l.Hio.Step_journal.Replay.records)
        (Hio.Step_journal.Replay.total_steps l)
  | None -> ());
  if r.Hio.Runtime.replay_diverged then Fmt.pf ppf "replay DIVERGED@."

let hio_run program input max_steps domains record =
  if domains < 1 then invalid_arg "--domains must be at least 1";
  if record <> None && domains < 2 then
    invalid_arg "--record needs --domains >= 2 (one domain writes no log)";
  let config =
    {
      Hio.Runtime.Config.default with
      Hio.Runtime.Config.input;
      max_steps;
      domains;
    }
  in
  let r = Ch_denote.Denote.run_result ~config program in
  Fmt.pr "%a" (hio_summary ~log:r.Hio.Runtime.replay_log) r;
  match (record, r.Hio.Runtime.replay_log) with
  | Some path, Some log ->
      let oc = open_out path in
      output_string oc (Hio.Step_journal.Replay.to_string log);
      close_out oc;
      Fmt.pr "replay log written to %s@." path
  | _ -> ()

let run_cmd =
  let run file expr prelude input fuel stuck_io policy seed max_steps trace
      stats metrics chrome domains record hio =
    handle_syntax (fun () ->
        let program = read_program file expr prelude in
        if domains > 1 || record <> None || hio then
          hio_run program input max_steps domains record
        else
        let config = config_of fuel stuck_io in
        let policy =
          match policy with
          | `Rr -> Sched.Round_robin
          | `Random -> Sched.Random seed
          | `First -> Sched.First
        in
        let init = State.initial ~input program in
        let result = Sched.run ~config ~max_steps policy init in
        if trace then Fmt.pr "%a@." Sched.pp_trace result.Sched.trace;
        Fmt.pr "steps:  %d%s@." result.Sched.steps
          (match result.Sched.outcome with
          | Sched.Terminated -> ""
          | Sched.Out_of_steps -> " (step bound hit)");
        let output = State.output_string result.Sched.final in
        if output <> "" then Fmt.pr "output: %S@." output;
        (match State.main_result result.Sched.final with
        | Some (State.Done v) -> (
            match Ch_pure.Eval.eval ~fuel v with
            | Ch_pure.Eval.Value v' ->
                Fmt.pr "result: %a@." Ch_lang.Pretty.pp_term v'
            | _ -> Fmt.pr "result: %a@." Ch_lang.Pretty.pp_term v)
        | Some (State.Threw e) -> Fmt.pr "uncaught exception: #%s@." e
        | None -> Fmt.pr "main did not finish:@.%a@." State.pp result.Sched.final);
        (* One accounting path: --stats and --metrics render the same
           registry, filled by the same Of_sem.observe fold; --metrics
           additionally breaks transitions down by rule. *)
        if stats || metrics then begin
          let reg = Obs.Metrics.create () in
          Obs.Of_sem.observe reg ~rules:metrics result.Sched.trace;
          Fmt.pr "%a" Obs.Metrics.pp reg
        end;
        if stats then begin
          match Step.blocked_reasons ~config result.Sched.final with
          | [] -> ()
          | blocked ->
              Fmt.pr "blocked at exit:@.";
              List.iter
                (fun (tid, why, m) ->
                  Fmt.pr "  t%d waits on %s%s@." tid why
                    (match m with
                    | Some m -> Printf.sprintf " m%d" m
                    | None -> ""))
                blocked
        end;
        match chrome with
        | Some path ->
            let r = Obs.Rec.create () in
            Obs.Of_sem.record r ~init result.Sched.trace;
            Obs.Export.write ~path
              (Obs.Export.chrome ~process_name:"chrun" (Obs.Rec.entries r));
            Fmt.pr "chrome trace written to %s@." path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a program — under the semantics scheduler by default, or on \
          the multi-domain hio runtime with $(b,--domains)/$(b,--hio).")
    Term.(
      term_result'
        (const run $ file_arg $ expr_arg $ prelude_arg $ input_arg $ fuel_arg
       $ stuck_io_arg $ policy_arg $ seed_arg $ steps_arg $ trace_arg
       $ stats_arg $ metrics_arg $ chrome_arg $ domains_arg $ record_arg
       $ hio_arg))

(* --- chrun replay ----------------------------------------------------------- *)

let replay_cmd =
  let log_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LOG" ~doc:"Replay log written by run --record.")
  in
  let prog_arg =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"FILE" ~doc:"Program file (or use -e).")
  in
  let run log_path file expr prelude input max_steps =
    handle_syntax (fun () ->
        let program = read_program file expr prelude in
        let ic = open_in log_path in
        let n = in_channel_length ic in
        let text = really_input_string ic n in
        close_in ic;
        let log = Hio.Step_journal.Replay.decode text in
        let config =
          {
            Hio.Runtime.Config.default with
            Hio.Runtime.Config.input;
            max_steps;
            replay = Some log;
          }
        in
        let r = Ch_denote.Denote.run_result ~config program in
        Fmt.pr "%a" (hio_summary ~log:(Some log)) r)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a recorded multi-domain run deterministically on one \
          domain, following its interleaving log record by record. The \
          summary must be byte-identical to the recording run's — CI \
          diffs the two.")
    Term.(
      term_result'
        (const run $ log_arg $ prog_arg $ expr_arg $ prelude_arg $ input_arg
       $ steps_arg))

(* --- chrun check ------------------------------------------------------------ *)

let max_states_arg =
  Arg.(
    value & opt int 200_000
    & info [ "max-states" ] ~docv:"N" ~doc:"State bound for exploration.")

(* A count option: a value below [lo] is a usage error up front, not a
   crash deep inside a run or a sweep gate that silently checks nothing. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
        Error (`Msg (Fmt.str "invalid value '%s', expected >= %d" s lo))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* Shared by check (parallel BFS frontier) and sweep (parallel faulted
   re-runs). [None] means "the machine's recommended domain count"; the
   resolved value never changes any output, only the wall clock. *)
let jobs_arg =
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains to use. Defaults to the machine's recommended \
           domain count. Results are deterministic and identical for every \
           value of $(docv).")

let resolve_jobs = function
  | Some n -> n
  | None -> Par.recommended_jobs ()

let witness_arg =
  Arg.(
    value & flag
    & info [ "witness" ]
        ~doc:"Print a witness schedule for each kind of terminal state.")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:"Also write the reachable state graph in Graphviz format.")

let kills_arg =
  Arg.(
    value & opt (int_at_least 0) 0
    & info [ "kills" ] ~docv:"N"
        ~doc:
          "Also explore an adversary that may throw KillThread to any \
           active thread, at any point the program can still step, up to \
           $(docv) times; a kill shows as (Kill) in a $(b,--witness). \
           $(b,--dot) still draws the program's own graph, without kills.")

let check_cmd =
  let run file expr prelude input fuel stuck_io max_states jobs kills witness
      dot_file =
    handle_syntax (fun () ->
        let program = read_program file expr prelude in
        let config = config_of fuel stuck_io in
        let init = State.initial ~input program in
        (match dot_file with
        | Some path ->
            Dot.write ~path (Dot.dot ~config ~max_states init);
            Fmt.pr "state graph written to %s@." path
        | None -> ());
        let result =
          Space.explore ~config ~max_states ~jobs:(resolve_jobs jobs) ~kills
            init
        in
        Fmt.pr "states: %d   transitions: %d%s@." result.Space.visited
          result.Space.edges
          (if result.Space.truncated then "   (truncated!)" else "");
        let kinds = Space.terminal_kinds result in
        List.iter
          (fun kind ->
            Fmt.pr "terminal: %a@." Space.pp_terminal_kind kind;
            if witness then
              match
                List.find_opt
                  (fun t -> t.Space.kind = kind)
                  result.Space.terminals
              with
              | Some t ->
                  Fmt.pr "  @[<v>%a@]@."
                    Fmt.(
                      list (fun ppf (tr : Step.transition) ->
                          Fmt.string ppf (Step.rule_name tr.Step.rule)))
                    (Space.witness ~config init t.Space.path)
              | None -> ())
          kinds)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Exhaustively model-check a program.")
    Term.(
      term_result'
        (const run $ file_arg $ expr_arg $ prelude_arg $ input_arg $ fuel_arg
       $ stuck_io_arg $ max_states_arg $ jobs_arg $ kills_arg $ witness_arg
       $ dot_arg))

(* --- chrun equiv ------------------------------------------------------------- *)

let equiv_cmd =
  let left_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "l"; "left" ] ~docv:"EXPR" ~doc:"Left program.")
  in
  let right_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "r"; "right" ] ~docv:"EXPR" ~doc:"Right program.")
  in
  let relation_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("equiv", `Equiv); ("refines", `Refines);
               ("committed", `Committed) ])
          `Equiv
      & info [ "relation" ] ~docv:"REL"
          ~doc:
            "$(b,equiv) (equal observation sets), $(b,refines) (left's \
             observations are a subset of right's), or $(b,committed) \
             (left is committed to performing right's operations — the \
             paper's §11 ordering).")
  in
  let run left right prelude input fuel stuck_io max_states relation =
    handle_syntax (fun () ->
        let prep src =
          let t = Ch_lang.Parser.parse src in
          if prelude then Ch_corpus.Combinators.with_prelude t else t
        in
        let l = prep left and r = prep right in
        let config = config_of fuel stuck_io in
        let holds =
          match relation with
          | `Equiv -> Equiv.equivalent ~config ~max_states ~input l r
          | `Refines -> Equiv.refines ~config ~max_states ~input l r
          | `Committed -> Equiv.committed_to ~config ~max_states ~input l r
        in
        Fmt.pr "%s@." (if holds then "HOLDS" else "DOES NOT HOLD");
        if not holds then
          match Equiv.diff ~config ~max_states ~input l r with
          | Some (only_l, only_r) ->
              if only_l <> [] then
                Fmt.pr "only left:  @[<v>%a@]@."
                  Fmt.(list Equiv.pp_observation)
                  only_l;
              if only_r <> [] then
                Fmt.pr "only right: @[<v>%a@]@."
                  Fmt.(list Equiv.pp_observation)
                  only_r
          | None ->
              Fmt.pr
                "(observation sets agree; the relation failed for another \
                 reason, e.g. cycles or truncation)@.")
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:
         "Decide observational equivalence / refinement / commitment (§11) \
          between two programs by exhaustive exploration.")
    Term.(
      term_result'
        (const run $ left_arg $ right_arg $ prelude_arg $ input_arg $ fuel_arg
       $ stuck_io_arg $ max_states_arg $ relation_arg))

(* --- chrun sweep ------------------------------------------------------------- *)

(* The suite names, in the order [chrun sweep] runs them, then all.
   Checked by hand (not Arg.enum) so an unknown suite can exit 2 with
   the full list — cmdliner's enum error exits 124 and its message
   drifts from the actual suite set. *)
let suite_names = List.map fst Fault.Suites.all @ [ "all" ]

let suite_arg =
  Arg.(
    value & opt string "all"
    & info [ "suite" ] ~docv:"SUITE"
        ~doc:
          "What to sweep — one of $(b,std), $(b,server), $(b,sup), \
           $(b,actor), $(b,chaos), $(b,overload), or $(b,all) (the \
           default, every suite in that order): $(b,std) (the §7 hio \
           abstractions: Sem, Barrier, Chan, Bchan, Mvar locks, cleanup \
           combinators), $(b,server) (the §11 server, including targeted \
           listener/worker kills), $(b,sup) (the supervision layer: \
           restart strategies, retry + breaker, bulkhead, and the \
           supervised server's graceful degradation, including targeted \
           supervisor/listener/worker kills), $(b,actor) (the \
           exception-linked actor layer: link/monitor delivery races, \
           call/stop, the mailbox-FIFO token ring, and the sharded \
           supervised server with targeted shard / supervisor / worker \
           kills), $(b,chaos) (the I/O fault sweep: EOF / ECONNRESET / \
           short writes / delays / trickles injected at every transport \
           operation site, plus combined kill+fault runs), $(b,overload) \
           (open-loop load ramps at 1x to 10x of nominal against the \
           supervised and sharded servers, with resource-exhaustion chaos \
           — fd budgets, backlog caps, send caps — and kills layered on \
           top; gates goodput and the CoDel queue-delay bound). An unknown \
           suite exits 2 with this list. Object-language programs are \
           checked by $(b,chrun check --kills), over every schedule.")

let max_points_arg =
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "max-points" ] ~docv:"N"
        ~doc:
          "Down-sample each case's kill points to at most $(docv), evenly \
           spaced (first and last kept). Default: sweep every point. The \
           $(b,chaos) and $(b,overload) suites ignore it: they sample with \
           $(b,--max-sites) and $(b,--kills-per-point).")

let max_sites_arg =
  Arg.(
    value & opt (int_at_least 1) 6
    & info [ "max-sites" ] ~docv:"N"
        ~doc:
          "Chaos suite: down-sample each case's I/O sites to at most \
           $(docv) per operation kind, evenly spaced (first and last \
           kept). Every applicable fault is still tried at each sampled \
           site.")

let kills_per_point_arg =
  Arg.(
    value & opt (int_at_least 0) 2
    & info [ "kills-per-point" ] ~docv:"N"
        ~doc:
          "Chaos suite: for each clean fault point, additionally re-record \
           the faulted schedule and inject KillThread at $(docv) of its \
           armed steps — asynchronous exceptions composed with transport \
           faults. 0 disables the combined mode. The overload suite reuses \
           it as kills-per-ramp: that many kills layered on every clean \
           and resource-faulted ramp.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Also write a machine-readable summary (kill points, failures, \
           step overhead) to $(docv). The report is fully deterministic — \
           no wall-clock field, and $(b,--jobs) and $(b,--json) are \
           stripped from the recorded command — so runs at different job \
           counts must be byte-identical (CI diffs them).")

let sweep_domains_arg =
  Arg.(
    value & opt (int_at_least 1) 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Record each hio case's baseline live on $(docv) scheduler \
           domains and sweep over its captured replay log: the kill and \
           fault points land in a schedule with real cross-domain \
           interleavings, and each faulted run is still fully \
           deterministic (it replays the log up to the injection). \
           Applies to the hio suites ($(b,std), $(b,server), $(b,sup), \
           $(b,actor), $(b,chaos)). Note the live baseline's \
           interleaving differs run to run, so reports recorded at \
           $(docv) > 1 are deterministic per log but not across \
           invocations — CI's cross-jobs byte-diff only applies at the \
           default 1.")

(* The recorded command must not mention the jobs count or the output
   path: the report is diffed byte-for-byte across --jobs values (and
   scratch filenames) by CI's determinism guard (timing already lives in
   BENCH_par.json, not here). *)
let strip_jobs argv =
  let prefixed p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let rec go = function
    | [] -> []
    | ("--jobs" | "-j" | "--json") :: _ :: rest -> go rest
    (* [-j] glued to its value too: [-jN], [-j=N] *)
    | a :: rest when prefixed "--jobs=" a || prefixed "-j" a -> go rest
    | a :: rest when prefixed "--json=" a -> go rest
    | a :: rest -> a :: go rest
  in
  go argv

(* JSON by hand (no JSON library in the tree): every string we emit is a
   known identifier, so escaping is not needed. A row is its report's
   fields in order, each value already rendered. *)
let sweep_row (r : Fault.Sweep.report) =
  let str = Printf.sprintf "\"%s\"" and int = string_of_int in
  let obj fields =
    Printf.sprintf "{ %s }"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields))
  in
  let steps kinds =
    [
      ("baseline_steps", int r.r_baseline_steps);
      ("faulted_steps", int r.r_faulted_steps);
      ("fault_kinds", obj (List.map (fun (k, n) -> (k, int n)) kinds));
    ]
  in
  let ramp (p : Fault.Sweep.ramp) =
    let t = p.lp_tally in
    Printf.sprintf
      "{ \"mult\": %d, \"offered\": %d, \"ok\": %d, \"shed\": %d, \"late\": \
       %d, \"transport\": %d, \"max_queue_delay\": %d, \"steps\": %d }"
      p.lp_mult t.lt_offered t.lt_ok t.lt_shed t.lt_late t.lt_transport
      t.lt_max_qdelay p.lp_steps
  in
  let fields =
    match r.r_payload with
    | Kills { target; kill_points; applied } ->
        [
          ( "target",
            str
              (match target with
              | Fault.Plan.Acting -> "acting"
              | Named n -> n) );
          ("kill_points", int kill_points);
          ("applied", int applied);
        ]
        @ steps [ ("kill", kill_points) ]
    | Chaos { sites; fault_points; kill_runs; by_kind } ->
        [
          ( "sites",
            obj (List.map (fun (op, n) -> (Ev.Chaos.op_label op, int n)) sites)
          );
          ("fault_points", int fault_points);
          ("kill_runs", int kill_runs);
        ]
        @ steps by_kind
    | Overload { capacity; ramps; kill_runs; resource_ramps } ->
        [
          ("capacity", int capacity);
          ("ramps", "[ " ^ String.concat ", " (List.map ramp ramps) ^ " ]");
          ("kill_runs", int kill_runs);
          ("resource_ramps", int resource_ramps);
          ("faulted_steps", int r.r_faulted_steps);
        ]
  in
  obj
    ((("case", str r.r_case) :: fields)
    @ [ ("failures", int (List.length r.r_failures)) ])

let sweep_json path ~argv ~domains ~failures suites =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema_version\": 8,\n";
  add "  \"description\": \"Fault sweep record: every armed scheduler \
       step of each case re-executed with KillThread injected into the \
       acting (or targeted) thread, invariants checked after each faulted \
       run. faulted_steps/baseline_steps is the step-count overhead of \
       sweeping a case versus running it once. Deterministic: independent \
       of --jobs and free of wall-clock fields (schema 1 carried \
       wall_seconds; schema 3 added the sup suite: supervision trees, \
       retry/breaker/bulkhead, and the supervised server; schema 4 added \
       the chaos suite — transport faults injected at every I/O operation \
       site, optionally composed with kills — and the per-row fault_kinds \
       breakdown; schema 5 added the actor suite: exception-linked \
       actors — link/monitor delivery, call/stop, mailbox FIFO — and the \
       sharded supervised server; schema 6 added the domains field — \
       hio-suite baselines recorded live on that many scheduler domains \
       and swept over their captured replay logs, so kill and fault \
       points probe real cross-domain interleavings; reports with \
       domains > 1 are deterministic per recorded log but not across \
       invocations; schema 7 added the overload suite — deterministic \
       open-loop load ramps at 1x/2x/5x/10x of nominal against the \
       supervised and sharded servers, composed with resource-exhaustion \
       chaos and kills, gating goodput (>= half of capacity at 10x) and \
       the CoDel queue-delay bound; schema 8 dropped the corpus rows — the \
       object-language programs, one sampled round-robin schedule with one \
       kill per step — because chrun check --kills decides the same \
       adversary over every schedule).\",\n";
  add "  \"command\": \"%s\",\n" (String.concat " " (strip_jobs argv));
  add "  \"domains\": %d,\n" domains;
  List.iter
    (fun (name, rows) ->
      add "  \"%s\": [\n" name;
      List.iteri
        (fun i r ->
          add "    %s%s\n" (sweep_row r)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      add "  ],\n")
    suites;
  (* Each suite's runs count toward its driver's total. *)
  let kp, fp, lr =
    List.fold_left
      (fun (kp, fp, lr) (r : Fault.Sweep.report) ->
        match r.r_payload with
        | Kills k -> (kp + k.kill_points, fp, lr)
        | Chaos c -> (kp, fp + c.fault_points + c.kill_runs, lr)
        | Overload o ->
            (kp, fp, lr + List.length o.ramps + o.kill_runs + o.resource_ramps))
      (0, 0, 0)
      (List.concat_map snd suites)
  in
  add
    "  \"totals\": { \"kill_points\": %d, \"fault_points\": %d, \
     \"load_runs\": %d, \"failures\": %d }\n"
    kp fp lr failures;
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let sweep_cmd =
  let run suite max_points max_sites kills_per_point jobs domains json =
    handle_syntax (fun () ->
        if not (List.mem suite suite_names) then begin
          Fmt.epr "chrun sweep: unknown suite %S (expected one of: %s)@." suite
            (String.concat ", " suite_names);
          exit 2
        end;
        let jobs = resolve_jobs jobs in
        let suites =
          List.map
            (fun (name, sweeps) ->
              ( name,
                if suite <> name && suite <> "all" then []
                else
                  List.map
                    (fun sweep ->
                      let r =
                        sweep ~max_points ~max_sites ~kills_per_point ~jobs
                          ~domains
                      in
                      Fmt.pr "%a@." Fault.Sweep.pp_report r;
                      r)
                    sweeps ))
            Fault.Suites.all
        in
        let failures =
          List.fold_left
            (fun n (r : Fault.Sweep.report) -> n + List.length r.r_failures)
            0 (List.concat_map snd suites)
        in
        Option.iter
          (fun path ->
            sweep_json path ~argv:(Array.to_list Sys.argv) ~domains ~failures
              suites)
          json;
        if failures > 0 then begin
          Fmt.pr "%d FAILING sweep%s@." failures
            (if failures = 1 then "" else "s");
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Adversarial kill-point sweep: re-run programs once per scheduler \
          step with KillThread injected at that step, checking quiescence \
          and the §5.2/§7 invariants after every faulted run. Faulted runs \
          are farmed to $(b,--jobs) worker domains; the report is identical \
          whatever the job count.")
    Term.(
      term_result'
        (const run $ suite_arg $ max_points_arg $ max_sites_arg
       $ kills_per_point_arg $ jobs_arg $ sweep_domains_arg $ json_arg))

(* --- chrun repl -------------------------------------------------------------- *)

let repl_cmd =
  let run fuel stuck_io =
    handle_syntax (fun () ->
        let config = config_of fuel stuck_io in
        let eval_line line =
          match String.trim line with
          | "" -> ()
          | line -> (
              let checking, source =
                match String.index_opt line ' ' with
                | Some i when String.sub line 0 i = ":check" ->
                    (true, String.sub line i (String.length line - i))
                | _ -> (false, line)
              in
              match
                Ch_corpus.Combinators.with_prelude (Ch_lang.Parser.parse source)
              with
              | exception Ch_lang.Lexer.Lex_error { line; col; message } ->
                  Fmt.pr "lexical error at %d:%d: %s@." line col message
              | exception Ch_lang.Parser.Parse_error { line; col; message } ->
                  Fmt.pr "syntax error at %d:%d: %s@." line col message
              | program ->
                  if checking then begin
                    let r = Space.explore ~config (State.initial program) in
                    Fmt.pr "states: %d@." r.Space.visited;
                    List.iter
                      (fun k -> Fmt.pr "terminal: %a@." Space.pp_terminal_kind k)
                      (Space.terminal_kinds r)
                  end
                  else if
                    (* pure expressions print their value; IO values run *)
                    match Ch_pure.Eval.eval ~fuel:config.Step.fuel program with
                    | Ch_pure.Eval.Value
                        ( Ch_lang.Term.Return _ | Bind _ | Catch _ | Block _
                        | Unblock _ | Fork _ | Put_char _ | Get_char | New_mvar
                        | Take_mvar _ | Put_mvar _ | Sleep _ | Throw _
                        | Throw_to _ | My_tid ) ->
                        false
                    | Ch_pure.Eval.Value v ->
                        Fmt.pr "%a@." Ch_lang.Pretty.pp_term v;
                        true
                    | Ch_pure.Eval.Raised e ->
                        Fmt.pr "raised #%s@." e;
                        true
                    | Ch_pure.Eval.Diverged ->
                        Fmt.pr "(diverges)@.";
                        true
                    | Ch_pure.Eval.Stuck msg ->
                        Fmt.pr "stuck: %s@." msg;
                        true
                  then ()
                  else
                    let r =
                      Sched.run ~config ~max_steps:200_000 Sched.Round_robin
                        (State.initial program)
                    in
                    let output = State.output_string r.Sched.final in
                    if output <> "" then Fmt.pr "output: %S@." output;
                    (match State.main_result r.Sched.final with
                    | Some (State.Done v) -> (
                        match Ch_pure.Eval.eval ~fuel v with
                        | Ch_pure.Eval.Value v' ->
                            Fmt.pr "%a@." Ch_lang.Pretty.pp_term v'
                        | _ -> Fmt.pr "%a@." Ch_lang.Pretty.pp_term v)
                    | Some (State.Threw e) -> Fmt.pr "uncaught #%s@." e
                    | None -> Fmt.pr "(no result: stuck or out of steps)@."))
        in
        let rec loop () =
          match input_line stdin with
          | ":quit" | ":q" -> ()
          | line ->
              eval_line line;
              loop ()
          | exception End_of_file -> ()
        in
        loop ())
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:
         "Read programs line by line from standard input and run them (or \
          model-check with a ':check' prefix). The §7 prelude is in scope.")
    Term.(term_result' (const run $ fuel_arg $ stuck_io_arg))

let () =
  let info =
    Cmd.info "chrun" ~version:"1.0"
      ~doc:
        "Run and model-check Concurrent-Haskell-with-asynchronous-exceptions \
         programs (PLDI 2001 semantics)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ parse_cmd; run_cmd; replay_cmd; check_cmd; equiv_cmd; sweep_cmd;
            repl_cmd ]))
