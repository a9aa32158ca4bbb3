open Hio

(* A case builds each run's [Sweep.case] from that run's chaos plan: one
   [lift] step creates the ctl fresh inside the run (site counters are
   per-run, like a metrics registry) and parks it in the run's own
   [ctl] ref, which the driver reads back after a recording. Nothing is
   shared between runs, so [Par.map] can farm them to worker domains. *)
type case = Ev.Chaos.plan -> Ev.Chaos.ctl option ref -> Sweep.case

let case ?(max_steps = 400_000) name body plan ctl =
  Sweep.case ~max_steps name
    (Io.bind
       (Io.lift (fun () ->
            let c = Ev.Chaos.create plan in
            ctl := Some c;
            c))
       body)

let case_name c = Sweep.case_name (c [] (ref None))

let record ?domains c =
  let ctl = ref None in
  let schedule = Sweep.record ?domains (c [] ctl) in
  (* set: a recorded baseline ran to completion, first step included *)
  (schedule, Ev.Chaos.site_counts (Option.get !ctl))

let run_rule c schedule rule kill_plan =
  Sweep.run_plan (c [ rule ] (ref None)) schedule kill_plan

(* Move a failing rule's site as early as it will go while still
   failing: earlier sites make shorter, more readable counterexamples
   (the fault lands before most of the run has happened). *)
let shrink_rule c schedule rule =
  let fails at =
    fst (run_rule c schedule { rule with Ev.Chaos.r_at = at } []) <> None
  in
  let rec go at =
    match List.find_opt fails (Shrink.earlier at) with
    | Some a -> go a
    | None -> at
  in
  { rule with Ev.Chaos.r_at = go rule.Ev.Chaos.r_at }

let sweep ?max_sites_per_op ?(kills_per_point = 0) ?(jobs = 1) ?domains c =
  (* [domains] shapes only the initial baseline (live multi-domain run +
     replay-log capture); combined-mode re-recordings of chaos-faulted
     schedules stay live single-domain — a fault changes behavior, so
     the multi-domain log cannot be followed through it. *)
  let schedule, sites = record ?domains c in
  let points =
    List.concat_map
      (fun (op, n) ->
        let site_list =
          match max_sites_per_op with
          | None -> List.init n Fun.id
          | Some m -> Sweep.sample m (Array.init n Fun.id)
        in
        List.concat_map
          (fun at ->
            List.map
              (fun f -> { Ev.Chaos.r_op = op; r_at = at; r_fault = f })
              (Ev.Chaos.default_faults op))
          site_list)
      sites
  in
  (* One faulted run per point; for clean points in combined mode, the
     faulted schedule is re-recorded (the clean verdict certifies it
     satisfies [record]'s baseline criteria) and kills are layered at a
     sample of its armed steps. Each evaluation builds all its state per
     run, so points can be farmed to worker domains; the merge below
     folds [Par.map]'s position-indexed results in point order, keeping
     the report identical for every [jobs] value. *)
  let eval rule =
    let kc = c [ rule ] (ref None) in
    let verdict, r = Sweep.run_plan kc schedule [] in
    match verdict with
    | Some reason ->
        let fault =
          Sweep.Io { rule; shrunk_rule = shrink_rule c schedule rule }
        in
        ( r.Runtime.steps,
          0,
          [
            { Sweep.f_case = Sweep.case_name kc; f_fault = fault;
              f_plan = []; f_shrunk = []; f_reason = reason };
          ] )
    | None when kills_per_point = 0 -> (r.Runtime.steps, 0, [])
    | None ->
        let fsched = Sweep.record kc in
        let runs, steps, failures =
          Sweep.layered_kills
            ~fault:(Sweep.Io { rule; shrunk_rule = rule })
            kills_per_point kc fsched
        in
        (r.Runtime.steps + fsched.Sweep.s_steps + steps, runs, failures)
  in
  let faulted_steps, kill_runs, failures =
    Array.fold_right
      (fun (steps, kr, fs) (n, k, acc) -> (n + steps, k + kr, fs @ acc))
      (Par.map ~jobs eval (Array.of_list points))
      (0, 0, [])
  in
  let by_kind =
    let labels =
      List.map (fun r -> Ev.Chaos.fault_label r.Ev.Chaos.r_fault) points
    in
    List.map
      (fun k -> (k, List.length (List.filter (String.equal k) labels)))
      (List.sort_uniq compare labels)
    @ if kill_runs > 0 then [ ("kill", kill_runs) ] else []
  in
  {
    Sweep.r_case = case_name c;
    r_baseline_steps = schedule.Sweep.s_steps;
    r_faulted_steps = faulted_steps;
    r_failures = failures;
    r_payload =
      Sweep.Chaos
        { sites; fault_points = List.length points; kill_runs; by_kind };
  }
