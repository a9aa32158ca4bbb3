open Hio

(* Per-domain plumbing between the driver and the case body. A case's
   program must create its chaos control state fresh inside each run
   (site counters are per-run, like a metrics registry), yet the driver
   chooses the plan per run and wants the [ctl] back after a recording.
   Both cells are domain-local for the same reason [Sweep]'s armed flag
   is: [Par.map] farms re-runs to worker domains, each of which runs its
   cases sequentially, so a per-domain cell is race-free and keeps every
   domain's numbering exact. *)
let plan_key = Domain.DLS.new_key (fun () -> ref ([] : Ev.Chaos.plan))

let ctl_key =
  Domain.DLS.new_key (fun () -> ref (None : Ev.Chaos.ctl option))

type case = {
  ic_name : string;
  ic_max_steps : int;
  ic_body : Ev.Chaos.ctl -> unit Io.t;
}

let case ?(max_steps = 400_000) name body =
  { ic_name = name; ic_max_steps = max_steps; ic_body = body }

let case_name c = c.ic_name

(* The [Sweep.case] view of an I/O case: one [lift] step builds the ctl
   from the domain's current plan (and parks it for the driver), then
   the body runs against it. *)
let kill_case c =
  Sweep.case ~max_steps:c.ic_max_steps c.ic_name
    (Io.bind
       (Io.lift (fun () ->
            let ctl = Ev.Chaos.create !(Domain.DLS.get plan_key) in
            Domain.DLS.get ctl_key := Some ctl;
            ctl))
       c.ic_body)

let record ?domains c =
  Domain.DLS.get plan_key := [];
  let schedule = Sweep.record ?domains (kill_case c) in
  let sites =
    match !(Domain.DLS.get ctl_key) with
    | Some ctl -> Ev.Chaos.site_counts ctl
    | None -> List.map (fun op -> (op, 0)) Ev.Chaos.all_ops
  in
  (schedule, sites)

let run_rule c schedule rule kill_plan =
  Domain.DLS.get plan_key := [ rule ];
  Sweep.run_plan (kill_case c) schedule kill_plan

type io_failure = {
  if_case : string;
  if_rule : Ev.Chaos.rule;
  if_shrunk : Ev.Chaos.rule;
  if_kill : Plan.t;
  if_reason : string;
}

type report = {
  ir_case : string;
  ir_baseline_steps : int;
  ir_sites : (Ev.Chaos.op * int) list;
  ir_points : int;
  ir_kill_runs : int;
  ir_faulted_steps : int;
  ir_by_kind : (string * int) list;
  ir_failures : io_failure list;
}

(* Move a failing rule's site as early as it will go while still
   failing: earlier sites make shorter, more readable counterexamples
   (the fault lands before most of the run has happened). *)
let shrink_rule c schedule rule =
  let fails at =
    fst (run_rule c schedule { rule with Ev.Chaos.r_at = at } []) <> None
  in
  let rec go at =
    if at = 0 then at
    else
      match
        List.find_opt
          (fun a -> a < at && fails a)
          (List.sort_uniq compare [ 0; at / 2; at - 1 ])
      with
      | Some a -> go a
      | None -> at
  in
  { rule with Ev.Chaos.r_at = go rule.Ev.Chaos.r_at }

let sweep ?max_sites_per_op ?(kills_per_point = 0) ?(shrink = true)
    ?(jobs = 1) ?domains c =
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
    let verdict, r = run_rule c schedule rule [] in
    let steps = ref r.Runtime.steps in
    let kill_runs = ref 0 in
    let failures = ref [] in
    (match verdict with
    | Some reason ->
        let shrunk = if shrink then shrink_rule c schedule rule else rule in
        failures :=
          [
            { if_case = c.ic_name; if_rule = rule; if_shrunk = shrunk;
              if_kill = []; if_reason = reason };
          ]
    | None ->
        if kills_per_point > 0 then begin
          Domain.DLS.get plan_key := [ rule ];
          let fsched = Sweep.record (kill_case c) in
          steps := !steps + fsched.Sweep.s_steps;
          let armed_steps =
            List.sort_uniq compare
              (List.map fst (Array.to_list fsched.Sweep.s_armed))
          in
          List.iter
            (fun step ->
              incr kill_runs;
              let kplan = [ Plan.kill step ] in
              let v, kr = run_rule c fsched rule kplan in
              steps := !steps + kr.Runtime.steps;
              match v with
              | None -> ()
              | Some reason ->
                  let kshrunk =
                    if not shrink then kplan
                    else
                      Shrink.minimize
                        (fun p ->
                          List.for_all
                            (fun i ->
                              List.mem i.Plan.at_step armed_steps)
                            p
                          && fst (run_rule c fsched rule p) <> None)
                        kplan
                  in
                  failures :=
                    { if_case = c.ic_name; if_rule = rule;
                      if_shrunk = rule; if_kill = kshrunk;
                      if_reason = reason }
                    :: !failures)
            (Sweep.sample kills_per_point (Array.of_list armed_steps))
        end);
    (!steps, !kill_runs, List.rev !failures)
  in
  let results = Par.map ~jobs eval (Array.of_list points) in
  let faulted_steps = ref 0 and kill_runs = ref 0 and failures = ref [] in
  Array.iter
    (fun (steps, kr, fs) ->
      faulted_steps := !faulted_steps + steps;
      kill_runs := !kill_runs + kr;
      List.iter (fun f -> failures := f :: !failures) fs)
    results;
  let by_kind =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun r ->
        let k = Ev.Chaos.fault_label r.Ev.Chaos.r_fault in
        Hashtbl.replace tbl k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      points;
    let kinds =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
      |> List.sort compare
    in
    if !kill_runs > 0 then kinds @ [ ("kill", !kill_runs) ] else kinds
  in
  {
    ir_case = c.ic_name;
    ir_baseline_steps = schedule.Sweep.s_steps;
    ir_sites = sites;
    ir_points = List.length points;
    ir_kill_runs = !kill_runs;
    ir_faulted_steps = !faulted_steps;
    ir_by_kind = by_kind;
    ir_failures = List.rev !failures;
  }

let pp_report ppf r =
  let sites =
    String.concat " "
      (List.filter_map
         (fun (op, n) ->
           if n = 0 then None
           else Some (Printf.sprintf "%s=%d" (Ev.Chaos.op_label op) n))
         r.ir_sites)
  in
  Fmt.pf ppf
    "%-18s io: sites {%s}, %d fault points, %d kill runs, baseline %d \
     steps, %d failure%s"
    r.ir_case sites r.ir_points r.ir_kill_runs r.ir_baseline_steps
    (List.length r.ir_failures)
    (if List.length r.ir_failures = 1 then "" else "s");
  List.iter
    (fun f ->
      Fmt.pf ppf "@.  FAIL %a@.    shrunk to %a%a@.    %s" Ev.Chaos.pp_rule
        f.if_rule Ev.Chaos.pp_rule f.if_shrunk
        (fun ppf -> function
          | [] -> ()
          | kill -> Fmt.pf ppf " + kill %a" Plan.pp kill)
        f.if_kill
        (String.concat "\n    " (String.split_on_char '\n' f.if_reason)))
    r.ir_failures
