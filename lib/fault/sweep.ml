open Hio

exception Violation of string

let () =
  Printexc.register_printer (function
    | Violation m -> Some (Printf.sprintf "Violation(%S)" m)
    | _ -> None)

let require what ok =
  if ok then Io.return () else Io.throw (Violation what)

(* The armed window. The flag lives outside the runtime and is toggled by
   a [lift] step inside the case program; the injection hook reads it on
   the OCaml side of the same single-threaded scheduler, so recording and
   replay see identical windows. It is domain-local (not a plain global)
   because [sweep ~jobs] re-runs cases on worker domains: each domain's
   runs are sequential, so a per-domain flag keeps the window exact
   without any cross-domain traffic. *)
let armed_key = Domain.DLS.new_key (fun () -> ref true)
let armed () = Domain.DLS.get armed_key
let disarm = Io.lift (fun () -> armed () := false)

type case = { c_name : string; c_io : unit Io.t; c_max_steps : int }

let case ?(max_steps = 200_000) name io =
  { c_name = name; c_io = io; c_max_steps = max_steps }

let case_name c = c.c_name

type schedule = {
  s_steps : int;
  s_armed : (int * int) array;
  s_names : (int * string) list;
  s_log : Step_journal.Replay.t option;
}

let check_baseline c (r : unit Runtime.result) =
  match r.Runtime.outcome with
  | Runtime.Value () when r.Runtime.blocked_at_exit = [] -> ()
  | Runtime.Value () ->
      Fmt.failwith "fault: case %s: baseline strands blocked threads:@.%a"
        c.c_name Runtime.pp_wait_graph r.Runtime.blocked_at_exit
  | o ->
      Fmt.failwith "fault: case %s: baseline did not complete: %a" c.c_name
        (Runtime.pp_outcome (fun ppf () -> Fmt.string ppf "()"))
        o

let record ?(domains = 1) c =
  (* A multi-domain baseline: run live first to capture the interleaving
     log, then derive the armed schedule by replaying it (the replay is
     single-domain, so the tracer, the observer hook and the DLS armed
     flag all work exactly as in the seed path). Every faulted run then
     replays the same log — the sweep explores kill points over a real
     parallel schedule, deterministically. *)
  let log =
    if domains <= 1 then None
    else begin
      let config =
        {
          Runtime.Config.default with
          Runtime.Config.max_steps = c.c_max_steps;
          domains;
        }
      in
      let r = Runtime.run ~config c.c_io in
      check_baseline c r;
      r.Runtime.replay_log
    end
  in
  let armed = armed () in
  armed := true;
  let acts = ref [] and names = ref [] in
  let tracer = function
    | Runtime.Ev_fork { child; name = Some n; _ } ->
        names := (child, n) :: !names
    | _ -> ()
  in
  let observe ~step ~running =
    if !armed then acts := (step, running) :: !acts;
    None
  in
  let config =
    {
      Runtime.Config.default with
      Runtime.Config.max_steps = c.c_max_steps;
      tracer = Some tracer;
      inject = Some observe;
      replay = log;
    }
  in
  let r = Runtime.run ~config c.c_io in
  check_baseline c r;
  if r.Runtime.replay_diverged then
    Fmt.failwith "fault: case %s: baseline replay diverged from its log"
      c.c_name;
  {
    s_steps = r.Runtime.steps;
    s_armed = Array.of_list (List.rev !acts);
    s_names = List.rev !names;
    s_log = log;
  }

let resolve schedule target ~acting =
  match target with
  | Plan.Acting -> Some acting
  | Plan.Named n -> (
      match List.find_opt (fun (_, nm) -> nm = n) schedule.s_names with
      | Some (tid, _) -> Some tid
      | None -> None)

(* Judge one faulted run; [main_hit] is whether the injection resolved to
   the main thread (see the .mli on why that relaxes the checks). *)
let classify ~main_hit (r : unit Runtime.result) =
  let graph () =
    Fmt.str "@[<v>%a@]" Runtime.pp_wait_graph r.Runtime.blocked_at_exit
  in
  match r.Runtime.outcome with
  | Runtime.Value () ->
      if main_hit || r.Runtime.blocked_at_exit = [] then None
      else Some ("main returned but threads are wedged:\n" ^ graph ())
  | Runtime.Uncaught Io.Kill_thread when main_hit -> None
  | Runtime.Uncaught (Violation what) ->
      Some ("invariant violated: " ^ what)
  | Runtime.Uncaught e -> Some ("uncaught: " ^ Printexc.to_string e)
  | Runtime.Deadlock -> Some ("deadlock:\n" ^ graph ())
  | Runtime.Out_of_steps -> Some "out of steps (livelock or leak)"

let run_plan c schedule (plan : Plan.t) =
  armed () := true;
  let main_hit = ref false in
  let hook ~step ~running =
    match
      List.find_opt (fun i -> i.Plan.at_step = step) plan
    with
    | None -> None
    | Some i -> (
        match resolve schedule i.Plan.target ~acting:running with
        | None -> None
        | Some tid ->
            if tid = 0 then main_hit := true;
            Some (tid, i.Plan.exn))
  in
  let config =
    {
      Runtime.Config.default with
      Runtime.Config.max_steps = c.c_max_steps;
      inject = Some hook;
      replay = schedule.s_log;
    }
  in
  let r = Runtime.run ~config c.c_io in
  (classify ~main_hit:!main_hit r, r)

type fault =
  | Kill
  | Io of { rule : Ev.Chaos.rule; shrunk_rule : Ev.Chaos.rule }
  | Load of { mult : int; resource : string option }

type failure = {
  f_case : string;
  f_fault : fault;
  f_plan : Plan.t;
  f_shrunk : Plan.t;
  f_reason : string;
}

type tally = {
  lt_offered : int;
  lt_ok : int;
  lt_shed : int;
  lt_late : int;
  lt_transport : int;
  lt_max_qdelay : int;
}

type ramp = { lp_mult : int; lp_tally : tally; lp_steps : int }

type payload =
  | Kills of { target : Plan.target; kill_points : int; applied : int }
  | Chaos of {
      sites : (Ev.Chaos.op * int) list;
      fault_points : int;
      kill_runs : int;
      by_kind : (string * int) list;
    }
  | Overload of {
      capacity : int;
      ramps : ramp list;
      kill_runs : int;
      resource_ramps : int;
    }

type report = {
  r_case : string;
  r_baseline_steps : int;
  r_faulted_steps : int;
  r_failures : failure list;
  r_payload : payload;
}

(* A bounded sweep still probes both ends of the run: first and last are
   kept. Every sweep driver samples through this one policy. *)
let sample n arr =
  if n < 1 then invalid_arg "Sweep.sample: n must be >= 1";
  let len = Array.length arr in
  if len <= n then Array.to_list arr
  else
    List.init n (fun i ->
        arr.(if n = 1 then 0 else i * (len - 1) / (n - 1)))

let armed_steps schedule =
  List.sort_uniq compare (List.map fst (Array.to_list schedule.s_armed))

let probe ?(shrink = true) ~fault c schedule plan =
  let verdict, r = run_plan c schedule plan in
  let failure =
    Option.map
      (fun reason ->
        let shrunk =
          if not shrink then plan
          else
            (* Only armed steps are admissible counterexamples: a shrink
               candidate landing in the disarmed probe phase would
               "fail" for the wrong reason. *)
            let armed = armed_steps schedule in
            Shrink.minimize
              (fun p ->
                List.for_all (fun i -> List.mem i.Plan.at_step armed) p
                && fst (run_plan c schedule p) <> None)
              plan
        in
        { f_case = c.c_name; f_fault = fault; f_plan = plan;
          f_shrunk = shrunk; f_reason = reason })
      verdict
  in
  (r, failure)

let layered_kills ~fault k c schedule =
  if k = 0 then (0, 0, [])
  else
    let runs =
      List.map
        (fun step ->
          let r, failure = probe ~fault c schedule [ Plan.kill step ] in
          (r.Runtime.steps, failure))
        (sample k (Array.of_list (armed_steps schedule)))
    in
    ( List.length runs,
      List.fold_left (fun n (steps, _) -> n + steps) 0 runs,
      List.filter_map snd runs )

let sweep ?max_points ?(target = Plan.Acting) ?(shrink = true) ?(jobs = 1)
    ?(domains = 1) c =
  let schedule = record ~domains c in
  let points =
    match max_points with
    | None -> Array.to_list schedule.s_armed
    | Some n -> sample n schedule.s_armed
  in
  (* One faulted run (plus shrinking, if it failed) per kill point. Each
     evaluation is independent: [Runtime.run] builds all its state per
     call and the armed flag is domain-local, so the points can be
     farmed to worker domains. [Par.map] returns results indexed by
     kill point, and the merge below folds them in that order — the
     report is byte-identical whatever [jobs] is. *)
  let eval (step, _acting) =
    let plan = [ { Plan.at_step = step; target; exn = Io.Kill_thread } ] in
    let r, failure = probe ~shrink ~fault:Kill c schedule plan in
    ((if r.Runtime.injections > 0 then 1 else 0), r.Runtime.steps, failure)
  in
  let applied, faulted_steps, failures =
    Array.fold_right
      (fun (app, steps, failure) (a, n, fs) ->
        (a + app, n + steps, Option.to_list failure @ fs))
      (Par.map ~jobs eval (Array.of_list points))
      (0, 0, [])
  in
  {
    r_case = c.c_name;
    r_baseline_steps = schedule.s_steps;
    r_faulted_steps = faulted_steps;
    r_failures = failures;
    r_payload = Kills { target; kill_points = List.length points; applied };
  }

let pp_failure ppf f =
  let kill ppf = function
    | [] -> ()
    | plan -> Fmt.pf ppf " + kill %a" Plan.pp plan
  in
  (match f.f_fault with
  | Kill ->
      Fmt.pf ppf "@.  FAIL %a@.    shrunk to %a" Plan.pp f.f_plan Plan.pp
        f.f_shrunk
  | Io { rule; shrunk_rule } ->
      Fmt.pf ppf "@.  FAIL %a@.    shrunk to %a%a" Ev.Chaos.pp_rule rule
        Ev.Chaos.pp_rule shrunk_rule kill f.f_shrunk
  | Load { mult; resource } ->
      Fmt.pf ppf "@.  FAIL at %dx%a%a" mult
        (Fmt.option (fun ppf -> Fmt.pf ppf " resources=%s"))
        resource kill f.f_shrunk);
  Fmt.pf ppf "@.    %s"
    (String.concat "\n    " (String.split_on_char '\n' f.f_reason))

let pp_tally ppf t =
  Fmt.pf ppf "ok=%d shed=%d late=%d" t.lt_ok t.lt_shed t.lt_late;
  if t.lt_transport > 0 then Fmt.pf ppf " tr=%d" t.lt_transport

let pp_report ppf r =
  Fmt.pf ppf "%-18s " r.r_case;
  (match r.r_payload with
  | Kills { target; kill_points; applied } ->
      Fmt.pf ppf "target=%a: %d kill points (%d applied), baseline %d steps"
        Plan.pp_target target kill_points applied r.r_baseline_steps
  | Chaos { sites; fault_points; kill_runs; _ } ->
      let sites =
        String.concat " "
          (List.filter_map
             (fun (op, n) ->
               if n = 0 then None
               else Some (Printf.sprintf "%s=%d" (Ev.Chaos.op_label op) n))
             sites)
      in
      Fmt.pf ppf
        "io: sites {%s}, %d fault points, %d kill runs, baseline %d steps"
        sites fault_points kill_runs r.r_baseline_steps
  | Overload { capacity; ramps; kill_runs; resource_ramps } ->
      let curve =
        String.concat ", "
          (List.map
             (fun p -> Fmt.str "%dx %a" p.lp_mult pp_tally p.lp_tally)
             ramps)
      in
      let qdelay =
        List.fold_left (fun acc p -> max acc p.lp_tally.lt_max_qdelay) 0 ramps
      in
      Fmt.pf ppf
        "load: capacity %d, %s, max qdelay %d, %d kill runs, %d resource \
         ramps"
        capacity curve qdelay kill_runs resource_ramps);
  let n = List.length r.r_failures in
  Fmt.pf ppf ", %d failure%s" n (if n = 1 then "" else "s");
  List.iter (pp_failure ppf) r.r_failures
