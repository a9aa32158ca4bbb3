open Ch_lang
open Ch_semantics
open Ch_explore

type target = Acting | Tid of Term.tid

type verdict =
  | Completed
  | Killed
  | Broken of string
  | Wedged of (Term.tid * string * Term.mvar_name option) list
  | Livelock

type point = { at_step : int; victim : Term.tid; verdict : verdict }

type report = {
  rc_name : string;
  rc_baseline_steps : int;
  rc_kill_points : int;
  rc_completed : int;
  rc_killed : int;
  rc_wedged : int;
  rc_broken : int;
  rc_livelocked : int;
  rc_faulted_steps : int;
  rc_points : point list;
}

let inject_inflight (st : State.t) ~target ~exn =
  {
    st with
    State.inflight =
      st.State.inflight @ [ (st.State.next_inflight, { State.target; exn }) ];
    next_inflight = st.State.next_inflight + 1;
  }

(* The state just before (Proc GC) wiped the children — that is where
   stranded threads are visible. The trace stores each transition's
   [next], so walk it keeping the predecessor. *)
let pre_gc_state init (run : Sched.run) =
  let rec go prev = function
    | [] -> run.Sched.final
    | tr :: rest ->
        if tr.Step.rule = Step.R_proc_gc then prev
        else go tr.Step.next rest
  in
  go init run.Sched.trace

let classify config ~exn init (run : Sched.run) =
  match run.Sched.outcome with
  | Sched.Out_of_steps -> Livelock
  | Sched.Terminated -> (
      match State.main_result run.Sched.final with
      | None -> (
          match Step.blocked_reasons ~config run.Sched.final with
          | [] ->
              (* main stalled but not Waiting: ill-typed or diverging *)
              Broken "main stuck without waiting"
          | waiting -> Wedged waiting)
      | Some (State.Threw e) when e = exn -> Killed
      | Some (State.Threw e) -> Broken e
      | Some (State.Done _) -> (
          let pre = pre_gc_state init run in
          match
            List.filter
              (fun (tid, _, _) -> tid <> pre.State.main)
              (Step.blocked_reasons ~config pre)
          with
          | [] -> Completed
          | stranded -> Wedged stranded))

let sweep ?(config = Step.default_config) ?(max_steps = 20_000) ?max_points
    ?(target = Acting) ?(exn = "KillThread") ?(jobs = 1) name init =
  let baseline = Sched.run ~config ~max_steps Sched.Round_robin init in
  (if baseline.Sched.outcome <> Sched.Terminated then
     Fmt.failwith "ch_sweep: %s: baseline hit the step bound" name);
  let kill_points =
    baseline.Sched.trace
    |> List.mapi (fun i tr ->
           match tr.Step.actor with
           | Step.Thread_step tid -> Some (i, tid)
           | Step.Delivery _ | Step.Global -> None)
    |> List.filter_map Fun.id |> Array.of_list
  in
  let points =
    match max_points with
    | None -> Array.to_list kill_points
    | Some n -> Sweep.sample n kill_points
  in
  (* Faulted runs are pure recursion over immutable [State.t]s, so kill
     points farm straight to worker domains; [Par.map] keeps results in
     kill-point order and the fold below is sequential, so the report
     does not depend on [jobs]. *)
  let eval (at_step, acting) =
    let victim = match target with Acting -> acting | Tid t -> t in
    let intervene ~step st =
      if step = at_step then Some (inject_inflight st ~target:victim ~exn)
      else None
    in
    let run =
      Sched.run ~config ~intervene ~max_steps Sched.Round_robin init
    in
    (at_step, victim, run.Sched.steps, classify config ~exn init run)
  in
  let results = Par.map ~jobs eval (Array.of_list points) in
  let completed = ref 0
  and killed = ref 0
  and wedged = ref 0
  and broken = ref 0
  and livelocked = ref 0
  and faulted = ref 0
  and bad = ref [] in
  Array.iter
    (fun (at_step, victim, steps, verdict) ->
      faulted := !faulted + steps;
      (match verdict with
      | Completed -> incr completed
      | Killed -> incr killed
      | Wedged _ -> incr wedged
      | Broken _ -> incr broken
      | Livelock -> incr livelocked);
      match verdict with
      | Completed | Killed -> ()
      | _ -> bad := { at_step; victim; verdict } :: !bad)
    results;
  {
    rc_name = name;
    rc_baseline_steps = baseline.Sched.steps;
    rc_kill_points = List.length points;
    rc_completed = !completed;
    rc_killed = !killed;
    rc_wedged = !wedged;
    rc_broken = !broken;
    rc_livelocked = !livelocked;
    rc_faulted_steps = !faulted;
    rc_points = List.rev !bad;
  }

let quiescent r = r.rc_wedged = 0 && r.rc_broken = 0 && r.rc_livelocked = 0

let corpus =
  [
    ("hello", State.initial Ch_corpus.Programs.hello);
    ("echo", State.initial ~input:"xy" Ch_corpus.Programs.echo);
    ("ping-pong", State.initial Ch_corpus.Programs.ping_pong);
    ("producer-consumer", State.initial Ch_corpus.Programs.producer_consumer);
    ("kill-sleeping", State.initial Ch_corpus.Programs.kill_sleeping);
    ("mask-interrupt", State.initial Ch_corpus.Programs.mask_interrupt);
    ("counter-loop", State.initial (Ch_corpus.Programs.counter_loop 3));
  ]

let pp_verdict ppf = function
  | Completed -> Fmt.string ppf "completed"
  | Killed -> Fmt.string ppf "killed"
  | Broken e -> Fmt.pf ppf "broken (#%s)" e
  | Livelock -> Fmt.string ppf "livelock"
  | Wedged ws ->
      Fmt.pf ppf "wedged:%a"
        (Fmt.list ~sep:Fmt.nop (fun ppf (tid, why, m) ->
             Fmt.pf ppf " t%d on %s%a" tid why
               (Fmt.option (fun ppf m -> Fmt.pf ppf " m%d" m))
               m))
        ws

let pp_report ppf r =
  Fmt.pf ppf
    "%-18s %d kill points (baseline %d steps): %d completed, %d killed, %d \
     wedged, %d broken, %d livelocked"
    r.rc_name r.rc_kill_points r.rc_baseline_steps r.rc_completed r.rc_killed
    r.rc_wedged r.rc_broken r.rc_livelocked;
  List.iter
    (fun p ->
      Fmt.pf ppf "@.  step %d into t%d: %a" p.at_step p.victim pp_verdict
        p.verdict)
    r.rc_points
