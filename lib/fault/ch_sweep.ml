open Ch_lang
open Ch_semantics
open Ch_explore

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

(* The adversary: KillThread into the acting thread, under the default
   rules, with a step bound on every run. *)
let config = Step.default_config
let max_steps = 20_000
let exn = "KillThread"

let inject_inflight (st : State.t) ~target =
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

let classify init (run : Sched.run) =
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

let sweep ?max_points ?(jobs = 1) name init =
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
     kill-point order and the counts below read them sequentially, so
     the report does not depend on [jobs]. *)
  let eval (at_step, victim) =
    let intervene ~step st =
      if step = at_step then Some (inject_inflight st ~target:victim)
      else None
    in
    let run =
      Sched.run ~config ~intervene ~max_steps Sched.Round_robin init
    in
    (at_step, victim, run.Sched.steps, classify init run)
  in
  let results = Array.to_list (Par.map ~jobs eval (Array.of_list points)) in
  let count p = List.length (List.filter (fun (_, _, _, v) -> p v) results) in
  {
    rc_name = name;
    rc_baseline_steps = baseline.Sched.steps;
    rc_kill_points = List.length points;
    rc_completed = count (( = ) Completed);
    rc_killed = count (( = ) Killed);
    rc_wedged = count (function Wedged _ -> true | _ -> false);
    rc_broken = count (function Broken _ -> true | _ -> false);
    rc_livelocked = count (( = ) Livelock);
    rc_faulted_steps =
      List.fold_left (fun n (_, _, steps, _) -> n + steps) 0 results;
    rc_points =
      List.filter_map
        (fun (at_step, victim, _, verdict) ->
          match verdict with
          | Completed | Killed -> None
          | _ -> Some { at_step; victim; verdict })
        results;
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
