open Hio

(* Per-domain plumbing, exactly [Io_sweep]'s pattern: the driver picks
   the ramp multiplier and the resource plan per run, the case builds
   its chaos ctl fresh inside the run and hands its tally back through
   a domain-local cell — race-free under [Par.map] because each worker
   domain runs its evaluations sequentially. *)

type tally = {
  lt_offered : int;  (** arrivals the ramp issued *)
  lt_ok : int;  (** 200s — goodput *)
  lt_shed : int;  (** 503s: bulkhead/queue/deadline/brownout sheds *)
  lt_late : int;  (** 504s and client-side timeouts *)
  lt_transport : int;  (** transport-level degradation (resets, refusals,
                           dial failures, resource exhaustion) *)
  lt_max_qdelay : int;  (** worst bulkhead queue sojourn observed, µs *)
}

let mult_key = Domain.DLS.new_key (fun () -> ref 1)

let resources_key =
  Domain.DLS.new_key (fun () -> ref Ev.Chaos.no_resources)

let tally_key = Domain.DLS.new_key (fun () -> ref (None : tally option))

type case = {
  lc_name : string;
  lc_max_steps : int;
  lc_qdelay_bound : int option;
  lc_body : Ev.Chaos.ctl -> mult:int -> tally Io.t;
}

let case ?(max_steps = 2_000_000) ?qdelay_bound name body =
  {
    lc_name = name;
    lc_max_steps = max_steps;
    lc_qdelay_bound = qdelay_bound;
    lc_body = body;
  }

let case_name c = c.lc_name

(* The [Sweep.case] view: one [lift] step reads the domain's multiplier
   and resource plan and builds the ctl; the body runs the ramp, checks
   its own invariants, and returns the tally, parked for the driver. *)
let kill_case c =
  Sweep.case ~max_steps:c.lc_max_steps c.lc_name
    (Io.bind
       (Io.lift (fun () ->
            Domain.DLS.get tally_key := None;
            let resources = !(Domain.DLS.get resources_key) in
            (Ev.Chaos.create ~resources [], !(Domain.DLS.get mult_key))))
       (fun (ctl, mult) ->
         Io.bind (c.lc_body ctl ~mult) (fun tally ->
             Io.lift (fun () -> Domain.DLS.get tally_key := Some tally))))

let record c ~mult ~resources =
  Domain.DLS.get mult_key := mult;
  Domain.DLS.get resources_key := resources;
  let schedule = Sweep.record (kill_case c) in
  (schedule, !(Domain.DLS.get tally_key))

let run_kill c schedule ~mult ~resources plan =
  Domain.DLS.get mult_key := mult;
  Domain.DLS.get resources_key := resources;
  Sweep.run_plan (kill_case c) schedule plan

type point = {
  lp_mult : int;
  lp_tally : tally;
  lp_steps : int;
}

type load_failure = {
  lf_case : string;
  lf_mult : int;
  lf_resource : string option;
  lf_kill : Plan.t;
  lf_reason : string;
}

type report = {
  lr_case : string;
  lr_capacity : int;
  lr_points : point list;
  lr_kill_runs : int;
  lr_resource_ramps : int;
  lr_faulted_steps : int;
  lr_failures : load_failure list;
}

let armed_steps schedule =
  List.sort_uniq compare (List.map fst (Array.to_list schedule.Sweep.s_armed))

(* What [Par.map] farms out after the clean ramps are in: kill runs over
   a clean ramp's schedule, or a whole resource-faulted ramp (its own
   fresh recording) with kills layered on its armed steps. *)
type item =
  | Clean_kills of int * Sweep.schedule
  | Faulted of int * string * Ev.Chaos.resources

let sweep ?(multipliers = [ 1; 2; 5; 10 ]) ?(kills_per_ramp = 0)
    ?(resources = []) ?(jobs = 1) c =
  (* Phase 1 — one clean open-loop ramp per multiplier, sequentially on
     the driver domain: these runs define capacity and the goodput
     curve, so their tallies go into the report verbatim. *)
  let clean =
    List.map
      (fun m ->
        match record c ~mult:m ~resources:Ev.Chaos.no_resources with
        | schedule, Some t -> (m, Ok (schedule, t))
        | _, None -> (m, Error "ramp finished without recording a tally")
        | exception Failure msg -> (m, Error msg))
      multipliers
  in
  let failures = ref [] in
  let fail ~mult ?resource ?(kill = []) reason =
    failures :=
      {
        lf_case = c.lc_name;
        lf_mult = mult;
        lf_resource = resource;
        lf_kill = kill;
        lf_reason = reason;
      }
      :: !failures
  in
  let points =
    List.filter_map
      (function
        | m, Ok (schedule, t) ->
            Some { lp_mult = m; lp_tally = t; lp_steps = schedule.Sweep.s_steps }
        | m, Error msg ->
            fail ~mult:m msg;
            None)
      clean
  in
  (* Capacity: goodput of the lowest clean multiplier (1x by default). *)
  let capacity =
    match points with [] -> 0 | p :: _ -> p.lp_tally.lt_ok
  in
  (* Driver-level gates, judged across runs (no single run can see them):
     goodput at the top of the ramp must hold at least half of capacity
     — overload must degrade service, not collapse it — and no admitted
     request may have sat in a bulkhead queue past the declared CoDel
     bound. *)
  (match List.rev points with
  | top :: _ when List.length points > 1 ->
      if 2 * top.lp_tally.lt_ok < capacity then
        fail ~mult:top.lp_mult
          (Printf.sprintf
             "goodput collapsed under overload: %d ok at %dx < half of \
              capacity %d"
             top.lp_tally.lt_ok top.lp_mult capacity)
  | _ -> ());
  (match c.lc_qdelay_bound with
  | None -> ()
  | Some bound ->
      List.iter
        (fun p ->
          if p.lp_tally.lt_max_qdelay > bound then
            fail ~mult:p.lp_mult
              (Printf.sprintf
                 "queue delay %d exceeds the CoDel bound %d"
                 p.lp_tally.lt_max_qdelay bound))
        points);
  (* Phase 2 — kill and resource-exhaustion composition, farmed to
     worker domains; the merge folds position-indexed results in item
     order so the report is identical for every [jobs] value. *)
  let items =
    List.concat_map
      (fun (m, r) ->
        match r with
        | Error _ -> []
        | Ok (schedule, _) ->
            (if kills_per_ramp > 0 then [ Clean_kills (m, schedule) ] else [])
            @ List.map (fun (name, res) -> Faulted (m, name, res)) resources)
      clean
  in
  let eval item =
    let steps = ref 0 and kill_runs = ref 0 and ramps = ref 0 in
    let fails = ref [] in
    let fail ~mult ?resource ?(kill = []) reason =
      fails :=
        {
          lf_case = c.lc_name;
          lf_mult = mult;
          lf_resource = resource;
          lf_kill = kill;
          lf_reason = reason;
        }
        :: !fails
    in
    let kills ~mult ?resource ~res schedule =
      List.iter
        (fun step ->
          incr kill_runs;
          let plan = [ Plan.kill step ] in
          let v, r = run_kill c schedule ~mult ~resources:res plan in
          steps := !steps + r.Runtime.steps;
          match v with
          | None -> ()
          | Some reason -> fail ~mult ?resource ~kill:plan reason)
        (Sweep.sample kills_per_ramp (Array.of_list (armed_steps schedule)))
    in
    (match item with
    | Clean_kills (m, schedule) ->
        kills ~mult:m ~res:Ev.Chaos.no_resources schedule
    | Faulted (m, rname, res) -> (
        incr ramps;
        match record c ~mult:m ~resources:res with
        | exception Failure msg -> fail ~mult:m ~resource:rname msg
        | schedule, _ ->
            steps := !steps + schedule.Sweep.s_steps;
            if kills_per_ramp > 0 then
              kills ~mult:m ~resource:rname ~res schedule));
    (!steps, !kill_runs, !ramps, List.rev !fails)
  in
  let results = Par.map ~jobs eval (Array.of_list items) in
  let faulted_steps = ref 0 and kill_runs = ref 0 and ramps = ref 0 in
  Array.iter
    (fun (steps, kr, rr, fs) ->
      faulted_steps := !faulted_steps + steps;
      kill_runs := !kill_runs + kr;
      ramps := !ramps + rr;
      List.iter (fun f -> failures := f :: !failures) fs)
    results;
  {
    lr_case = c.lc_name;
    lr_capacity = capacity;
    lr_points = points;
    lr_kill_runs = !kill_runs;
    lr_resource_ramps = !ramps;
    lr_faulted_steps = !faulted_steps;
    lr_failures = List.rev !failures;
  }

let pp_tally ppf t =
  Fmt.pf ppf "ok=%d shed=%d late=%d" t.lt_ok t.lt_shed t.lt_late;
  if t.lt_transport > 0 then Fmt.pf ppf " tr=%d" t.lt_transport

let pp_report ppf r =
  let curve =
    String.concat ", "
      (List.map
         (fun p ->
           Format.asprintf "%dx %a" p.lp_mult pp_tally p.lp_tally)
         r.lr_points)
  in
  let qdelay =
    List.fold_left
      (fun acc p -> max acc p.lp_tally.lt_max_qdelay)
      0 r.lr_points
  in
  Fmt.pf ppf
    "%-18s load: capacity %d, %s, max qdelay %d, %d kill runs, %d \
     resource ramps, %d failure%s"
    r.lr_case r.lr_capacity curve qdelay r.lr_kill_runs r.lr_resource_ramps
    (List.length r.lr_failures)
    (if List.length r.lr_failures = 1 then "" else "s");
  List.iter
    (fun f ->
      Fmt.pf ppf "@.  FAIL at %dx%a%a@.    %s" f.lf_mult
        (fun ppf -> function
          | None -> ()
          | Some r -> Fmt.pf ppf " resources=%s" r)
        f.lf_resource
        (fun ppf -> function
          | [] -> ()
          | kill -> Fmt.pf ppf " + kill %a" Plan.pp kill)
        f.lf_kill
        (String.concat "\n    " (String.split_on_char '\n' f.lf_reason)))
    r.lr_failures
