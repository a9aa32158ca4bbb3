open Hio

(* A case builds each run's [Sweep.case] from that run's multiplier and
   resource plan: one [lift] step creates the ctl fresh inside the run,
   the body runs the ramp and checks its own invariants, and a last
   [lift] parks the tally in the run's own [tally] ref for the driver.
   Nothing is shared between runs, so [Par.map] can farm them to worker
   domains. *)
type case = {
  lc_name : string;
  lc_qdelay_bound : int option;
  lc_run :
    mult:int ->
    resources:Ev.Chaos.resources ->
    Sweep.tally option ref ->
    Sweep.case;
}

let case ?(max_steps = 2_000_000) ?qdelay_bound name body =
  let run ~mult ~resources tally =
    Sweep.case ~max_steps name
      (Io.bind
         (Io.lift (fun () -> Ev.Chaos.create ~resources []))
         (fun ctl ->
           Io.bind (body ctl ~mult) (fun t ->
               Io.lift (fun () -> tally := Some t))))
  in
  { lc_name = name; lc_qdelay_bound = qdelay_bound; lc_run = run }

let record c ~mult ~resources =
  let tally = ref None in
  let schedule = Sweep.record (c.lc_run ~mult ~resources tally) in
  (schedule, !tally)

let run_kill c schedule ~mult ~resources plan =
  Sweep.run_plan (c.lc_run ~mult ~resources (ref None)) schedule plan

let multipliers = [ 1; 2; 5; 10 ]

(* The resource-exhaustion plans armed on top of the clean ramps: a
   budget of live connections (EMFILE), a capped listener backlog (dial
   refusals), a capped send buffer (short writes + Buffer_full). Budgets
   sized to bite at 2x and above. *)
let resources =
  [
    ("fd-budget", { Ev.Chaos.no_resources with fd_budget = Some 6 });
    ("backlog", { Ev.Chaos.no_resources with backlog_cap = Some 4 });
    ("send-cap", { Ev.Chaos.no_resources with send_cap = Some 8 });
  ]

(* What [Par.map] farms out after the clean ramps are in: kill runs over
   a clean ramp's schedule, or a whole resource-faulted ramp (its own
   fresh recording) with kills layered on its armed steps. *)
type item =
  | Clean_kills of int * Sweep.schedule
  | Faulted of int * string * Ev.Chaos.resources

let sweep ?(kills_per_ramp = 0) ?(jobs = 1) c =
  let failure ~mult ?resource reason =
    {
      Sweep.f_case = c.lc_name;
      f_fault = Sweep.Load { mult; resource };
      f_plan = [];
      f_shrunk = [];
      f_reason = reason;
    }
  in
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
  let fail ~mult reason = failures := failure ~mult reason :: !failures in
  let points =
    List.filter_map
      (function
        | m, Ok (schedule, t) ->
            Some
              {
                Sweep.lp_mult = m;
                lp_tally = t;
                lp_steps = schedule.Sweep.s_steps;
              }
        | m, Error msg ->
            fail ~mult:m msg;
            None)
      clean
  in
  (* Capacity and baseline: goodput and steps of the lowest clean
     multiplier (1x when it ran). *)
  let capacity, baseline_steps =
    match points with
    | [] -> (0, 0)
    | p :: _ -> (p.lp_tally.lt_ok, p.lp_steps)
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
        (fun (p : Sweep.ramp) ->
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
            Clean_kills (m, schedule)
            :: List.map (fun (name, res) -> Faulted (m, name, res)) resources)
      clean
  in
  let eval = function
    | Clean_kills (mult, schedule) ->
        let runs, steps, fs =
          Sweep.layered_kills
            ~fault:(Sweep.Load { mult; resource = None })
            kills_per_ramp
            (c.lc_run ~mult ~resources:Ev.Chaos.no_resources (ref None))
            schedule
        in
        (steps, runs, 0, fs)
    | Faulted (mult, rname, res) -> (
        let kc = c.lc_run ~mult ~resources:res (ref None) in
        match Sweep.record kc with
        | exception Failure msg ->
            (0, 0, 1, [ failure ~mult ~resource:rname msg ])
        | schedule ->
            let runs, steps, fs =
              Sweep.layered_kills
                ~fault:(Sweep.Load { mult; resource = Some rname })
                kills_per_ramp kc schedule
            in
            (schedule.Sweep.s_steps + steps, runs, 1, fs))
  in
  let faulted_steps, kill_runs, resource_ramps, composed_failures =
    Array.fold_right
      (fun (steps, kr, rr, fs) (n, k, r, acc) ->
        (n + steps, k + kr, r + rr, fs @ acc))
      (Par.map ~jobs eval (Array.of_list items))
      (0, 0, 0, [])
  in
  {
    Sweep.r_case = c.lc_name;
    r_baseline_steps = baseline_steps;
    r_faulted_steps = faulted_steps;
    r_failures = List.rev !failures @ composed_failures;
    r_payload =
      Sweep.Overload { capacity; ramps = points; kill_runs; resource_ramps };
  }
