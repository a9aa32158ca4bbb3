(* overload — the overload-robustness proof and its benchmark record.

     dune exec examples/overload.exe -- --kills 1 --jobs 2 \
       --json BENCH_overload.json

   Runs the full overload sweep (lib/fault/load_sweep) against both the
   supervised §11 server and the sharded server: open-loop load ramps
   at 1x/2x/5x/10x of nominal arrivals, then the same ramps re-run with
   resource-exhaustion plans armed (fd budget, backlog cap, send-buffer
   cap) and [--kills] thread kills layered at sampled scheduler steps
   of every schedule. Everything rides the simulated clock, so every
   curve in BENCH_overload.json is deterministic: same build, same
   numbers, for any [--jobs].

   The record exits nonzero if any gate fails — the driver's goodput
   gate (ok at 10x must hold at least half of 1x capacity: overload
   degrades service, it must not collapse it), the CoDel queue-delay
   gate (no admitted request sat in a bulkhead queue past
   2x queue_target), or any in-run invariant (lawful outcome per
   client, steady state restored once load drains).

   The checked-in BENCH_overload.json additionally carries
   baseline_estimates_ns for the bench group behind these curves —
   re-record with `dune exec bench/main.exe -- -only ovl -json` and
   merge when re-pinning (scripts/bench_check.sh reads them). *)

let report_json ppf (r : Fault.Sweep.report) =
  let capacity, ramps, kill_runs, resource_ramps =
    match r.r_payload with
    | Overload o -> (o.capacity, o.ramps, o.kill_runs, o.resource_ramps)
    | Kills _ | Chaos _ -> invalid_arg "not an overload report"
  in
  let ramp ppf (p : Fault.Sweep.ramp) =
    let t = p.lp_tally in
    Format.fprintf ppf
      {|{ "mult": %d, "offered": %d, "ok": %d, "shed": %d, "late": %d, "transport": %d, "max_queue_delay_us": %d, "steps": %d }|}
      p.lp_mult t.lt_offered t.lt_ok t.lt_shed t.lt_late t.lt_transport
      t.lt_max_qdelay p.lp_steps
  in
  Format.fprintf ppf
    "    {\n\
    \      \"name\": %S,\n\
    \      \"capacity\": %d,\n\
    \      \"ramps\": [\n"
    r.r_case capacity;
  List.iteri
    (fun i p ->
      Format.fprintf ppf "        %a%s\n" ramp p
        (if i = List.length ramps - 1 then "" else ","))
    ramps;
  Format.fprintf ppf
    "      ],\n\
    \      \"kill_runs\": %d,\n\
    \      \"resource_ramps\": %d,\n\
    \      \"faulted_steps\": %d,\n\
    \      \"failures\": %d\n\
    \    }"
    kill_runs resource_ramps r.r_faulted_steps
    (List.length r.r_failures)

let () =
  let kills = ref 1 and jobs = ref 1 and json = ref "" in
  let rec parse = function
    | "--kills" :: v :: tl ->
        kills := int_of_string v;
        parse tl
    | "--jobs" :: v :: tl ->
        jobs := int_of_string v;
        parse tl
    | "--json" :: v :: tl ->
        json := v;
        parse tl
    | [] -> ()
    | arg :: _ ->
        Printf.eprintf
          "usage: overload [--kills K] [--jobs J] [--json FILE] (got %S)\n" arg;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  let reports =
    List.map
      (fun c ->
        let r = Fault.Load_sweep.sweep ~kills_per_ramp:!kills ~jobs:!jobs c in
        Format.printf "%a@." Fault.Sweep.pp_report r;
        r)
      Fault.Load_cases.overload
  in
  let failures =
    List.fold_left
      (fun acc (r : Fault.Sweep.report) -> acc + List.length r.r_failures)
      0 reports
  in
  if !json <> "" then begin
    let oc = open_out !json in
    let ppf = Format.formatter_of_out_channel oc in
    Format.fprintf ppf
      {|{
  "schema_version": 1,
  "description": "Overload-robustness record (lib/fault/load_sweep over lib/server + lib/server/shard): open-loop load ramps on the simulated clock at 1x/2x/5x/10x of nominal arrival rate against the supervised and the sharded server, composed with resource-exhaustion plans (fd budget, listener backlog cap, send-buffer cap) and thread kills at sampled scheduler steps. Gates: goodput at 10x >= half of 1x capacity (shed, don't collapse), no admitted request past the CoDel queue-delay bound, a lawful outcome (200/503/504/transport) per surviving client, steady state restored once load drains. Deterministic: same build, same numbers, for any --jobs.",
  "command": "dune exec examples/overload.exe -- --kills %d --jobs %d --json BENCH_overload.json",
  "load": {
    "backend": "sim+chaos",
    "base_arrivals": %d,
    "window_us": %d,
    "queue_target_us": %d,
    "qdelay_bound_us": %d,
    "kills_per_ramp": %d,
    "cases": [
|}
      !kills !jobs Fault.Load_cases.base Fault.Load_cases.window
      Fault.Load_cases.queue_target Fault.Load_cases.qdelay_bound !kills;
    List.iteri
      (fun i r ->
        Format.fprintf ppf "%a%s\n" report_json r
          (if i = List.length reports - 1 then "" else ","))
      reports;
    Format.fprintf ppf
      "    ]\n  },\n  \"gates_passed\": %s\n}\n"
      (if failures = 0 then "true" else "false");
    Format.pp_print_flush ppf ();
    close_out oc;
    Printf.printf "record written to %s\n" !json
  end;
  if failures > 0 then begin
    Printf.eprintf "overload: %d gate failure(s)\n%!" failures;
    exit 1
  end
