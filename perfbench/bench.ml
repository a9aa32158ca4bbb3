(* The repository's benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Four closed-loop, single-process, single-domain workloads over the
   public APIs (see NOTES.md for why each was chosen):

   - tcp_keepalive: 2 keep-alive loopback connections on Ev.Real, each
     a client green thread sending GET /hello to a plain Server;
   - shard_churn: 2 clients on the simulated backend, each op a keyed
     Shard.connect, one request and a close through a 4-shard tree;
   - sweep_kill: Fault.Sweep.run_plan of Cases.sup_server with one kill
     at an armed step, from an evenly spaced sample offset by the seed;
   - explore_timeout: Space.explore of the §7 timeout claim.

   A run repeats fixed-size rounds until [--seconds] have passed. Each
   round is a fresh [Runtime.run] (or a fresh setup), so that state the
   runtime keeps for the life of a run cannot grow with run length, and
   each round of a simulated workload is the same computation. Every
   op's output is checked; a failed op counts against [ok_ratio] and
   leaves no latency sample.

   [--trace 0] prints the end-to-end metrics. [--trace 1] alternates
   untraced and traced rounds: traced rounds install the Ev decorator
   and record spans, and the per-layer metrics come from them, with the
   tracing overhead measured against the untraced rounds of the same
   run. The last line of standard output is the JSON result. *)

open Hio
open Hio.Io
open Hserver

(* ---- accumulators -------------------------------------------------------- *)

type acc = {
  lat : Samples.t;  (** ns per ok op *)
  setup : Samples.t;  (** ns per set-up *)
  mutable attempted : int;
  mutable failed : int;
  mutable timed_ns : int;  (** wall time of the timed phases *)
  mutable rounds : int;
  mutable words_per_op : float list;  (** one entry per round *)
  mutable promoted : float;
  mutable majors : int;
  mutable steps : int;
  mutable forks : int;
  mutable threads : int;
  mutable run_ns : int;  (** wall time inside [Runtime.run] *)
  mutable run_ops : int;  (** ops of the rounds counted in [steps] *)
}

let new_acc cap =
  {
    lat = Samples.create cap;
    setup = Samples.create 100_000;
    attempted = 0;
    failed = 0;
    timed_ns = 0;
    rounds = 0;
    words_per_op = [];
    promoted = 0.;
    majors = 0;
    steps = 0;
    forks = 0;
    threads = 0;
    run_ns = 0;
    run_ops = 0;
  }

(* Per-layer readings that only some workloads have. *)
type layers = {
  mutable mailbox_hw : int;
  mutable in_flight_max : int;
  mutable restarts : int;
  mutable sweep_steps : int;
  mutable sweep_applied : int;
  mutable sweep_runs : int;
  mutable states : int;
  mutable edges : int;
  mutable explores : int;
  mutable explore_ns : int;
  mutable enum_ns : int;
  mutable key_ns : int;
  mutable sem_states : int;
}

let layers =
  {
    mailbox_hw = 0;
    in_flight_max = 0;
    restarts = 0;
    sweep_steps = 0;
    sweep_applied = 0;
    sweep_runs = 0;
    states = 0;
    edges = 0;
    explores = 0;
    explore_ns = 0;
    enum_ns = 0;
    key_ns = 0;
    sem_states = 0;
  }

(* What a round needs besides its accumulator: the span store and the
   Ev decorator, present only in traced rounds. *)
type probe = { tr : Trace.t option; tap : Evtap.t option }

let untraced = { tr = None; tap = None }

(* Allocated words: minor plus direct-major, i.e. minor + major minus
   the promoted words that [major] counts a second time. *)
let gc_words () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted, promoted)

type mark = { m_ns : int; m_words : float; m_promoted : float; m_majors : int }

let mark () =
  let words, promoted = gc_words () in
  {
    m_ns = Clock.now_ns ();
    m_words = words;
    m_promoted = promoted;
    m_majors = (Gc.quick_stat ()).Gc.major_collections;
  }

(* Close a timed phase that began at [m] and ran [ops] ops. *)
let end_phase acc m ops =
  let ns = Clock.now_ns () - m.m_ns in
  let words, promoted = gc_words () in
  acc.timed_ns <- acc.timed_ns + ns;
  acc.rounds <- acc.rounds + 1;
  acc.words_per_op <- ((words -. m.m_words) /. float_of_int (max 1 ops)) :: acc.words_per_op;
  acc.promoted <- acc.promoted +. (promoted -. m.m_promoted);
  acc.majors <- acc.majors + ((Gc.quick_stat ()).Gc.major_collections - m.m_majors)

let note_run acc ops ns (r : _ Runtime.result) =
  acc.steps <- acc.steps + r.Runtime.steps;
  acc.forks <- acc.forks + r.Runtime.forks;
  acc.threads <- max acc.threads (List.length r.Runtime.thread_stats);
  acc.run_ns <- acc.run_ns + ns;
  acc.run_ops <- acc.run_ops + ops

let record acc t0 ok =
  acc.attempted <- acc.attempted + 1;
  if ok then Samples.add acc.lat (Clock.now_ns () - t0)
  else acc.failed <- acc.failed + 1

(* One op inside the runtime: time it, check it, never let it abort the
   run. [body] gets the op's root span (-1 when untraced). *)
let timed_op acc probe body =
  lift (fun () ->
      let root =
        match probe.tr with Some tr -> Trace.begin_op tr | None -> -1
      in
      (Clock.now_ns (), root))
  >>= fun (t0, root) ->
  catch (body root) (fun _ -> return false) >>= fun ok ->
  lift (fun () ->
      (match probe.tr with Some tr -> Trace.close tr root | None -> ());
      record acc t0 ok;
      ok)

let span probe nm root io =
  match probe.tr with
  | None -> io
  | Some tr ->
      lift (fun () -> Trace.child tr nm root) >>= fun i ->
      io >>= fun v ->
      lift (fun () -> Trace.close tr i) >>= fun () -> return v

let run_io acc ops config io =
  let t0 = Clock.now_ns () in
  let r = Runtime.run ~config io in
  note_run acc ops (Clock.now_ns () - t0) r;
  match r.Runtime.outcome with
  | Runtime.Value _ -> ()
  | Runtime.Uncaught e -> failwith ("round died: " ^ Printexc.to_string e)
  | Runtime.Deadlock -> failwith "round deadlocked"
  | Runtime.Out_of_steps -> failwith "round ran out of steps"

let base_config =
  { Runtime.Config.default with Runtime.Config.max_steps = max_int }

(* ---- HTTP: shared by tcp_keepalive and shard_churn ----------------------- *)

let request = { Http.meth = "GET"; path = "/hello"; headers = []; body = "" }
let hi = Http.ok "hi"
let correct (r : Http.response) = r.Http.status = 200 && r.Http.body = "hi"

(* The benchmark's handler. In traced rounds the client names its op's
   root span in an [x-op] header, and the handler marks its entry as a
   point span of that op; the extra header is part of the measured
   tracing overhead. *)
let handler probe : Server.handler =
 fun req ->
  if req.Http.path <> "/hello" then return Http.not_found
  else
    match probe.tr with
    | None -> return hi
    | Some tr ->
        lift (fun () ->
            (match List.assoc_opt "x-op" req.Http.headers with
            | Some s -> Trace.point tr Trace.Handler (int_of_string s)
            | None -> ());
            hi)

let exchange probe root conn =
  let req =
    if root < 0 then request
    else { request with Http.headers = [ ("x-op", string_of_int root) ] }
  in
  span probe Trace.Write_request root (Http.write_request conn req) >>= fun () ->
  span probe Trace.Read_response root (Http.read_response conn) >>= fun r ->
  return (correct r)

let registry_readings reg ~labels =
  let g = Obs.Metrics.gauge reg ~labels "server_in_flight" in
  layers.in_flight_max <- max layers.in_flight_max (Obs.Metrics.gauge_max g);
  layers.restarts <-
    layers.restarts
    + Obs.Metrics.counter_value
        (Obs.Metrics.counter reg
           ~labels:[ ("strategy", "one_for_one") ]
           "sup_restarts_total")

(* ---- tcp_keepalive ------------------------------------------------------- *)

let tcp_conns = 2
let tcp_reqs = 2_000

let tcp_config =
  {
    Server.default_config with
    Server.request_timeout = 5_000_000;
    max_concurrent = tcp_conns;
    accept_queue = 64;
    supervised = false;
    keep_alive = true;
  }

let tcp_round real acc probe =
  let backend =
    match probe.tap with Some tap -> Evtap.backend tap real | None -> real
  in
  let reg = Obs.Metrics.create () in
  let wrap c = match probe.tap with Some tap -> Evtap.conn tap c | None -> c in
  let program =
    lift Clock.now_ns >>= fun t0 ->
    Server.start ~config:tcp_config ~metrics:reg ~backend (handler probe)
    >>= fun server ->
    Server.connect server >>= fun c1 ->
    Server.connect server >>= fun c2 ->
    lift (fun () ->
        Samples.add acc.setup (Clock.now_ns () - t0);
        mark ())
    >>= fun m ->
    (* A failed exchange may leave its connection unusable: drop it, and
       let the next op dial a fresh one (inside the op, so a failed dial
       is a failed op too). *)
    let client c0 =
      let conn = ref (Some (wrap c0)) in
      let body root =
        (match !conn with
        | Some c -> return c
        | None ->
            Server.connect server >>= fun c ->
            let c = wrap c in
            conn := Some c;
            return c)
        >>= fun c ->
        catch (exchange probe root c) (fun e ->
            conn := None;
            catch (Http.Conn.close c) (fun _ -> return ()) >>= fun () -> throw e)
      in
      Hio_std.Combinators.repeat tcp_reqs (ignore_result (timed_op acc probe body))
      >>= fun () ->
      match !conn with Some c -> Http.Conn.close c | None -> return ()
    in
    Hio_std.Combinators.parallel [ client c1; client c2 ] >>= fun _ ->
    lift (fun () -> end_phase acc m (tcp_conns * tcp_reqs)) >>= fun () ->
    Server.shutdown server
  in
  run_io acc (tcp_conns * tcp_reqs) (Ev.Backend.install backend base_config) program;
  registry_readings reg ~labels:[ ("backend", "real") ]

(* ---- shard_churn --------------------------------------------------------- *)

let shard_clients = 2
let shard_ops = 1_000
let shards = 4

let shard_config =
  {
    Server.default_config with
    Server.request_timeout = 10_000_000;
  }

(* splitmix64, for routing keys that depend on the seed alone *)
let splitmix seed =
  let s = ref (Int64.of_int seed) in
  fun () ->
    s := Int64.add !s 0x9E3779B97F4A7C15L;
    let z = !s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.to_int (Int64.shift_right_logical (Int64.logxor z (Int64.shift_right_logical z 31)) 2)

let shard_keys seed =
  let next = splitmix seed in
  Array.init (shard_clients * shard_ops) (fun _ -> Printf.sprintf "user-%d" (next () mod 1_000_000))

let shard_round keys acc probe =
  let reg = Obs.Metrics.create () in
  let program =
    lift Clock.now_ns >>= fun t0 ->
    Shard.start ~config:shard_config ~metrics:reg ~shards (handler probe) >>= fun srv ->
    lift (fun () ->
        Samples.add acc.setup (Clock.now_ns () - t0);
        mark ())
    >>= fun m ->
    let client ci =
      let rec loop k =
        if k = shard_ops then return ()
        else
          let key = keys.((ci * shard_ops) + k) in
          let body root =
            span probe Trace.Shard_connect root (Shard.connect ~key srv) >>= fun c ->
            let c = match probe.tap with Some tap -> Evtap.conn tap c | None -> c in
            Hio_std.Combinators.finally (exchange probe root c)
              (span probe Trace.Conn_close root (Http.Conn.close c))
          in
          timed_op acc probe body >>= fun _ -> loop (k + 1)
      in
      loop 0
    in
    Hio_std.Combinators.parallel (List.init shard_clients client) >>= fun _ ->
    lift (fun () -> end_phase acc m (shard_clients * shard_ops)) >>= fun () ->
    Shard.shutdown srv
  in
  let config = Ev.Backend.install (Ev.Backend.sim ()) base_config in
  run_io acc (shard_clients * shard_ops) config program;
  for i = 0 to shards - 1 do
    let g =
      Obs.Metrics.gauge reg
        ~labels:[ ("name", Printf.sprintf "shard-actor-%d" i) ]
        "mailbox_depth"
    in
    layers.mailbox_hw <- max layers.mailbox_hw (Obs.Metrics.gauge_max g)
  done;
  registry_readings reg ~labels:[ ("layer", "shard") ]

(* ---- sweep_kill ---------------------------------------------------------- *)

let sweep_points = 512

(* An evenly spaced sample of the armed steps, offset by the seed. *)
let kill_steps seed (sched : Fault.Sweep.schedule) =
  let armed = sched.Fault.Sweep.s_armed in
  let n = Array.length armed in
  let stride = max 1 (n / sweep_points) in
  let off = seed mod stride in
  Array.init (min sweep_points n) (fun k -> fst armed.((off + (k * stride)) mod n))

let sweep_round seed acc probe =
  let case = Fault.Cases.sup_server in
  let t0 = Clock.now_ns () in
  let sched = Fault.Sweep.record case in
  Samples.add acc.setup (Clock.now_ns () - t0);
  let steps = kill_steps seed sched in
  let m = mark () in
  Array.iter
    (fun step ->
      let t0 = Clock.now_ns () in
      let root = match probe.tr with Some tr -> Trace.begin_op tr | None -> -1 in
      let sp = match probe.tr with Some tr -> Trace.child tr Trace.Run_plan root | None -> -1 in
      let ok, r =
        match Fault.Sweep.run_plan case sched [ Fault.Plan.kill step ] with
        | verdict, r -> (verdict = None, Some r)
        | exception _ -> (false, None)
      in
      (match probe.tr with
      | Some tr ->
          Trace.close tr sp;
          Trace.close tr root
      | None -> ());
      record acc t0 ok;
      match r with
      | Some r ->
          note_run acc 1 (Clock.now_ns () - t0) r;
          layers.sweep_steps <- layers.sweep_steps + r.Runtime.steps;
          layers.sweep_runs <- layers.sweep_runs + 1;
          if r.Runtime.injections > 0 then layers.sweep_applied <- layers.sweep_applied + 1
      | None -> ())
    steps;
  end_phase acc m (Array.length steps)

(* ---- explore_timeout ----------------------------------------------------- *)

let explore_ops = 4

(* C4d: timeout 10 (return 5), with the result unwrapped to 5 or 0. *)
let timeout_claim () =
  let parse = Ch_lang.Parser.parse in
  Ch_semantics.State.initial
    (Ch_lang.Term.Bind
       ( Ch_lang.Term.apps Ch_corpus.Combinators.timeout_t
           [ Ch_lang.Term.Lit_int 10; parse "return 5" ],
         parse "\\r -> case r of { Just x -> return x; Nothing -> return 0 }" ))

(* the configuration C4d is checked under in test/test_claims.ml *)
let step_config =
  { Ch_semantics.Step.default_config with Ch_semantics.Step.fuel = 20_000; stuck_io = false }

let expected_kinds =
  List.sort compare
    [ Ch_explore.Space.Completed (Ch_semantics.State.Done (Ch_lang.Term.Lit_int 5));
      Ch_explore.Space.Completed (Ch_semantics.State.Done (Ch_lang.Term.Lit_int 0)) ]

(* Time the semantics layer's two per-state calls on the states one
   exploration visited. *)
let time_semantics states =
  let t0 = Clock.now_ns () in
  List.iter (fun s -> ignore (Ch_semantics.Step.enumerate ~config:step_config s)) states;
  let t1 = Clock.now_ns () in
  List.iter (fun s -> ignore (Ch_semantics.State.canonical_key s)) states;
  let t2 = Clock.now_ns () in
  layers.enum_ns <- layers.enum_ns + (t1 - t0);
  layers.key_ns <- layers.key_ns + (t2 - t1);
  layers.sem_states <- layers.sem_states + List.length states

let explore_round acc probe =
  let m = mark () in
  let seen = ref [] in
  let watch =
    match probe.tr with
    | None -> None
    | Some _ ->
        Some
          (fun s ->
            seen := s :: !seen;
            false)
  in
  for _ = 1 to explore_ops do
    seen := [];
    (* A fresh initial state per op: every state the search reaches
       shares its subterms, so where they sit in the heap sets the op's
       speed; building it per op spreads that over the run's ops. *)
    let t0 = Clock.now_ns () in
    let init = timeout_claim () in
    Samples.add acc.setup (Clock.now_ns () - t0);
    let t0 = Clock.now_ns () in
    let root = match probe.tr with Some tr -> Trace.begin_op tr | None -> -1 in
    let sp = match probe.tr with Some tr -> Trace.child tr Trace.Explore root | None -> -1 in
    let res = Ch_explore.Space.explore ~config:step_config ~jobs:1 ?watch init in
    (match probe.tr with
    | Some tr ->
        Trace.close tr sp;
        Trace.close tr root
    | None -> ());
    let ok =
      (not res.Ch_explore.Space.truncated)
      && List.sort compare (Ch_explore.Space.terminal_kinds res) = expected_kinds
    in
    record acc t0 ok;
    layers.states <- layers.states + res.Ch_explore.Space.visited;
    layers.edges <- layers.edges + res.Ch_explore.Space.edges;
    layers.explores <- layers.explores + 1;
    layers.explore_ns <- layers.explore_ns + (Clock.now_ns () - t0);
    (* outside the op's time: re-time the semantics on a few ops' states *)
    if probe.tr <> None && layers.sem_states < 3 * res.Ch_explore.Space.visited then
      time_semantics !seen
  done;
  end_phase acc m explore_ops

(* ---- main ---------------------------------------------------------------- *)

(* [op_tail_us] is this percentile for every workload: p90 leaves
   hundreds of samples beyond it in each run, and between runs on a
   2-vCPU VM it spread 6-11% where p99 spread 14-24% (NOTES.md). *)
let tail_q = 0.9

type workload = {
  w_name : string;
  ops_per_round : int;
  max_rate : int;  (** ops/s the sample buffers are sized for *)
  make_round : int -> acc -> probe -> unit;  (** from the seed *)
}

let workloads =
  [
    {
      w_name = "tcp_keepalive";
      ops_per_round = tcp_conns * tcp_reqs;
      max_rate = 60_000;
      make_round = (fun _ -> tcp_round (Ev.Real.create ()));
    };
    {
      w_name = "shard_churn";
      ops_per_round = shard_clients * shard_ops;
      max_rate = 20_000;
      make_round = (fun seed -> shard_round (shard_keys seed));
    };
    {
      w_name = "sweep_kill";
      ops_per_round = sweep_points;
      max_rate = 5_000;
      make_round = sweep_round;
    };
    {
      w_name = "explore_timeout";
      ops_per_round = explore_ops;
      max_rate = 100;
      make_round = (fun _ -> explore_round);
    };
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload tcp_keepalive|shard_churn|sweep_kill|explore_timeout \
     --seed N --seconds S --trace 0|1";
  exit 2

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_of_string v; parse tl
    | "--seconds" :: v :: tl -> seconds := int_of_string v; parse tl
    | "--trace" :: v :: tl -> trace := int_of_string v; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let seed = !seed and traced_run = !trace = 1 in
  let cap = (w.max_rate * !seconds) + (2 * w.ops_per_round) in
  let plain = new_acc cap in
  let traced = new_acc (if traced_run then cap else 1) in
  let tr = if traced_run then Some (Trace.create (2 * cap)) else None in
  let tap = Evtap.create () in
  let round = w.make_round seed in
  let deadline = Clock.now_ns () + (!seconds * 1_000_000_000) in
  (* The heap peak of the first round: a fixed amount of work, so that
     on the simulated workloads it repeats exactly, where a peak taken
     over a time-bounded run would depend on how many rounds fitted. *)
  let top_heap_words = ref 0 in
  let rec loop i =
    let trace_this = traced_run && i mod 2 = 1 in
    if trace_this then round traced { tr; tap = Some tap } else round plain untraced;
    if i = 0 then top_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    let full =
      Samples.full plain.lat
      || Samples.full traced.lat
      || match tr with Some t -> Trace.full t | None -> false
    in
    if (Clock.now_ns () < deadline || (traced_run && i < 1)) && not full then loop (i + 1)
  in
  loop 0;
  let ok = plain.attempted - plain.failed + (traced.attempted - traced.failed) in
  let attempted = plain.attempted + traced.attempted in
  let failed = plain.failed + traced.failed in
  let per_op acc x = x /. float_of_int (max 1 acc.attempted) in
  let ops_per_s acc =
    float_of_int (acc.attempted - acc.failed) /. (float_of_int (max 1 acc.timed_ns) /. 1e9)
  in
  let metrics =
    if not traced_run then begin
      let lat = Samples.sorted plain.lat in
      [
        ("ops_per_s", ops_per_s plain, "1/s");
        ("op_p50_us", Samples.quantile_sorted lat 0.5 /. 1e3, "us");
        ("op_tail_us", Samples.quantile_sorted lat tail_q /. 1e3, "us");
        ("setup_s", Samples.quantile plain.setup 0.5 /. 1e9, "s");
        ("peak_heap_mb", float_of_int (!top_heap_words * (Sys.word_size / 8)) /. 1e6, "MB");
        ("alloc_words_per_op", Samples.median_float plain.words_per_op, "words");
        ("ok_ratio", float_of_int ok /. float_of_int (max 1 attempted), "ratio");
      ]
    end
    else begin
      let t = Option.get tr in
      let b = Trace.breakdown t in
      let run_per_op x = x /. float_of_int (max 1 plain.run_ops) in
      let tr_ops = float_of_int (max 1 traced.attempted) in
      let med s = Samples.quantile s 0.5 /. 1e3 in
      let st = float_of_int (max 1 layers.states) in
      let sem = float_of_int (max 1 layers.sem_states) in
      [
        ("runtime.steps_per_op", run_per_op (float_of_int plain.steps), "steps");
        ("runtime.forks_per_op", run_per_op (float_of_int plain.forks), "threads");
        ("runtime.threads_retained", float_of_int plain.threads, "threads");
        ( "runtime.ns_per_step",
          (if plain.steps = 0 then 0. else float_of_int plain.run_ns /. float_of_int plain.steps),
          "ns" );
        ("gc.promoted_words_per_op", per_op plain plain.promoted, "words");
        ("gc.major_collections", float_of_int plain.majors, "count");
        ("ev.wait_calls_per_op", float_of_int tap.Evtap.wait_calls /. tr_ops, "calls");
        ("ev.wait_us_per_op", float_of_int tap.Evtap.wait_ns /. 1e3 /. tr_ops, "us");
        ("ev.modify_calls_per_op", float_of_int tap.Evtap.modify_calls /. tr_ops, "calls");
        ("ev.recv_calls_per_op", float_of_int tap.Evtap.recv_calls /. tr_ops, "calls");
        ("ev.send_calls_per_op", float_of_int tap.Evtap.send_calls /. tr_ops, "calls");
        ("ev.bytes_per_op", float_of_int tap.Evtap.bytes /. tr_ops, "bytes");
        ("ev.dial_us", med tap.Evtap.dial, "us");
        ("ev.accept_us", med tap.Evtap.accept, "us");
        ("http.write_request_us", Trace.median_us t Trace.Write_request, "us");
        ("http.read_response_us", Trace.median_us t Trace.Read_response, "us");
        ("server.to_handler_us", b.Trace.to_handler_us, "us");
        ("server.from_handler_us", b.Trace.from_handler_us, "us");
        ("shard.connect_us", Trace.median_us t Trace.Shard_connect, "us");
        ("actor.mailbox_high_water", float_of_int layers.mailbox_hw, "messages");
        ("server.in_flight_max", float_of_int layers.in_flight_max, "requests");
        ("sup.restarts", float_of_int layers.restarts, "count");
        ( "sweep.steps_per_point",
          float_of_int layers.sweep_steps /. float_of_int (max 1 layers.sweep_runs),
          "steps" );
        ( "sweep.applied_ratio",
          float_of_int layers.sweep_applied /. float_of_int (max 1 layers.sweep_runs),
          "ratio" );
        ( "explore.states_per_op",
          float_of_int layers.states /. float_of_int (max 1 layers.explores),
          "states" );
        ( "explore.edges_per_op",
          float_of_int layers.edges /. float_of_int (max 1 layers.explores),
          "edges" );
        ("explore.us_per_state", float_of_int layers.explore_ns /. 1e3 /. st, "us");
        ("semantics.enumerate_us_per_state", float_of_int layers.enum_ns /. 1e3 /. sem, "us");
        ("semantics.canonical_key_us_per_state", float_of_int layers.key_ns /. 1e3 /. sem, "us");
        ( "trace.overhead",
          (let t = ops_per_s traced in
           if t > 0. then (ops_per_s plain /. t) -. 1. else 0.),
          "ratio" );
        ("trace.unattributed_us_per_op", b.Trace.unattributed_us, "us");
      ]
    end
  in
  (match tr with
  | Some t ->
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      Trace.write t (Printf.sprintf "perfbench/out/%s.spans.tsv" w.w_name)
  | None -> ());
  let total_ops = attempted in
  Printf.printf
    "# env {\"nproc\": %d, \"ocaml\": %S, \"readiness\": %S, \"network\": \"loopback\", \
     \"commit\": %S, \"workload\": %S, \"seed\": %d, \"ops_per_round\": %d, \"rounds\": %d, \
     \"ops\": %d, \"tail_percentile\": %g, \"latency_samples\": %d}\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (Ev.Real.readiness ())
    (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown")
    w.w_name seed w.ops_per_round (plain.rounds + traced.rounds) total_ops
    (tail_q *. 100.) (Samples.length plain.lat);
  List.iter (fun (n, v, u) -> Printf.printf "# %-36s %16.4f %s\n" n v u) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && attempted > 0)
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
          metrics))
