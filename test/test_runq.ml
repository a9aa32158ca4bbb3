(* Tests for the O(1) run queue (lib/core/runq.ml) and the scheduler
   properties it must preserve:
   - the ring deque behaves like a FIFO list under push/pop/remove
     (unit cases + a QCheck model-based property);
   - round-robin order survives fork and unblock storms (steady-state
     appends are periodic with each lap a fixed permutation of the
     threads);
   - the Random policy is deterministic for a fixed seed;
   - per-thread step counts sum to [result.steps]. *)

open Hio
open Hio.Io
open Helpers

let int_v = Alcotest.int
let int_list = Alcotest.(list int)

(* --- the Runq module itself ---------------------------------------------- *)

let runq_unit_tests =
  [
    case "create is empty" (fun () ->
        let q = Runq.create () in
        Alcotest.check Alcotest.bool "empty" true (Runq.is_empty q);
        Alcotest.check int_v "len" 0 (Runq.length q));
    case "push/pop is FIFO across growth" (fun () ->
        let q = Runq.create () in
        for i = 0 to 99 do
          Runq.push q i
        done;
        let out = List.init 100 (fun _ -> Runq.pop q) in
        Alcotest.check int_list "order" (List.init 100 Fun.id) out;
        Alcotest.check Alcotest.bool "drained" true (Runq.is_empty q));
    case "wraparound: interleaved push/pop beyond capacity" (fun () ->
        let q = Runq.create () in
        (* stays at <= 3 elements, but the head index laps the buffer many
           times *)
        let next_in = ref 0 and next_out = ref 0 in
        for _ = 1 to 500 do
          Runq.push q !next_in;
          incr next_in;
          Runq.push q !next_in;
          incr next_in;
          Alcotest.check int_v "fifo" !next_out (Runq.pop q);
          incr next_out;
          Alcotest.check int_v "fifo" !next_out (Runq.pop q);
          incr next_out
        done);
    case "pop on empty raises" (fun () ->
        let q = Runq.create () in
        (match Runq.pop q with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
        Runq.push q 1;
        ignore (Runq.pop q);
        match Runq.pop q with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    case "remove out of bounds raises" (fun () ->
        let q = Runq.create () in
        Runq.push q 1;
        (match Runq.remove q 1 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
        match Runq.remove q (-1) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    case "remove preserves the order of the rest" (fun () ->
        (* removing index i must behave exactly like List.filteri on the
           seed's list queue — both halves of the shift are exercised *)
        List.iter
          (fun i ->
            let q = Runq.create () in
            for x = 0 to 9 do
              Runq.push q x
            done;
            Alcotest.check int_v "removed" i (Runq.remove q i);
            let expect = List.filter (fun x -> x <> i) (List.init 10 Fun.id) in
            Alcotest.check int_list "rest in order" expect (Runq.to_list q))
          [ 0; 1; 4; 5; 8; 9 ]);
    case "remove works after the head has wrapped" (fun () ->
        let q = Runq.create () in
        for x = 0 to 15 do
          Runq.push q x
        done;
        for _ = 0 to 11 do
          ignore (Runq.pop q)
        done;
        for x = 16 to 23 do
          Runq.push q x
        done;
        (* queue is [12..23], head near the end of the 16-slot buffer *)
        Alcotest.check int_v "mid" 15 (Runq.remove q 3);
        Alcotest.check int_list "rest"
          [ 12; 13; 14; 16; 17; 18; 19; 20; 21; 22; 23 ]
          (Runq.to_list q));
    case "pop_back takes the newest element" (fun () ->
        let q = Runq.create () in
        for x = 0 to 9 do
          Runq.push q x
        done;
        Alcotest.check int_v "back" 9 (Runq.pop_back q);
        Alcotest.check int_v "back" 8 (Runq.pop_back q);
        Alcotest.check int_v "front" 0 (Runq.pop q);
        Alcotest.check int_list "rest" [ 1; 2; 3; 4; 5; 6; 7 ]
          (Runq.to_list q));
    case "pop_back works after the head has wrapped" (fun () ->
        let q = Runq.create () in
        for x = 0 to 15 do
          Runq.push q x
        done;
        for _ = 0 to 11 do
          ignore (Runq.pop q)
        done;
        for x = 16 to 23 do
          Runq.push q x
        done;
        (* queue is [12..23], tail wrapped past the buffer end *)
        let back = List.init 4 (fun _ -> Runq.pop_back q) in
        Alcotest.check int_list "newest first" [ 23; 22; 21; 20 ] back;
        Alcotest.check int_list "rest" [ 12; 13; 14; 15; 16; 17; 18; 19 ]
          (Runq.to_list q));
    case "growth past a rotated head forces no minor collection" (fun () ->
        (* [Array.make] of more than 256 slots with a young filler forces
           a minor collection; growing by appending the full ring to
           itself allocates the same array without one *)
        let q = Runq.create () in
        for x = 0 to 9 do
          Runq.push q (ref x)
        done;
        for _ = 0 to 9 do
          ignore (Runq.pop q)
        done;
        Gc.minor ();
        let before = (Gc.quick_stat ()).Gc.minor_collections in
        for x = 0 to 1_999 do
          Runq.push q (ref x)
        done;
        let after = (Gc.quick_stat ()).Gc.minor_collections in
        Alcotest.check int_v "minor collections" 0 (after - before);
        let out = List.init 2_000 (fun _ -> !(Runq.pop q)) in
        Alcotest.check int_list "fifo" (List.init 2_000 Fun.id) out);
    case "pop_back on empty raises" (fun () ->
        let q = Runq.create () in
        (match Runq.pop_back q with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
        Runq.push q 1;
        Alcotest.check int_v "one" 1 (Runq.pop_back q);
        match Runq.pop_back q with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* Model-based property: an arbitrary sequence of push/pop/remove agrees
   with the obvious list model. *)
let runq_model_prop =
  let gen_ops = QCheck2.Gen.(list_size (int_bound 200) (int_bound 99)) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"runq agrees with a list model" ~count:300 gen_ops
       (fun codes ->
         let q = Runq.create () in
         let model = ref [] in
         let counter = ref 0 in
         List.for_all
           (fun code ->
             (* 0-59: push a fresh value; 60-79: pop; 80-99: remove at a
                pseudo-random valid index *)
             if code < 60 || !model = [] then begin
               incr counter;
               Runq.push q !counter;
               model := !model @ [ !counter ];
               true
             end
             else if code < 80 then begin
               let expect = List.hd !model in
               model := List.tl !model;
               Runq.pop q = expect
             end
             else begin
               let i = code mod List.length !model in
               let expect = List.nth !model i in
               model := List.filteri (fun j _ -> j <> i) !model;
               Runq.remove q i = expect && Runq.to_list q = !model
             end)
           codes
         && Runq.to_list q = !model))

(* --- round-robin order preservation -------------------------------------- *)

(* [storm_appends n rounds ~unblock_storm] forks [n] identical workers;
   worker [i] appends [i] to a shared buffer [rounds] times (each append
   optionally wrapped in [unblock], inside a [block] scope, so mask frames
   are pushed/collapsed continually). Returns the append sequence. *)
let storm_appends n rounds ~unblock_storm =
  let appends = ref [] in
  let started = ref false in
  let prog =
    Mvar.new_empty >>= fun done_mv ->
    let worker i =
      let append = lift (fun () -> appends := i :: !appends) in
      let step = if unblock_storm then block (unblock append) else append in
      let rec go r =
        if r = 0 then Mvar.put done_mv () else step >>= fun () -> go (r - 1)
      in
      (* spin on the gate so every worker starts its append loop within one
         lap of the others — the appends before main finishes forking would
         otherwise be a staggered (non-cyclic) warm-up *)
      let rec wait () =
        lift (fun () -> !started) >>= fun b -> if b then go rounds else wait ()
      in
      wait ()
    in
    let rec spawn i =
      if i = n then return () else fork (worker i) >>= fun _ -> spawn (i + 1)
    in
    spawn 0 >>= fun () ->
    lift (fun () -> started := true) >>= fun () ->
    let rec collect i =
      if i = n then return () else Mvar.take done_mv >>= fun () -> collect (i + 1)
    in
    collect 0
  in
  (match (Helpers.run prog).Runtime.outcome with
  | Runtime.Value () -> ()
  | o -> Alcotest.failf "storm did not finish: %a" (Runtime.pp_outcome Fmt.nop) o);
  List.rev !appends

(* Steady state of a round-robin schedule over identical workers: the
   append sequence is periodic with period [n], and one period contains
   every worker exactly once. (Workers start at staggered offsets while
   main is still forking, so the first few laps are warm-up.) *)
let check_cyclic ~n ~rounds seq =
  Alcotest.check int_v "total appends" (n * rounds) (List.length seq);
  let tail = Array.of_list seq in
  let len = Array.length tail in
  let start = 2 * n in
  (* one period is a permutation of 0..n-1 *)
  let period = Array.sub tail start n in
  let sorted = Array.copy period in
  Array.sort compare sorted;
  Alcotest.check int_list "lap is a permutation"
    (List.init n Fun.id)
    (Array.to_list sorted);
  (* and it repeats exactly until the storm winds down *)
  for j = start to len - n - 1 do
    if tail.(j) <> tail.(j + n) then
      Alcotest.failf "order drift at append %d: t%d then t%d a lap later" j
        tail.(j)
        tail.(j + n)
  done

let order_tests =
  [
    case "round-robin laps are stable under a fork storm" (fun () ->
        check_cyclic ~n:25 ~rounds:40
          (storm_appends 25 40 ~unblock_storm:false));
    case "round-robin laps are stable under an unblock storm" (fun () ->
        check_cyclic ~n:25 ~rounds:40 (storm_appends 25 40 ~unblock_storm:true));
  ]

(* --- random-policy determinism ------------------------------------------- *)

let interleaved_output seed =
  let prog =
    Mvar.new_empty >>= fun done_mv ->
    let worker c =
      let rec go r =
        if r = 0 then Mvar.put done_mv ()
        else put_char c >>= fun () -> go (r - 1)
      in
      go 10
    in
    fork (worker 'a') >>= fun _ ->
    fork (worker 'b') >>= fun _ ->
    fork (worker 'c') >>= fun _ ->
    Mvar.take done_mv >>= fun () ->
    Mvar.take done_mv >>= fun () -> Mvar.take done_mv
  in
  let r = Helpers.run_seed seed prog in
  (match r.Runtime.outcome with
  | Runtime.Value () -> ()
  | _ -> Alcotest.fail "random run did not finish");
  (r.Runtime.output, r.Runtime.steps)

let random_tests =
  [
    case "fixed seed gives identical output and step count" (fun () ->
        let o1, s1 = interleaved_output 42 in
        let o2, s2 = interleaved_output 42 in
        Alcotest.check Alcotest.string "output" o1 o2;
        Alcotest.check int_v "steps" s1 s2);
    case "another seed is reproducible too" (fun () ->
        let o1, s1 = interleaved_output 7 in
        let o2, s2 = interleaved_output 7 in
        Alcotest.check Alcotest.string "output" o1 o2;
        Alcotest.check int_v "steps" s1 s2);
  ]

(* --- per-thread step accounting ------------------------------------------ *)

let sum_steps r =
  List.fold_left (fun acc ts -> acc + ts.Runtime.ts_steps) 0 r.Runtime.thread_stats

let storm_prog () =
  Mvar.new_empty >>= fun done_mv ->
  let worker _i =
    let rec go r =
      if r = 0 then Mvar.put done_mv () else yield >>= fun () -> go (r - 1)
    in
    go 5
  in
  let rec spawn i =
    if i = 0 then return () else fork (worker i) >>= fun _ -> spawn (i - 1)
  in
  spawn 10 >>= fun () ->
  let rec collect i =
    if i = 0 then return () else Mvar.take done_mv >>= fun () -> collect (i - 1)
  in
  collect 10

let stats_tests =
  [
    case "thread step counts sum to result.steps (fork storm)" (fun () ->
        let r = Helpers.run (ignore_result (storm_prog ())) in
        Alcotest.check int_v "sum" r.Runtime.steps (sum_steps r);
        Alcotest.check int_v "one stat per thread" r.Runtime.forks
          (List.length r.Runtime.thread_stats));
    case "thread step counts sum to result.steps (random policy)" (fun () ->
        let r = Helpers.run_seed 42 (ignore_result (storm_prog ())) in
        Alcotest.check int_v "sum" r.Runtime.steps (sum_steps r));
    case "blocked and delivered counters record what happened" (fun () ->
        let r =
          Helpers.run
            ( Mvar.new_empty >>= fun mv ->
              fork ~name:"victim" (Mvar.take mv) >>= fun t ->
              yield >>= fun () ->
              throw_to t Kill_thread >>= fun () -> yield )
        in
        Alcotest.check int_v "sum" r.Runtime.steps (sum_steps r);
        let victim =
          List.find
            (fun ts -> ts.Runtime.ts_name = Some "victim")
            r.Runtime.thread_stats
        in
        Alcotest.check Alcotest.bool "victim blocked at takeMVar" true
          (victim.Runtime.ts_blocked >= 1);
        Alcotest.check int_v "one delivery into the victim" 1
          victim.Runtime.ts_delivered;
        let main = List.hd r.Runtime.thread_stats in
        Alcotest.check int_v "main saw no delivery" 0 main.Runtime.ts_delivered);
    case "stats are in ascending thread id" (fun () ->
        let r = Helpers.run (ignore_result (storm_prog ())) in
        let ids = List.map (fun ts -> ts.Runtime.ts_id) r.Runtime.thread_stats in
        Alcotest.check int_list "sorted" (List.sort compare ids) ids);
  ]

let suites =
  [
    ("runq:deque", runq_unit_tests @ [ runq_model_prop ]);
    ("runq:round-robin-order", order_tests);
    ("runq:random-determinism", random_tests);
    ("runq:thread-stats", stats_tests);
  ]
