open Hio.Io

type op = Send | Recv | Accept | Dial

type fault =
  | Eof
  | Reset
  | Short_write of int
  | Delay of int
  | Trickle of int

type rule = { r_op : op; r_at : int; r_fault : fault }
type plan = rule list

let all_ops = [ Send; Recv; Accept; Dial ]

let op_index = function
  | Send -> 0
  | Recv -> 1
  | Accept -> 2
  | Dial -> 3

let op_label = function
  | Send -> "send"
  | Recv -> "recv"
  | Accept -> "accept"
  | Dial -> "dial"

let fault_label = function
  | Eof -> "eof"
  | Reset -> "reset"
  | Short_write n -> Printf.sprintf "short%d" n
  | Delay n -> Printf.sprintf "delay%d" n
  | Trickle n -> Printf.sprintf "trickle%d" n

let pp_rule ppf r =
  Format.fprintf ppf "%s@%d:%s" (op_label r.r_op) r.r_at
    (fault_label r.r_fault)

(* ---- resource plans ----------------------------------------------------

   Deterministic resource exhaustion, orthogonal to the fault plan: an
   fd budget shared by accept and dial (EMFILE), a listener backlog cap
   (dialled-but-not-yet-accepted connections), and a per-send byte cap
   (the send-buffer overrun). Denials are ordinary exceptions on the
   attacked operation; the budget recovers as counted connections
   close. With [no_resources] (the default) the wrapped backend takes
   exactly the same scheduler steps as before, so fault-only plans and
   their recorded site baselines are unaffected. *)

type resources = {
  fd_budget : int option;
      (* max live conns created through the wrapped listener *)
  backlog_cap : int option; (* max dialled-not-yet-accepted conns *)
  send_cap : int option; (* max bytes a single send may carry *)
}

let no_resources = { fd_budget = None; backlog_cap = None; send_cap = None }

type ctl = {
  plan : rule list;
  counts : int array; (* per-op armed sites reached, indexed by op_index *)
  mutable armed : bool;
  mutable injections : (op * int * fault) list; (* newest first *)
  (* Sticky per-conn trickle cells, so [disarm] can silence a trickling
     connection mid-read. *)
  mutable trickles : int ref list;
  metrics : Obs.Metrics.t option;
  resources : resources;
  mutable live : int; (* conns from the wrapped listener, minus closes *)
  mutable pending : int; (* dialled, not yet accepted *)
}

let create ?metrics ?(resources = no_resources) plan =
  {
    plan;
    counts = Array.make (List.length all_ops) 0;
    armed = true;
    injections = [];
    trickles = [];
    metrics;
    resources;
    live = 0;
    pending = 0;
  }

(* One atomic step: number this op occurrence, look it up in the plan,
   log + count any hit. Runs inside [lift] so site numbering follows
   scheduler order exactly. *)
let decide ctl op =
  if not ctl.armed then None
  else begin
    let i = op_index op in
    let site = ctl.counts.(i) in
    ctl.counts.(i) <- site + 1;
    match
      List.find_opt (fun r -> r.r_op = op && r.r_at = site) ctl.plan
    with
    | None -> None
    | Some r ->
        ctl.injections <- (op, site, r.r_fault) :: ctl.injections;
        (match ctl.metrics with
        | None -> ()
        | Some m ->
            Obs.Metrics.inc
              (Obs.Metrics.counter m
                 ~labels:
                   [ ("kind", fault_label r.r_fault); ("op", op_label op) ]
                 "chaos_injected_total"));
        Some r.r_fault
  end

(* Count a resource denial (pure; runs inside the op's decision lift). *)
let deny ctl kind =
  match ctl.metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.inc
        (Obs.Metrics.counter m ~labels:[ ("kind", kind) ]
           "chaos_resource_denied_total")

(* Does any resource limit exist at all? When not, the decorator takes
   the exact pre-resource step counts — the pass-through invariant the
   recorded fault-sweep baselines rely on. *)
let tracks ctl = ctl.resources <> no_resources

let disarm ctl =
  lift (fun () ->
      ctl.armed <- false;
      List.iter (fun t -> t := 0) ctl.trickles;
      ctl.trickles <- [])

let site_counts ctl =
  List.map (fun op -> (op, ctl.counts.(op_index op))) all_ops

let injected ctl = List.rev ctl.injections

(* ---- the decorator ---------------------------------------------------- *)

let wrap_conn_gen ctl ~counted (c : Backend.conn) =
  let trickle = ref 0 in
  let pre op = lift (fun () -> decide ctl op) in
  (* A trickling conn delivers one byte per [d] µs until [disarm]. *)
  let trickled ~upto ~max =
    lift (fun () -> if ctl.armed then !trickle else 0) >>= fun d ->
    if d > 0 then sleep d >>= fun () -> c.Backend.c_recv ~upto ~max:1
    else c.Backend.c_recv ~upto ~max
  in
  let send s =
    (* One atomic decision step: the fault plan first, then the
       send-buffer cap — same step count as before when neither bites. *)
    lift (fun () ->
        match decide ctl Send with
        | Some f -> `Fault f
        | None -> (
            match ctl.resources.send_cap with
            | Some cap when ctl.armed && String.length s > cap ->
                deny ctl "sendbuf";
                `Cap cap
            | _ -> `Ok))
    >>= function
    | `Ok -> c.Backend.c_send s
    | `Cap cap ->
        (* EMSGSIZE-ish: the capped prefix goes out, then the overrun
           surfaces — transient, unlike [Short_write]'s reset. *)
        c.Backend.c_send (String.sub s 0 cap) >>= fun () ->
        throw Backend.Buffer_full
    | `Fault Eof -> throw End_of_file
    | `Fault Reset -> throw Backend.Connection_reset
    | `Fault (Short_write n) ->
        let n = min (max n 0) (String.length s) in
        c.Backend.c_send (String.sub s 0 n) >>= fun () ->
        throw Backend.Connection_reset
    | `Fault (Delay d) -> sleep d >>= fun () -> c.Backend.c_send s
    | `Fault (Trickle d) ->
        let rec go i =
          if i >= String.length s then return ()
          else
            sleep d >>= fun () ->
            c.Backend.c_send (String.make 1 s.[i]) >>= fun () -> go (i + 1)
        in
        go 0
  in
  let recv ~upto ~max =
    pre Recv >>= function
    | None -> trickled ~upto ~max
    | Some Eof -> throw End_of_file
    | Some (Reset | Short_write _) -> throw Backend.Connection_reset
    | Some (Delay d) -> sleep d >>= fun () -> c.Backend.c_recv ~upto ~max
    | Some (Trickle d) ->
        lift (fun () ->
            trickle := d;
            ctl.trickles <- trickle :: ctl.trickles)
        >>= fun () ->
        sleep d >>= fun () -> c.Backend.c_recv ~upto ~max:1
  in
  let close =
    (* Close is never faulted: teardown must stay reliable or every
       cleanup path would have to defend against its own bracket. A
       counted conn releases its fd-budget slot exactly once. *)
    if counted then (
      let live = ref true in
      fun () ->
        lift (fun () ->
            if !live then begin
              live := false;
              ctl.live <- ctl.live - 1
            end)
        >>= fun () -> c.Backend.c_close ())
    else c.Backend.c_close
  in
  Backend.make_conn ~send ~recv ~try_recv:c.Backend.c_try_recv ~close
    ~fd:c.Backend.c_fd

let wrap_conn ctl c = wrap_conn_gen ctl ~counted:false c

let wrap_listener ctl (l : Backend.listener) =
  let track = tracks ctl in
  (* The accept/dial decision is one atomic step: the fault plan first
     (site numbering unchanged), then the resource budgets. Accounting
     lifts only exist when a resource plan is present, so fault-only
     plans keep their recorded step baselines. *)
  let accepted () =
    if track then
      l.Backend.l_accept () >>= fun c ->
      lift (fun () ->
          ctl.live <- ctl.live + 1;
          ctl.pending <- max 0 (ctl.pending - 1))
      >>= fun () -> return (wrap_conn_gen ctl ~counted:true c)
    else l.Backend.l_accept () >>= fun c -> return (wrap_conn ctl c)
  in
  let dialed () =
    if track then
      l.Backend.l_dial () >>= fun c ->
      lift (fun () ->
          ctl.live <- ctl.live + 1;
          ctl.pending <- ctl.pending + 1)
      >>= fun () -> return (wrap_conn_gen ctl ~counted:true c)
    else l.Backend.l_dial () >>= fun c -> return (wrap_conn ctl c)
  in
  let accept () =
    lift (fun () ->
        match decide ctl Accept with
        | Some f -> `Fault f
        | None -> (
            if not (ctl.armed && track) then `Ok
            else
              match ctl.resources.fd_budget with
              | Some b when ctl.live >= b ->
                  deny ctl "fd";
                  `Deny
              | _ -> `Ok))
    >>= function
    | `Deny -> throw Backend.Too_many_fds
    | `Fault (Eof | Reset | Short_write _) -> throw Backend.Accept_failed
    | `Fault (Delay d | Trickle d) -> sleep d >>= fun () -> accepted ()
    | `Ok -> accepted ()
  in
  let dial () =
    lift (fun () ->
        match decide ctl Dial with
        | Some f -> `Fault f
        | None -> (
            if not (ctl.armed && track) then `Ok
            else
              match ctl.resources.backlog_cap with
              | Some cap when ctl.pending >= cap ->
                  deny ctl "backlog";
                  `Refuse
              | _ -> (
                  match ctl.resources.fd_budget with
                  | Some b when ctl.live >= b ->
                      deny ctl "fd";
                      `Deny
                  | _ -> `Ok)))
    >>= function
    | `Refuse -> throw Backend.Connection_refused
    | `Deny -> throw Backend.Too_many_fds
    | `Fault (Eof | Reset | Short_write _) -> throw Backend.Connection_refused
    | `Fault (Delay d | Trickle d) -> sleep d >>= fun () -> dialed ()
    | `Ok -> dialed ()
  in
  {
    Backend.l_accept = accept;
    l_dial = dial;
    l_close = l.Backend.l_close;
    l_port = l.Backend.l_port;
  }

let wrap ctl (b : Backend.t) =
  {
    b with
    Backend.b_listen =
      (fun ~backlog ->
        b.Backend.b_listen ~backlog >>= fun l ->
        return (wrap_listener ctl l));
  }

(* ---- the faults a sweep tries at each site of an op ------------------- *)

let default_faults = function
  | Send -> [ Eof; Reset; Short_write 2; Delay 50; Trickle 25 ]
  | Recv -> [ Eof; Reset; Delay 50; Trickle 25 ]
  | Accept -> [ Reset; Delay 50 ]
  | Dial -> [ Reset; Delay 50 ]
