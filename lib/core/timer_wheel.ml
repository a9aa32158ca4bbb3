(* A hierarchical timer wheel (Varghese & Lauck), tuned for the two ways
   this runtime consumes time:

   - the simulated clock jumps straight to the next live deadline when no
     thread is runnable, so [next_deadline] must be {e exact} — the golden
     traces pin "clock -> 5us", not "clock -> somewhere in slot 0";
   - the real event manager asks "how long may epoll_wait sleep", which is
     the same exact query; and arms/cancels must be O(1) so 100k+
     concurrent [sleep]/[timeout] registrations do not degenerate into the
     old O(n) list scan.

   Four levels of 256 slots each, 1 tick = 1 microsecond, indexed by the
   {e absolute} deadline: an entry with deadline [d] lives at level [i],
   slot [(d lsr (8*i)) land 255], where [i] is the lowest level whose
   epoch still contains [d] (an entry due within the current 256-tick
   level-0 epoch sits at level 0, one due within the current 65536-tick
   level-1 epoch at level 1, and so on). Deadlines beyond the level-3
   horizon (2^32 ticks) wait in an overflow list. Advancing the wheel
   cascades the now-current slot of each higher level back down, so the
   invariant "each level's remaining slots hold exactly this epoch's
   deadlines, in slot order" is maintained — that is what makes the
   next-deadline scan a bounded slot walk instead of a heap or a list
   scan.

   Cancellation is lazy: [cancel] flips a flag and decrements the live
   count; the carcass is dropped the next time its slot is drained. Firing
   order inside one deadline cohort is descending insertion sequence,
   which reproduces the seed runtime's reverse-insertion wake order for
   same-deadline timers (the old list consed newest-first), keeping the
   golden traces byte-identical. *)

type 'a entry = {
  e_deadline : int;
  e_seq : int;
  e_payload : 'a;
  mutable e_cancelled : bool;
}

type 'a t = {
  mutable cur : int;  (* current tick: all live deadlines are >= cur *)
  mutable seq : int;  (* insertion counter, for cohort ordering *)
  mutable live : int;  (* entries added minus cancelled minus fired *)
  levels : 'a entry list array array;  (* levels.(i).(slot), unordered *)
  mutable overflow : 'a entry list;  (* deadlines beyond the level-3 horizon *)
}

let bits = 8
let slots = 1 lsl bits (* 256 *)
let levels = 4
let horizon = 1 lsl (bits * levels) (* 2^32 ticks *)

let create ?(start = 0) () =
  {
    cur = start;
    seq = 0;
    live = 0;
    levels = Array.init levels (fun _ -> Array.make slots []);
    overflow = [];
  }

let live t = t.live

let index ~level d = (d lsr (bits * level)) land (slots - 1)

(* The level whose current epoch contains [d]: the lowest [i] such that
   [d] and [cur] agree on all bits above the level's 8-bit slot index.
   Returns [levels] for the overflow list. *)
let level_for t d =
  let rec go i =
    if i >= levels then levels
    else if d lsr (bits * (i + 1)) = t.cur lsr (bits * (i + 1)) then i
    else go (i + 1)
  in
  if d - t.cur >= horizon then levels else go 0

let file t entry =
  let lvl = level_for t entry.e_deadline in
  if lvl >= levels then t.overflow <- entry :: t.overflow
  else begin
    let slot = index ~level:lvl entry.e_deadline in
    t.levels.(lvl).(slot) <- entry :: t.levels.(lvl).(slot)
  end

let add t ~deadline payload =
  (* Deadlines in the past (clock overflow, defensive callers) fire at the
     current instant, like the seed runtime's list scan did. *)
  let deadline = if deadline < t.cur then t.cur else deadline in
  let entry =
    { e_deadline = deadline; e_seq = t.seq; e_payload = payload;
      e_cancelled = false }
  in
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  file t entry;
  entry

let cancel t entry =
  if not entry.e_cancelled then begin
    entry.e_cancelled <- true;
    t.live <- t.live - 1
  end

let cancelled entry = entry.e_cancelled

(* Purge a slot's cancelled carcasses, returning the survivors. *)
let compact es = List.filter (fun e -> not e.e_cancelled) es

(* Minimum live deadline within one slot, compacting as we look. *)
let slot_min t lvl slot =
  let es = compact t.levels.(lvl).(slot) in
  t.levels.(lvl).(slot) <- es;
  List.fold_left (fun acc e -> min acc e.e_deadline) max_int es

(* Exact earliest live deadline. Level 0's remaining window holds at most
   one deadline per slot, so the first occupied slot is the answer; at
   higher levels the first occupied slot bounds the answer and its content
   scan resolves the low bits. Falls through to the overflow list (scanned
   only when all wheels are empty — the far-future case). *)
let next_deadline t =
  let rec scan_level lvl =
    if lvl >= levels then
      match compact t.overflow with
      | [] ->
          t.overflow <- [];
          None
      | es ->
          t.overflow <- es;
          Some (List.fold_left (fun acc e -> min acc e.e_deadline) max_int es)
    else begin
      let first = index ~level:lvl t.cur in
      let best = ref max_int in
      let slot = ref first in
      while !best = max_int && !slot < slots do
        (match t.levels.(lvl).(!slot) with
        | [] -> ()
        | _ ->
            let m = slot_min t lvl !slot in
            if m < !best then best := m);
        incr slot
      done;
      if !best < max_int then Some !best else scan_level (lvl + 1)
    end
  in
  if t.live = 0 then None else scan_level 0

(* Re-file the slots that became "current" after [cur] moved: each level's
   now-current slot may hold entries that belong at a lower level under
   the new epoch. Top-down so a level-3 entry can cascade through level 2
   and 1 in one pass. The overflow list is re-filed when entries come
   inside the horizon. *)
let cascade t =
  (match
     List.partition (fun e -> e.e_deadline - t.cur < horizon) t.overflow
   with
  | [], _ -> ()
  | near, far ->
      t.overflow <- far;
      (* cancelled carcasses are simply dropped; [cancel] already
         adjusted the live count *)
      List.iter (fun e -> if not e.e_cancelled then file t e) near);
  for lvl = levels - 1 downto 1 do
    let slot = index ~level:lvl t.cur in
    match t.levels.(lvl).(slot) with
    | [] -> ()
    | es ->
        t.levels.(lvl).(slot) <- [];
        List.iter
          (fun e ->
            if not e.e_cancelled then
              let lvl' = level_for t e.e_deadline in
              if lvl' < lvl then begin
                let s = index ~level:lvl' e.e_deadline in
                t.levels.(lvl').(s) <- e :: t.levels.(lvl').(s)
              end
              else
                (* still belongs here under the new epoch *)
                t.levels.(lvl).(slot) <- e :: t.levels.(lvl).(slot))
          es
  done

let set_cur t c =
  if c > t.cur then begin
    t.cur <- c;
    cascade t
  end

(* Fire everything due at or before [now], advancing [cur] deadline by
   deadline so the cascading invariant holds at each firing instant.
   Within one instant the cohort fires in descending insertion order (see
   the module header); across instants, ascending deadline. *)
let advance t ~now =
  let groups = ref [] in
  let rec loop () =
    match next_deadline t with
    | Some d when d <= now ->
        set_cur t d;
        let slot = index ~level:0 d in
        let due, rest =
          List.partition (fun e -> e.e_deadline = d) t.levels.(0).(slot)
        in
        t.levels.(0).(slot) <- rest;
        let due = compact due in
        t.live <- t.live - List.length due;
        (* a fired entry is spent: a later [cancel] must not count it
           again, or [live] undercounts and a pending timer is lost *)
        List.iter (fun e -> e.e_cancelled <- true) due;
        let due = List.sort (fun a b -> compare b.e_seq a.e_seq) due in
        groups := due :: !groups;
        loop ()
    | Some _ | None -> set_cur t now
  in
  loop ();
  List.concat_map (List.map (fun e -> e.e_payload)) (List.rev !groups)

(* Jump straight to the next live instant and fire its cohort — the
   simulated clock's idle step. Returns the instant and its payloads. *)
let advance_to_next t =
  match next_deadline t with
  | None -> None
  | Some d -> Some (d, advance t ~now:d)
