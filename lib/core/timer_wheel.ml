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

   Each slot is an intrusive doubly linked list of its entries, and an
   entry records the slot it is filed in, so [cancel] unlinks it at once:
   the wheel holds only live entries, and a cancelled one (with the
   payload it carries) is garbage as soon as its owner drops the handle.
   Firing order inside one deadline cohort is descending insertion
   sequence, which reproduces the seed runtime's reverse-insertion wake
   order for same-deadline timers (the old list consed newest-first),
   keeping the golden traces byte-identical. *)

(* [Nil] ends a slot list; [add] only ever returns an [Entry]. The links
   live in the constructor's inline record, so filing and unlinking
   allocate nothing. *)
type 'a entry =
  | Nil
  | Entry of {
      e_deadline : int;
      e_seq : int;
      e_payload : 'a;
      mutable e_slot : int;  (* its slot's id while filed, else -1 *)
      mutable e_prev : 'a entry;
      mutable e_next : 'a entry;
    }

type 'a t = {
  mutable cur : int;  (* current tick: all live deadlines are >= cur *)
  mutable seq : int;  (* insertion counter, for cohort ordering *)
  mutable live : int;  (* entries filed in the slots *)
  levels : 'a entry array array;
      (* levels.(i).(slot): each list's head; [||] until level [i] is used *)
  mutable overflow : 'a entry;  (* deadlines beyond the level-3 horizon *)
}

let bits = 8
let slots = 1 lsl bits (* 256 *)
let levels = 4
let horizon = 1 lsl (bits * levels) (* 2^32 ticks *)

(* A wheel is made per run, so each level is its own 256-word array,
   made when the level is first used: small enough for the minor heap,
   and not made at all by a run that never needs it. *)
let create ?(start = 0) () =
  {
    cur = start;
    seq = 0;
    live = 0;
    levels = Array.make levels [||];
    overflow = Nil;
  }

let live t = t.live

let index ~level d = (d lsr (bits * level)) land (slots - 1)

(* A slot's id, as an entry records it: [lvl * slots + s] for slot [s]
   of level [lvl], and [overflow_id] for the overflow list. *)
let overflow_id = levels * slots

let head t id =
  if id = overflow_id then t.overflow
  else
    let level = t.levels.(id lsr bits) in
    if Array.length level = 0 then Nil else level.(id land (slots - 1))

let set_head t id entry =
  if id = overflow_id then t.overflow <- entry
  else begin
    let lvl = id lsr bits in
    if Array.length t.levels.(lvl) = 0 then
      t.levels.(lvl) <- Array.make slots Nil;
    t.levels.(lvl).(id land (slots - 1)) <- entry
  end

(* The level whose current epoch contains [d]: the lowest [i] such that
   [d] and [cur] agree on all bits above the level's 8-bit slot index.
   Returns [levels] for the overflow list. *)
let rec level_from t d i =
  if i >= levels then levels
  else if d lsr (bits * (i + 1)) = t.cur lsr (bits * (i + 1)) then i
  else level_from t d (i + 1)

let level_for t d = if d - t.cur >= horizon then levels else level_from t d 0

(* Push [entry] onto the front of the slot its deadline belongs in. *)
let file t entry =
  match entry with
  | Nil -> ()
  | Entry e ->
      let lvl = level_for t e.e_deadline in
      let i =
        if lvl >= levels then overflow_id
        else (lvl * slots) + index ~level:lvl e.e_deadline
      in
      let first = head t i in
      (match first with Entry h -> h.e_prev <- entry | Nil -> ());
      e.e_slot <- i;
      e.e_prev <- Nil;
      e.e_next <- first;
      set_head t i entry

let add t ~deadline payload =
  (* Deadlines in the past (clock overflow, defensive callers) fire at the
     current instant, like the seed runtime's list scan did. *)
  let deadline = if deadline < t.cur then t.cur else deadline in
  let entry =
    Entry
      { e_deadline = deadline; e_seq = t.seq; e_payload = payload;
        e_slot = -1; e_prev = Nil; e_next = Nil }
  in
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  file t entry;
  entry

(* Take a filed entry out of its slot list; it keeps no link, so a held
   handle retains nothing of the wheel. *)
let unlink t = function
  | Nil -> ()
  | Entry e ->
      (match e.e_prev with
      | Entry p -> p.e_next <- e.e_next
      | Nil -> set_head t e.e_slot e.e_next);
      (match e.e_next with Entry n -> n.e_prev <- e.e_prev | Nil -> ());
      e.e_slot <- -1;
      e.e_prev <- Nil;
      e.e_next <- Nil;
      t.live <- t.live - 1

let cancel t entry =
  match entry with
  | Entry e when e.e_slot >= 0 -> unlink t entry
  | Entry _ | Nil -> ()

let rec min_deadline acc = function
  | Nil -> acc
  | Entry e -> min_deadline (Int.min acc e.e_deadline) e.e_next

(* Exact earliest deadline, from slot [s] of level [lvl] on. Level 0's
   remaining window holds at most one deadline per slot, so the first
   occupied slot is the answer; at higher levels the first occupied slot
   bounds the answer and its content scan resolves the low bits. Falls
   through to the overflow list (reached only when all wheels are empty
   — the far-future case). The walks here and below are top-level
   functions, not closures, so a query allocates only its result. *)
let rec scan t lvl s =
  if lvl >= levels then Some (min_deadline max_int t.overflow)
  else if s >= slots || Array.length t.levels.(lvl) = 0 then
    scan t (lvl + 1) (index ~level:(lvl + 1) t.cur)
  else
    match t.levels.(lvl).(s) with
    | Nil -> scan t lvl (s + 1)
    | first -> Some (min_deadline max_int first)

let next_deadline t =
  if t.live = 0 then None else scan t 0 (index ~level:0 t.cur)

(* File each entry of a detached slot list afresh. *)
let rec refile t = function
  | Nil -> ()
  | Entry e as entry ->
      let next = e.e_next in
      file t entry;
      refile t next

(* Empty slot [id] and file its entries afresh. *)
let refile_slot t id =
  match head t id with
  | Nil -> ()
  | first ->
      set_head t id Nil;
      refile t first

(* Re-file the slots that became "current" after [cur] moved: each level's
   now-current slot may hold entries that belong at a lower level under
   the new epoch. Top-down so a level-3 entry can cascade through level 2
   and 1 in one pass. The overflow list is re-filed too, which moves the
   entries that came inside the horizon. *)
let cascade t =
  refile_slot t overflow_id;
  for lvl = levels - 1 downto 1 do
    refile_slot t ((lvl * slots) + index ~level:lvl t.cur)
  done

let set_cur t c =
  if c > t.cur then begin
    t.cur <- c;
    cascade t
  end

let seq = function Entry e -> e.e_seq | Nil -> -1

(* Unlink a fired slot list, consing its entries onto [due]. *)
let rec take t due = function
  | Nil -> due
  | Entry e as entry ->
      let next = e.e_next in
      unlink t entry;
      take t (entry :: due) next

let payload_onto acc = function
  | Entry e -> e.e_payload :: acc
  | Nil -> acc

(* Fire everything due at or before [now], advancing [cur] deadline by
   deadline so the cascading invariant holds at each firing instant.
   Within one instant the cohort fires in descending insertion order (see
   the module header); across instants, ascending deadline. [fired] holds
   the payloads in reverse. *)
let rec advance_from t now fired =
  match next_deadline t with
  | Some d when d <= now ->
      set_cur t d;
      (* after the cascade, level 0's slot for [d] holds exactly the
         entries due at [d] *)
      let due = take t [] (head t (index ~level:0 d)) in
      let due = List.sort (fun a b -> Int.compare (seq b) (seq a)) due in
      advance_from t now (List.fold_left payload_onto fired due)
  | Some _ | None ->
      set_cur t now;
      List.rev fired

let advance t ~now = advance_from t now []
