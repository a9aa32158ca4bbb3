type t = {
  ring : int array;  (* (step lsl 22) lor tid; -1 = never written *)
  mask : int;  (* |ring| - 1, a power of two minus one *)
  mutable last : int;
}

let create ?(window = 65536) () =
  if window <= 0 then invalid_arg "Step_journal.create: window must be positive";
  let cap =
    let c = ref 1 in
    while !c < window do
      c := !c * 2
    done;
    !c
  in
  { ring = Array.make cap (-1); mask = cap - 1; last = 0 }

let window t = t.mask + 1

(* The per-step hot path: the scheduler calls this once per step. *)
let note t ~step ~running =
  t.last <- step;
  Array.unsafe_set t.ring (step land t.mask) ((step lsl 22) lor running)

let advance t n = if n > t.last then t.last <- n

let last t = t.last

let lo t = max 0 (t.last + 1 - (t.mask + 1))

let read t step =
  let w = Array.unsafe_get t.ring (step land t.mask) in
  if w >= 0 && w lsr 22 = step then w land 0x3fffff else -1

let clear t =
  t.last <- 0;
  Array.fill t.ring 0 (Array.length t.ring) (-1)

let entries t =
  let rec go acc step =
    if step < lo t then acc
    else
      let tid = read t step in
      go (if tid < 0 then acc else (step, tid) :: acc) (step - 1)
  in
  go [] t.last

(* --- the multi-domain replay log ---------------------------------------- *)

module Replay = struct
  type kind = K_op | K_deliver | K_end | K_clock

  type record = {
    r_kind : kind;
    r_dom : int;
    r_tid : int;
    r_tseq : int;
    r_steps : int;
    r_seq : int;
  }

  (* A per-domain growable append buffer; each domain writes only its own,
     so recording needs no synchronisation beyond what the scheduler
     already takes for the sequenced step itself. *)
  type buf = { mutable arr : record array; mutable n : int }

  let dummy =
    { r_kind = K_end; r_dom = 0; r_tid = 0; r_tseq = 0; r_steps = 0; r_seq = 0 }

  let buf_create () = { arr = [||]; n = 0 }

  let buf_add b r =
    if b.n = Array.length b.arr then begin
      let cap = if b.n = 0 then 256 else b.n * 2 in
      let arr = Array.make cap dummy in
      Array.blit b.arr 0 arr 0 b.n;
      b.arr <- arr
    end;
    b.arr.(b.n) <- r;
    b.n <- b.n + 1

  type t = { domains : int; records : record array }

  (* Serialize the per-domain buffers into the canonical replay order.

     Sequenced records (everything except [K_end]) carry a global sequence
     number assigned under the shared-state lock, so sorting by [r_seq]
     recovers their total order. [K_end] segments are purely thread-local
     (no shared-state access at all), so they carry no [r_seq]; they are
     ordered per thread by [r_tseq] and spliced in just before the same
     thread's next sequenced record — local steps commute with every other
     thread's steps, so any position before the thread's own next
     shared-state operation (and after its previous one, which [r_tseq]
     enforces) replays to the same state. Trailing local segments with no
     later sequenced record run at the end, ordered by (tid, tseq). *)
  let merge ~domains bufs =
    let seqd = ref [] and total = ref 0 in
    let ends : (int, record list ref) Hashtbl.t = Hashtbl.create 64 in
    Array.iter
      (fun b ->
        total := !total + b.n;
        for i = 0 to b.n - 1 do
          let r = b.arr.(i) in
          if r.r_kind = K_end then begin
            match Hashtbl.find_opt ends r.r_tid with
            | Some l -> l := r :: !l
            | None -> Hashtbl.add ends r.r_tid (ref [ r ])
          end
          else seqd := r :: !seqd
        done)
      bufs;
    let seqd =
      List.sort (fun a b -> compare a.r_seq b.r_seq) (List.rev !seqd)
    in
    let by_tseq a b = compare a.r_tseq b.r_tseq in
    Hashtbl.iter (fun _ l -> l := List.sort by_tseq !l) ends;
    let out = Array.make !total dummy in
    let n = ref 0 in
    let push r =
      out.(!n) <- r;
      incr n
    in
    let flush_ends tid upto =
      match Hashtbl.find_opt ends tid with
      | None -> ()
      | Some l ->
          let rec go = function
            | r :: rest when r.r_tseq < upto ->
                push r;
                go rest
            | rest -> l := rest
          in
          go !l
    in
    List.iter
      (fun r ->
        (match r.r_kind with
        | K_op | K_deliver -> flush_ends r.r_tid r.r_tseq
        | K_end | K_clock -> ());
        push r)
      seqd;
    let trailing =
      Hashtbl.fold (fun _ l acc -> !l @ acc) ends []
      |> List.sort (fun a b ->
             compare (a.r_tid, a.r_tseq) (b.r_tid, b.r_tseq))
    in
    List.iter push trailing;
    assert (!n = !total);
    { domains; records = out }

  let total_steps t =
    Array.fold_left (fun acc r -> acc + r.r_steps) 0 t.records

  let count kind t =
    Array.fold_left
      (fun acc r -> if r.r_kind = kind then acc + 1 else acc)
      0 t.records

  let kind_char = function
    | K_op -> 'o'
    | K_deliver -> 'd'
    | K_end -> 'e'
    | K_clock -> 'c'

  let kind_of_char = function
    | 'o' -> K_op
    | 'd' -> K_deliver
    | 'e' -> K_end
    | 'c' -> K_clock
    | c -> Fmt.failwith "Step_journal.Replay.decode: unknown kind %C" c

  let encode buf t =
    Buffer.add_string buf
      (Printf.sprintf "hio-replay 1\ndomains %d\nrecords %d\n" t.domains
         (Array.length t.records));
    Array.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "%c %d %d %d %d %d\n" (kind_char r.r_kind) r.r_dom
             r.r_tid r.r_tseq r.r_steps r.r_seq))
      t.records

  let to_string t =
    let b = Buffer.create 4096 in
    encode b t;
    Buffer.contents b

  let decode s =
    let lines = String.split_on_char '\n' s in
    match lines with
    | magic :: doms :: count :: rest when magic = "hio-replay 1" ->
        let domains = Scanf.sscanf doms "domains %d" Fun.id in
        let n = Scanf.sscanf count "records %d" Fun.id in
        let records = Array.make n dummy in
        let i = ref 0 in
        List.iter
          (fun line ->
            if line <> "" && !i < n then begin
              records.(!i) <-
                Scanf.sscanf line "%c %d %d %d %d %d"
                  (fun k dom tid tseq steps seq ->
                    {
                      r_kind = kind_of_char k;
                      r_dom = dom;
                      r_tid = tid;
                      r_tseq = tseq;
                      r_steps = steps;
                      r_seq = seq;
                    });
              incr i
            end)
          rest;
        if !i <> n then
          Fmt.failwith
            "Step_journal.Replay.decode: expected %d records, found %d" n !i;
        { domains; records }
    | _ -> Fmt.failwith "Step_journal.Replay.decode: bad header"
end
