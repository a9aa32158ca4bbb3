(* A growable ring deque. Capacity is always a power of two so index
   wrapping is a mask, not a division. Popped/removed slots are not
   cleared: the scheduler retains every thread in its thread table for
   the end-of-run statistics anyway, so stale slot references keep nothing
   alive that would otherwise die. *)

type 'a t = {
  mutable buf : 'a array;  (* [||] until the first push *)
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let create () = { buf = [||]; head = 0; len = 0 }
let length q = q.len
let is_empty q = q.len = 0

(* Grow only when full: appending the full ring to itself keeps every
   element at its index under the doubled mask, so [head] stays. [x]
   seeds the first buffer only (the filler value, avoiding an ['a option]
   box per slot); an [Array.make] past 256 slots with a young filler
   would force a minor collection. *)
let grow q x =
  q.buf <-
    (if Array.length q.buf = 0 then Array.make 16 x
     else Array.append q.buf q.buf)

let push q x =
  if q.len = Array.length q.buf then grow q x;
  let mask = Array.length q.buf - 1 in
  q.buf.((q.head + q.len) land mask) <- x;
  q.len <- q.len + 1

let pop q =
  if q.len = 0 then invalid_arg "Runq.pop: empty";
  let x = q.buf.(q.head) in
  q.head <- (q.head + 1) land (Array.length q.buf - 1);
  q.len <- q.len - 1;
  x

let pop_back q =
  if q.len = 0 then invalid_arg "Runq.pop_back: empty";
  let x = q.buf.((q.head + q.len - 1) land (Array.length q.buf - 1)) in
  q.len <- q.len - 1;
  x

let remove q i =
  if i < 0 || i >= q.len then invalid_arg "Runq.remove: index out of bounds";
  let mask = Array.length q.buf - 1 in
  let x = q.buf.((q.head + i) land mask) in
  if i <= q.len - 1 - i then begin
    (* closer to the head: shift the prefix right by one *)
    for j = i downto 1 do
      q.buf.((q.head + j) land mask) <- q.buf.((q.head + j - 1) land mask)
    done;
    q.head <- (q.head + 1) land mask
  end
  else
    (* closer to the tail: shift the suffix left by one *)
    for j = i to q.len - 2 do
      q.buf.((q.head + j) land mask) <- q.buf.((q.head + j + 1) land mask)
    done;
  q.len <- q.len - 1;
  x

let to_list q =
  let mask = Array.length q.buf - 1 in
  List.init q.len (fun i -> q.buf.((q.head + i) land mask))
