(* The traced run's span store. Spans are recorded from the benchmark's
   own files, around its calls into each layer, into fixed off-heap
   arrays; they are written out once, when the run ends. Every span has
   a name, a start, an end, a parent span and the id of the op it
   belongs to. *)

open Bigarray

type name =
  | Op
  | Write_request
  | Read_response
  | Handler
  | Shard_connect
  | Conn_close
  | Run_plan
  | Explore

let names =
  [| "op"; "http.write_request"; "http.read_response"; "server.handler";
     "shard.connect"; "conn.close"; "sweep.run_plan"; "space.explore" |]

let index = function
  | Op -> 0
  | Write_request -> 1
  | Read_response -> 2
  | Handler -> 3
  | Shard_connect -> 4
  | Conn_close -> 5
  | Run_plan -> 6
  | Explore -> 7

(* [http.read_response] is mostly the client waiting for the server;
   counting it as attributed time would hide the server's request and
   response paths, which are exactly what the attribution is for. *)
let is_wait i = i = index Read_response

type ints = (int, int_elt, c_layout) Array1.t

type t = {
  name : ints;
  op : ints;
  parent : ints;
  start : ints;
  stop : ints;
  mutable n : int;
  mutable ops : int;
}

let create cap =
  let mk () = Array1.create int c_layout (max 1 cap) in
  {
    name = mk ();
    op = mk ();
    parent = mk ();
    start = mk ();
    stop = mk ();
    n = 0;
    ops = 0;
  }

let full t = t.n >= Array1.dim t.name

(* Returns the span's index, or -1 once the store is full. *)
let open_span t nm ~op ~parent =
  let i = t.n in
  if i >= Array1.dim t.name then -1
  else begin
    t.n <- i + 1;
    t.name.{i} <- index nm;
    t.op.{i} <- op;
    t.parent.{i} <- parent;
    t.stop.{i} <- -1;
    t.start.{i} <- Clock.now_ns ();
    i
  end

let close t i = if i >= 0 then t.stop.{i} <- Clock.now_ns ()

let begin_op t =
  let op = t.ops in
  t.ops <- op + 1;
  open_span t Op ~op ~parent:(-1)

(* A child of the op whose root span is [root]. *)
let child t nm root =
  if root < 0 then -1 else open_span t nm ~op:t.op.{root} ~parent:root

(* A zero-length span: a point the benchmark observes, such as entry to
   its own handler. *)
let point t nm root =
  let i = child t nm root in
  if i >= 0 then t.stop.{i} <- t.start.{i}

let dur t i = t.stop.{i} - t.start.{i}

(* Median duration (µs) of the closed spans named [nm]. *)
let median_us t nm =
  let k = index nm in
  let s = Samples.create (max 1 t.n) in
  for i = 0 to t.n - 1 do
    if t.name.{i} = k && t.stop.{i} >= 0 then Samples.add s (dur t i)
  done;
  Samples.quantile s 0.5 /. 1e3

(* Children of each span, in recording order. *)
let children t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.{i} in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  kids

let covered t spans =
  let iv = List.sort compare (List.map (fun i -> (t.start.{i}, t.stop.{i})) spans) in
  let rec go acc cur_s cur_e = function
    | [] -> acc + (cur_e - cur_s)
    | (s, e) :: tl ->
        if s > cur_e then go (acc + (cur_e - cur_s)) s e tl
        else go acc cur_s (max cur_e e) tl
  in
  match iv with [] -> 0 | (s, e) :: tl -> go 0 s e tl

type breakdown = {
  unattributed_us : float;  (** mean op time not covered by a work span *)
  to_handler_us : float;  (** median: request written → handler entered *)
  from_handler_us : float;  (** median: handler left → response parsed *)
}

let breakdown t =
  let kids = children t in
  let ops = ref 0 and gap = ref 0 in
  let to_h = Samples.create (max 1 t.n) and from_h = Samples.create (max 1 t.n) in
  for i = 0 to t.n - 1 do
    if t.name.{i} = index Op && t.stop.{i} >= 0 then begin
      let closed = List.filter (fun c -> t.stop.{c} >= 0) kids.(i) in
      let work = List.filter (fun c -> not (is_wait t.name.{c})) closed in
      incr ops;
      gap := !gap + (dur t i - covered t work);
      let find nm = List.find_opt (fun c -> t.name.{c} = index nm) closed in
      match (find Write_request, find Handler, find Read_response) with
      | Some w, Some h, Some r ->
          Samples.add to_h (t.start.{h} - t.stop.{w});
          Samples.add from_h (t.stop.{r} - t.stop.{h})
      | _ -> ()
    end
  done;
  {
    unattributed_us =
      (if !ops = 0 then 0. else float_of_int !gap /. float_of_int !ops /. 1e3);
    to_handler_us = Samples.quantile to_h 0.5 /. 1e3;
    from_handler_us = Samples.quantile from_h 0.5 /. 1e3;
  }

(* One line per span, for the first [limit] spans: op, span, parent,
   name, start and end in ns relative to the first span. The limit keeps
   the file to a few MB; the metrics use every span. *)
let write ?(limit = 200_000) t path =
  let oc = open_out path in
  output_string oc "op\tspan\tparent\tname\tstart_ns\tend_ns\n";
  let base = if t.n > 0 then t.start.{0} else 0 in
  for i = 0 to min t.n limit - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" t.op.{i} i t.parent.{i}
      names.(t.name.{i})
      (t.start.{i} - base)
      (if t.stop.{i} < 0 then -1 else t.stop.{i} - base)
  done;
  close_out oc
