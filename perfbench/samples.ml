(* A fixed-capacity buffer of integer samples, kept outside the OCaml
   heap so that the benchmark's own bookkeeping does not show up in the
   program's [Gc.top_heap_words]. *)

open Bigarray

type t = { buf : (int, int_elt, c_layout) Array1.t; mutable n : int }

let create cap = { buf = Array1.create int c_layout (max 1 cap); n = 0 }

let add t v =
  if t.n < Array1.dim t.buf then begin
    Array1.unsafe_set t.buf t.n v;
    t.n <- t.n + 1
  end

let length t = t.n
let full t = t.n >= Array1.dim t.buf

let sorted t =
  let a = Array.init t.n (fun i -> t.buf.{i}) in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks, as numpy's default and
   Python's [statistics.quantiles(method="inclusive")] compute it. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let f = pos -. float_of_int lo in
    float_of_int a.(lo) +. (f *. float_of_int (a.(hi) - a.(lo)))

let quantile t q = quantile_sorted (sorted t) q

let median_float l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
