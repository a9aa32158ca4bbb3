type t = (int * int) array  (* (point, shard index), sorted by point *)

(* FNV-1a, 32-bit. Written out (not Hashtbl.hash) so ring placement —
   and every sweep schedule downstream of it — is identical on every
   OCaml version and word size. [fnv h s] continues a hash over [s]. *)
let fnv h s =
  String.fold_left
    (fun h c -> (h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    h s

let hash s = fnv 0x811c9dc5 s

(* Points per shard on the ring. *)
let vnodes = 32

(* Shard [i]'s points hash "shard-i#v"; the common prefix is hashed
   once per shard. *)
let create shards =
  if shards < 1 then invalid_arg "Router.create: no shards";
  let ring =
    Array.concat
      (List.init shards (fun i ->
           let prefix = hash (Printf.sprintf "shard-%d#" i) in
           Array.init vnodes (fun v -> (fnv prefix (string_of_int v), i))))
  in
  Array.sort (fun (h1, _) (h2, _) -> Int.compare h1 h2) ring;
  ring

(* First ring point at or after the key's hash, wrapping. *)
let pick ring key =
  let h = hash key in
  let n = Array.length ring in
  let rec bs lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst ring.(mid) < h then bs (mid + 1) hi else bs lo mid
  in
  let i = bs 0 n in
  snd ring.(if i = n then 0 else i)
