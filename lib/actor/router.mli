(** A consistent-hash ring over shard indices: {!pick} names the shard
    that owns a key. The ring is built once (FNV-1a over
    ["shard-i#vnode"], written out rather than [Hashtbl.hash] so
    placement is stable across OCaml versions — sweep schedules depend
    on it) and is immutable, so any thread may pick without a hop
    through another thread. *)

type t

val create : int -> t
(** [create n] is the ring over shards [0 .. n-1], 32 points per shard.
    @raise Invalid_argument if [n < 1]. *)

val pick : t -> string -> int
(** The index of the shard owning a key. Total and deterministic. *)

val hash : string -> int
(** The ring's FNV-1a 32-bit hash (exposed for tests). *)
