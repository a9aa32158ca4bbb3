open Ch_lang
open Ch_lang.Term

type status = Runnable | Stuck_thread
type finished = Done of Term.term | Threw of Term.exn_name
type thread = Active of Term.term * status | Finished of finished
type inflight = { target : Term.tid; exn : Term.exn_name }

type t = {
  threads : (Term.tid * thread) list;
  mvars : (Term.mvar_name * Term.term option) list;
  inflight : (int * inflight) list;
  input : char list;
  output : char list;
  next_tid : int;
  next_mvar : int;
  next_inflight : int;
  main : Term.tid;
}

let initial ?(input = "") m =
  {
    threads = [ (0, Active (m, Runnable)) ];
    mvars = [];
    inflight = [];
    input = List.init (String.length input) (String.get input);
    output = [];
    next_tid = 1;
    next_mvar = 0;
    next_inflight = 0;
    main = 0;
  }

let main_result st =
  match List.assoc_opt st.main st.threads with
  | Some (Finished f) -> Some f
  | Some (Active _) | None -> None

(* Writes [cs], most recent first, into [b] ending at index [i]. *)
let rec fill_reversed b i = function
  | [] -> ()
  | c :: cs ->
      Bytes.unsafe_set b i c;
      fill_reversed b (i - 1) cs

let output_string st =
  let n = List.length st.output in
  let b = Bytes.create n in
  fill_reversed b (n - 1) st.output;
  Bytes.unsafe_to_string b

let thread st tid = List.assoc_opt tid st.threads
let mvar st m = List.assoc_opt m st.mvars

let set_thread st tid th =
  {
    st with
    threads =
      List.map (fun (i, t) -> if i = tid then (i, th) else (i, t)) st.threads;
  }

let set_mvar st m v =
  {
    st with
    mvars = List.map (fun (i, c) -> if i = m then (i, v) else (i, c)) st.mvars;
  }

(* --- Canonical keys (structural congruence + α-equivalence) ------------- *)

(* The key is rendered into scratch state that lives as long as its
   domain, so a call allocates the key string (or the fingerprint) and
   nothing else: the bytes, the binder stack and the renumbering slots
   are reset, not rebuilt, and each [Par.Pool] worker has its own copy. *)

(* Runtime names numbered by first sight: names below the state's fresh
   counter in [slots], any others (hand-built states) in [others]. *)
type renumbering = {
  mutable slots : int array;
  mutable size : int;
  mutable others : (int * int) list;
  mutable next : int;
}

(* A binder no variable can name (it is compared physically): the later
   copies of a name that one [Alt] binds twice, so the first one wins. *)
let shadowed = String.make 1 '_'

type ctx = {
  mutable bytes : Bytes.t;  (** the rendering is [bytes[0 .. len)] *)
  mutable len : int;
  mutable names : string array;  (** the binder at each de-Bruijn level *)
  tids : renumbering;
  mvars : renumbering;
  mutable min_t : int;
  mutable min_e : string;
  mutable min_n : int;
      (** how often the in-flight pair [(min_t, min_e)] that {!select}
          found occurs *)
}

let renumbering () = { slots = [||]; size = 0; others = []; next = 0 }

let ctx_key =
  Domain.DLS.new_key (fun () ->
      {
        bytes = Bytes.create 512;
        len = 0;
        names = Array.make 64 shadowed;
        tids = renumbering ();
        mvars = renumbering ();
        min_t = 0;
        min_e = "";
        min_n = 0;
      })

let reset r size =
  let size = max 0 size in
  if Array.length r.slots < size then
    r.slots <- Array.make (max size (2 * Array.length r.slots)) (-1)
  else Array.fill r.slots 0 size (-1);
  r.size <- size;
  r.others <- [];
  r.next <- 0

let rec find_name (n : int) = function
  | [] -> -1
  | (m, k) :: rest -> if m = n then k else find_name n rest

let rename r (n : int) =
  let in_range = n >= 0 && n < r.size in
  let k = if in_range then r.slots.(n) else find_name n r.others in
  if k >= 0 then k
  else begin
    let k = r.next in
    r.next <- k + 1;
    if in_range then r.slots.(n) <- k else r.others <- (n, k) :: r.others;
    k
  end

(* Makes room for [n] more bytes. *)
let reserve c n =
  let size = Bytes.length c.bytes in
  if c.len + n > size then begin
    let bytes = Bytes.create (max (c.len + n) (2 * size)) in
    Bytes.blit c.bytes 0 bytes 0 c.len;
    c.bytes <- bytes
  end

let add c s =
  let n = String.length s in
  reserve c n;
  Bytes.unsafe_blit_string s 0 c.bytes c.len n;
  c.len <- c.len + n

let addc c ch =
  if c.len = Bytes.length c.bytes then reserve c 1;
  Bytes.unsafe_set c.bytes c.len ch;
  c.len <- c.len + 1

let rec add_nat c n =
  if n >= 10 then add_nat c (n / 10);
  addc c (Char.unsafe_chr (48 + (n mod 10)))

let add_int c n =
  if n >= 0 then add_nat c n
  else if n = min_int then add c (string_of_int n)
  else begin
    addc c '-';
    add_nat c (-n)
  end

(* The bytes of [Char.escaped]. *)
let add_escaped c = function
  | '\'' -> add c "\\'"
  | '\\' -> add c "\\\\"
  | '\n' -> add c "\\n"
  | '\t' -> add c "\\t"
  | '\r' -> add c "\\r"
  | '\b' -> add c "\\b"
  | ' ' .. '~' as ch -> addc c ch
  | ch ->
      let n = Char.code ch in
      addc c '\\';
      addc c (Char.unsafe_chr (48 + (n / 100)));
      addc c (Char.unsafe_chr (48 + (n / 10 mod 10)));
      addc c (Char.unsafe_chr (48 + (n mod 10)))

let bind c depth x =
  let n = Array.length c.names in
  if depth >= n then begin
    let names = Array.make (2 * (depth + 1)) shadowed in
    Array.blit c.names 0 names 0 n;
    c.names <- names
  end;
  c.names.(depth) <- x

(* The de-Bruijn level of a bound variable, searching the innermost
   binder first, or -1 if it is free. *)
let rec level c x i =
  if i < 0 then -1
  else
    let y = c.names.(i) in
    if y != shadowed && String.equal x y then i else level c x (i - 1)

(* Binds an [Alt]'s names at levels [depth], [depth + 1], ...; [base] is
   its first level. *)
let rec bind_alt c base depth = function
  | [] -> ()
  | x :: xs ->
      bind c depth (if level c x (depth - 1) >= base then shadowed else x);
      bind_alt c base (depth + 1) xs

(* One pass: names are numbered as the key first mentions them, and bound
   variables are printed as de-Bruijn levels, so the key is α-insensitive. *)
let rec go c depth = function
  | Var x ->
      let i = level c x (depth - 1) in
      if i >= 0 then begin
        addc c 'b';
        add_int c i
      end
      else begin
        add c "v:";
        add c x
      end
  | Lam (x, a) ->
      add c "(\\";
      add_int c depth;
      addc c '.';
      bind c depth x;
      go c (depth + 1) a;
      addc c ')'
  | App (a, b) -> binary c "@" a b depth
  | Con (con, ms) ->
      add c "(C:";
      add c con;
      args c depth ms
  | Lit_int i -> add_int c i
  | Lit_char ch ->
      addc c '\'';
      add_escaped c ch;
      addc c '\''
  | Lit_exn e ->
      addc c '#';
      add c e
  | Mvar m ->
      addc c 'm';
      add_int c (rename c.mvars m)
  | Tid t ->
      addc c 't';
      add_int c (rename c.tids t)
  | Prim (op, a, b) -> binary c (Pretty.prim_op_symbol op) a b depth
  | If (a, b, e) ->
      add c "(if ";
      go c depth a;
      addc c ' ';
      binary_args c b e depth
  | Case (s, alts) ->
      add c "(case ";
      go c depth s;
      add_alts c depth alts;
      addc c ')'
  | Let (x, a, b) ->
      add c "(let";
      add_int c depth;
      addc c ' ';
      go c depth a;
      addc c ' ';
      bind c depth x;
      go c (depth + 1) b;
      addc c ')'
  | Fix a -> unary c "fix" a depth
  | Raise a -> unary c "raise" a depth
  | Return a -> unary c "ret" a depth
  | Bind (a, b) -> binary c ">>=" a b depth
  | Put_char a -> unary c "putc" a depth
  | Get_char -> add c "getc"
  | New_mvar -> add c "newmv"
  | Take_mvar a -> unary c "take" a depth
  | Put_mvar (a, b) -> binary c "put" a b depth
  | Sleep a -> unary c "sleep" a depth
  | Throw a -> unary c "throw" a depth
  | Catch (a, b) -> binary c "catch" a b depth
  | Throw_to (a, b) -> binary c "thto" a b depth
  | Block a -> unary c "blk" a depth
  | Unblock a -> unary c "ublk" a depth
  | Fork a -> unary c "fork" a depth
  | My_tid -> add c "mytid"

and add_alts c depth = function
  | [] -> ()
  | Alt (con, xs, b) :: rest ->
      let n = List.length xs in
      add c " [";
      add c con;
      addc c '/';
      add_int c n;
      addc c ' ';
      bind_alt c depth depth xs;
      go c (depth + n) b;
      addc c ']';
      add_alts c depth rest
  | Default (x, b) :: rest ->
      add c " [_";
      add_int c depth;
      addc c ' ';
      bind c depth x;
      go c (depth + 1) b;
      addc c ']';
      add_alts c depth rest

and args c depth = function
  | [] -> addc c ')'
  | m :: ms ->
      addc c ' ';
      go c depth m;
      args c depth ms

and unary c tag a depth =
  addc c '(';
  add c tag;
  addc c ' ';
  go c depth a;
  addc c ')'

and binary c tag a b depth =
  addc c '(';
  add c tag;
  addc c ' ';
  binary_args c a b depth

and binary_args c a b depth =
  go c depth a;
  addc c ' ';
  go c depth b;
  addc c ')'

let rec add_threads c = function
  | [] -> ()
  | (t, th) :: rest ->
      addc c 'T';
      add_int c (rename c.tids t);
      (match th with
      | Active (m, Runnable) ->
          add c "o:";
          go c 0 m
      | Active (m, Stuck_thread) ->
          add c "x:";
          go c 0 m
      | Finished (Done m) ->
          add c "d:";
          go c 0 m
      | Finished (Threw e) ->
          add c "e:";
          add c e);
      addc c ';';
      add_threads c rest

let rec add_mvars c = function
  | [] -> ()
  | (m, contents) :: rest ->
      addc c 'M';
      add_int c (rename c.mvars m);
      (match contents with
      | None -> add c "()"
      | Some v ->
          addc c ':';
          go c 0 v);
      addc c ';';
      add_mvars c rest

let rec is_active t = function
  | [] -> false
  | (u, th) :: rest -> (
      if u <> t then is_active t rest
      else match th with Active _ -> true | Finished _ -> false)

let above t e t' e' = t > t' || (t = t' && String.compare e e' > 0)

(* Finds the smallest live (target, exception) pair above [(lt, le)] and
   how often it occurs. A live target is a thread, so it is numbered. *)
let rec select c threads lt le = function
  | [] -> ()
  | (_, { target; exn }) :: rest ->
      (if is_active target threads then
         let t = rename c.tids target in
         if above t exn lt le then
           if c.min_n = 0 || above c.min_t c.min_e t exn then begin
             c.min_t <- t;
             c.min_e <- exn;
             c.min_n <- 1
           end
           else if t = c.min_t && String.equal exn c.min_e then
             c.min_n <- c.min_n + 1);
      select c threads lt le rest

(* In-flight exceptions whose target has finished are inert; drop them and
   print the rest sorted by (target, exception), so delivery bookkeeping
   does not distinguish states. *)
let rec add_inflight c st lt le =
  c.min_n <- 0;
  select c st.threads lt le st.inflight;
  let t = c.min_t and e = c.min_e in
  for _ = 1 to c.min_n do
    addc c 'F';
    add_int c t;
    add c "<=";
    add c e;
    addc c ';'
  done;
  if c.min_n > 0 then add_inflight c st t e

(* The input comes before the ";O:" that ends it, so its ';' and '\' are
   escaped; the output is last and needs no escape. *)
let rec add_input c = function
  | [] -> ()
  | ch :: rest ->
      if ch = ';' || ch = '\\' then addc c '\\';
      addc c ch;
      add_input c rest

(* Appends the key of [st] to what [c] holds. *)
let render c st =
  reset c.tids st.next_tid;
  reset c.mvars st.next_mvar;
  add_threads c st.threads;
  add_mvars c st.mvars;
  add_inflight c st (-1) "";
  add c "I:";
  add_input c st.input;
  add c ";O:";
  let n = List.length st.output in
  reserve c n;
  fill_reversed c.bytes (c.len + n - 1) st.output;
  c.len <- c.len + n

let canonical_key st =
  let c = Domain.DLS.get ctx_key in
  c.len <- 0;
  render c st;
  Bytes.sub_string c.bytes 0 c.len

(* --- Fingerprints (hash compaction) ------------------------------------- *)

module Fingerprint = struct
  type t = { hi : int; lo : int }

  let equal a b = a.lo = b.lo && a.hi = b.hi

  module Table = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash a = a.lo land max_int
  end)
end

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Two multiply-xorshift lanes over the 63-bit ints, with different
   multipliers and shifts, each a bijection of its state for a given
   word. A 64-bit word enters [lo] as its low 63 bits and [hi] as its
   high 63, so the pair of lanes sees every bit. *)
let lane_lo h w =
  let h = (h lxor w) * 0x3f58476d1ce4e5b9 in
  h lxor (h lsr 32)

let lane_hi h w =
  let h = (h lxor w) * 0x14d049bb133111eb in
  h lxor (h lsr 29)

(* A splitmix-style finaliser: every input bit reaches every output bit. *)
let finish h =
  let h = (h lxor (h lsr 30)) * 0x3f51afd7ed558ccd in
  let h = (h lxor (h lsr 27)) * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 31)

let hash_bytes b len =
  let lo = ref 0x2545f4914f6cdd1d and hi = ref 0x1b873593cc9e2d51 in
  let i = ref 0 in
  while !i + 8 <= len do
    let w = get64u b !i in
    lo := lane_lo !lo (Int64.to_int w);
    hi := lane_hi !hi (Int64.to_int (Int64.shift_right_logical w 1));
    i := !i + 8
  done;
  (* the last [len mod 8] bytes, 56 bits at most *)
  let w = ref 0 in
  for j = len - 1 downto !i do
    w := (!w lsl 8) lor Char.code (Bytes.unsafe_get b j)
  done;
  {
    Fingerprint.hi = finish (lane_hi !hi !w lxor len);
    lo = finish (lane_lo !lo !w + len);
  }

let fingerprint ~budget st =
  let c = Domain.DLS.get ctx_key in
  c.len <- 0;
  add_int c budget;
  addc c '|';
  render c st;
  hash_bytes c.bytes c.len

let pp ppf st =
  let pp_thread ppf (tid, th) =
    match th with
    | Active (m, Runnable) ->
        Fmt.pf ppf "@[<2>⟨%a⟩t%d/○@]" Pretty.pp_term m tid
    | Active (m, Stuck_thread) ->
        Fmt.pf ppf "@[<2>⟨%a⟩t%d/⊗@]" Pretty.pp_term m tid
    | Finished (Done m) -> Fmt.pf ppf "⊙t%d(=%a)" tid Pretty.pp_term m
    | Finished (Threw e) -> Fmt.pf ppf "⊙t%d(#%s)" tid e
  in
  let pp_mvar ppf (m, contents) =
    match contents with
    | None -> Fmt.pf ppf "⟨⟩m%d" m
    | Some v -> Fmt.pf ppf "@[<2>⟨%a⟩m%d@]" Pretty.pp_term v m
  in
  let pp_inflight ppf (_, i) = Fmt.pf ppf "⟦t%d ⇐ %s⟧" i.target i.exn in
  let sep = Fmt.any "@ | " in
  Fmt.pf ppf "@[<hv>%a" Fmt.(list ~sep pp_thread) st.threads;
  if st.mvars <> [] then Fmt.pf ppf " |@ %a" Fmt.(list ~sep pp_mvar) st.mvars;
  if st.inflight <> [] then
    Fmt.pf ppf " |@ %a" Fmt.(list ~sep pp_inflight) st.inflight;
  if st.output <> [] then Fmt.pf ppf " |@ out=%S" (output_string st);
  Fmt.pf ppf "@]"
