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

let output_string st =
  let n = List.length st.output in
  let b = Bytes.create n in
  (* [output] holds the most recent character first *)
  List.iteri (fun i c -> Bytes.unsafe_set b (n - 1 - i) c) st.output;
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

let rec find_name (n : int) = function
  | [] -> -1
  | (m, k) :: rest -> if m = n then k else find_name n rest

(* Numbers runtime names by first sight: names below the state's fresh
   counter in an array, any others (hand-built states) in an assoc list. *)
let renamer size =
  let slots = Array.make (max 0 size) (-1) and others = ref [] in
  let next = ref 0 in
  fun (n : int) ->
    let in_range = n >= 0 && n < size in
    let k = if in_range then slots.(n) else find_name n !others in
    if k >= 0 then k
    else begin
      let k = !next in
      incr next;
      if in_range then slots.(n) <- k else others := (n, k) :: !others;
      k
    end

(* The de-Bruijn level of a bound variable, or -1 if it is free. *)
let rec level x = function
  | [] -> -1
  | (y, i) :: env -> if String.equal x y then i else level x env

(* Binds [xs] at levels [depth], [depth + 1], ...; the first of several
   equal binders shadows the rest. *)
let rec bind_all xs depth env =
  match xs with
  | [] -> env
  | x :: xs -> (x, depth) :: bind_all xs (depth + 1) env

let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_nat buf n else Buffer.add_string buf (string_of_int n)

(* One pass: names are numbered as the key first mentions them, and bound
   variables are printed as de-Bruijn levels, so the key is α-insensitive.
   Most keys of the §7 searches fit the initial 512 bytes. *)
let canonical_key st =
  let buf = Buffer.create 512 in
  let add = Buffer.add_string buf and addc = Buffer.add_char buf in
  let add_int = add_int buf in
  let tid = renamer st.next_tid and mvar = renamer st.next_mvar in
  let rec go env depth = function
    | Var x ->
        let i = level x env in
        if i >= 0 then (addc 'b'; add_int i) else (add "v:"; add x)
    | Lam (x, a) ->
        add "(\\";
        add_int depth;
        addc '.';
        go ((x, depth) :: env) (depth + 1) a;
        addc ')'
    | App (a, b) -> binary "@" a b env depth
    | Con (c, ms) ->
        add "(C:";
        add c;
        args env depth ms
    | Lit_int i -> add_int i
    | Lit_char c ->
        addc '\'';
        (match c with
        | ' ' .. '~' when c <> '\'' && c <> '\\' -> addc c
        | _ -> add (Char.escaped c));
        addc '\''
    | Lit_exn e -> addc '#'; add e
    | Mvar m -> addc 'm'; add_int (mvar m)
    | Tid t -> addc 't'; add_int (tid t)
    | Prim (op, a, b) -> binary (Pretty.prim_op_symbol op) a b env depth
    | If (a, b, c) ->
        add "(if ";
        go env depth a;
        addc ' ';
        binary_args b c env depth
    | Case (s, alts) ->
        add "(case ";
        go env depth s;
        List.iter
          (function
            | Alt (c, xs, b) ->
                let n = List.length xs in
                add " [";
                add c;
                addc '/';
                add_int n;
                addc ' ';
                go (bind_all xs depth env) (depth + n) b;
                addc ']'
            | Default (x, b) ->
                add " [_";
                add_int depth;
                addc ' ';
                go ((x, depth) :: env) (depth + 1) b;
                addc ']')
          alts;
        addc ')'
    | Let (x, a, b) ->
        add "(let";
        add_int depth;
        addc ' ';
        go env depth a;
        addc ' ';
        go ((x, depth) :: env) (depth + 1) b;
        addc ')'
    | Fix a -> unary "fix" a env depth
    | Raise a -> unary "raise" a env depth
    | Return a -> unary "ret" a env depth
    | Bind (a, b) -> binary ">>=" a b env depth
    | Put_char a -> unary "putc" a env depth
    | Get_char -> add "getc"
    | New_mvar -> add "newmv"
    | Take_mvar a -> unary "take" a env depth
    | Put_mvar (a, b) -> binary "put" a b env depth
    | Sleep a -> unary "sleep" a env depth
    | Throw a -> unary "throw" a env depth
    | Catch (a, b) -> binary "catch" a b env depth
    | Throw_to (a, b) -> binary "thto" a b env depth
    | Block a -> unary "blk" a env depth
    | Unblock a -> unary "ublk" a env depth
    | Fork a -> unary "fork" a env depth
    | My_tid -> add "mytid"
  and args env depth = function
    | [] -> addc ')'
    | m :: ms ->
        addc ' ';
        go env depth m;
        args env depth ms
  and unary tag a env depth =
    addc '(';
    add tag;
    addc ' ';
    go env depth a;
    addc ')'
  and binary tag a b env depth =
    addc '(';
    add tag;
    addc ' ';
    binary_args a b env depth
  and binary_args a b env depth =
    go env depth a;
    addc ' ';
    go env depth b;
    addc ')'
  in
  let render tag m = add tag; go [] 0 m in
  List.iter
    (fun (t, th) ->
      addc 'T';
      add_int (tid t);
      (match th with
      | Active (m, Runnable) -> render "o:" m
      | Active (m, Stuck_thread) -> render "x:" m
      | Finished (Done m) -> render "d:" m
      | Finished (Threw e) -> add "e:"; add e);
      addc ';')
    st.threads;
  List.iter
    (fun (m, contents) ->
      addc 'M';
      add_int (mvar m);
      (match contents with None -> add "()" | Some v -> render ":" v);
      addc ';')
    st.mvars;
  (* In-flight exceptions whose target has finished are inert; drop them and
     sort the rest so delivery bookkeeping does not distinguish states. *)
  let live =
    List.filter_map
      (fun (_, i) ->
        match List.assoc_opt i.target st.threads with
        | Some (Active _) -> Some (tid i.target, i.exn)
        | Some (Finished _) | None -> None)
      st.inflight
  in
  let by_target (t, e) (t', e') =
    if t = t' then String.compare e e' else Int.compare t t'
  in
  List.iter
    (fun (t, e) ->
      addc 'F';
      add_int t;
      add "<=";
      add e;
      addc ';')
    (List.sort by_target live);
  add "I:";
  List.iter addc st.input;
  add ";O:";
  add (output_string st);
  Buffer.contents buf

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
