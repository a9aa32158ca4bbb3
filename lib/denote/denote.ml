open Ch_lang
open Ch_lang.Term
open Hio
open Hio.Io

exception Obj_exn of Term.exn_name
exception Ill_typed of string

(* Call-by-name: a thunk is a suspended pure evaluation. Re-forcing re-runs
   it, exactly like the substitution semantics (sharing is an unobservable
   optimization the inner semantics does not prescribe). *)
type thunk = unit -> value Io.t

and value =
  | V_int of int
  | V_char of char
  | V_exn of Term.exn_name
  | V_con of string * thunk list
  | V_fun of (thunk -> value Io.t)
  | V_io of (unit -> thunk Io.t)
      (* a monadic value; performing it yields the (lazy) result *)
  | V_mvar of thunk Mvar.t
  | V_tid of Io.thread_id

type env = (Term.var * thunk) list

let ill_typed fmt = Printf.ksprintf (fun s -> raise (Ill_typed s)) fmt

let exn_name_of_host = function
  | Obj_exn e -> e
  | Io.Kill_thread -> "KillThread"
  | Io.Timeout -> "Timeout"
  | e -> Printexc.to_string e

let host_of_exn_name = function
  | "KillThread" -> Io.Kill_thread
  | "Timeout" -> Io.Timeout
  | e -> Obj_exn e

(* [delay f] suspends even the *construction* of the Io description, which
   is what keeps recursive object programs from looping at translation
   time. *)
let delay f = Io.return () >>= f

let rec eval (env : env) (t : Term.term) : value Io.t =
  match t with
  | Var x -> (
      match List.assoc_opt x env with
      | Some thunk -> thunk ()
      | None -> ill_typed "unbound variable '%s'" x)
  | Lam (x, body) ->
      return (V_fun (fun thunk -> eval ((x, thunk) :: env) body))
  | App (f, a) -> (
      let arg = thunk_of env a in
      eval env f >>= function
      | V_fun f -> f arg
      | V_con (c, args) -> return (V_con (c, args @ [ arg ]))
      | _ -> ill_typed "application of a non-function")
  | Con (c, args) -> return (V_con (c, List.map (thunk_of env) args))
  | Lit_int i -> return (V_int i)
  | Lit_char c -> return (V_char c)
  | Lit_exn e -> return (V_exn e)
  | Mvar _ | Tid _ -> ill_typed "runtime name in source program"
  | Prim (op, a, b) ->
      eval env a >>= fun va ->
      eval env b >>= fun vb -> prim op va vb
  | If (c, th, el) -> (
      eval env c >>= function
      | V_con ("True", []) -> eval env th
      | V_con ("False", []) -> eval env el
      | _ -> ill_typed "if on a non-boolean")
  | Case (s, alts) -> eval env s >>= fun v -> eval_case env v alts
  | Let (x, def, body) -> eval ((x, thunk_of env def) :: env) body
  | Fix f -> eval env (App (f, Fix f))
  | Raise e -> (
      eval env e >>= function
      | V_exn name -> throw (host_of_exn_name name)
      | _ -> ill_typed "raise of a non-exception")
  (* --- the IO layer --- *)
  | Return m -> return (V_io (fun () -> return (thunk_of env m)))
  | Bind (a, b) ->
      return
        (V_io
           (fun () ->
             delay (fun () ->
                 perform env a >>= fun result ->
                 eval env b >>= function
                 | V_fun f -> f result >>= perform_value
                 | _ -> ill_typed ">>= with a non-function")))
  | Put_char m ->
      return
        (V_io
           (fun () ->
             eval env m >>= function
             | V_char c -> put_char c >>= fun () -> return unit_thunk
             | _ -> ill_typed "putChar of a non-character"))
  | Get_char ->
      return
        (V_io
           (fun () -> get_char >>= fun c -> return (value_thunk (V_char c))))
  | New_mvar ->
      return
        (V_io
           (fun () ->
             Mvar.new_empty >>= fun mv -> return (value_thunk (V_mvar mv))))
  | Take_mvar m ->
      return
        (V_io
           (fun () ->
             eval env m >>= function
             | V_mvar mv -> Mvar.take mv
             | _ -> ill_typed "takeMVar of a non-MVar"))
  | Put_mvar (m, payload) ->
      return
        (V_io
           (fun () ->
             eval env m >>= function
             | V_mvar mv ->
                 Mvar.put mv (thunk_of env payload) >>= fun () ->
                 return unit_thunk
             | _ -> ill_typed "putMVar of a non-MVar"))
  | Sleep m ->
      return
        (V_io
           (fun () ->
             eval env m >>= function
             | V_int d -> sleep d >>= fun () -> return unit_thunk
             | _ -> ill_typed "sleep of a non-integer"))
  | Throw m ->
      return
        (V_io
           (fun () ->
             eval env m >>= function
             | V_exn e -> throw (host_of_exn_name e)
             | _ -> ill_typed "throw of a non-exception"))
  | Catch (body, handler) ->
      return
        (V_io
           (fun () ->
             catch
               (delay (fun () -> perform env body))
               (fun e ->
                 let name = exn_name_of_host e in
                 eval env handler >>= function
                 | V_fun f -> f (value_thunk (V_exn name)) >>= perform_value
                 | _ -> ill_typed "catch with a non-function handler")))
  | Throw_to (target, e) ->
      return
        (V_io
           (fun () ->
             eval env target >>= function
             | V_tid tid -> (
                 eval env e >>= function
                 | V_exn name ->
                     throw_to tid (host_of_exn_name name) >>= fun () ->
                     return unit_thunk
                 | _ -> ill_typed "throwTo of a non-exception")
             | _ -> ill_typed "throwTo of a non-ThreadId"))
  | Block m -> return (V_io (fun () -> block (delay (fun () -> perform env m))))
  | Unblock m ->
      return (V_io (fun () -> unblock (delay (fun () -> perform env m))))
  | Fork m ->
      return
        (V_io
           (fun () ->
             fork (ignore_result (delay (fun () -> perform env m)))
             >>= fun tid -> return (value_thunk (V_tid tid))))
  | My_tid ->
      return
        (V_io (fun () -> my_thread_id >>= fun t -> return (value_thunk (V_tid t))))

and thunk_of env t : thunk = fun () -> eval env t
and value_thunk v : thunk = fun () -> return v
and unit_thunk : thunk = fun () -> return (V_con ("()", []))

(* Evaluate a term of IO type and perform the resulting action. *)
and perform env t : thunk Io.t =
  eval env t >>= function
  | V_io act -> act ()
  | _ -> ill_typed "performing a non-IO value"

and perform_value : value -> thunk Io.t = function
  | V_io act -> act ()
  | _ -> ill_typed "performing a non-IO value"

and eval_case env v alts =
  let rec go = function
    | [] -> (
        match v with
        | _ -> throw (Obj_exn "PatternMatchFail"))
    | Alt (c, xs, body) :: rest -> (
        match v with
        | V_con (c', args)
          when String.equal c c' && List.length xs = List.length args ->
            eval (List.combine xs args @ env) body
        | _ -> go rest)
    | Default (x, body) :: _ -> eval ((x, value_thunk v) :: env) body
  in
  go alts

and prim op va vb =
  let bool_v b = V_con ((if b then "True" else "False"), []) in
  let arith f =
    match (va, vb) with
    | V_int a, V_int b -> return (V_int (f a b))
    | _ -> ill_typed "arithmetic on non-integers"
  in
  let compare_v f =
    match (va, vb) with
    | V_int a, V_int b -> return (bool_v (f (compare a b) 0))
    | V_char a, V_char b -> return (bool_v (f (compare a b) 0))
    | _ -> ill_typed "comparison on non-literals"
  in
  match op with
  | Add -> arith ( + )
  | Sub -> arith ( - )
  | Mul -> arith ( * )
  | Div -> (
      match (va, vb) with
      | V_int _, V_int 0 -> throw (Obj_exn "DivideByZero")
      | V_int a, V_int b -> return (V_int (a / b))
      | _ -> ill_typed "division on non-integers")
  | Eq | Ne -> (
      let positive = op = Eq in
      let res b = return (bool_v (b = positive)) in
      match (va, vb) with
      | V_int a, V_int b -> res (a = b)
      | V_char a, V_char b -> res (a = b)
      | V_exn a, V_exn b -> res (String.equal a b)
      | V_tid a, V_tid b -> res (Io.same_thread a b)
      | V_mvar a, V_mvar b -> res (Mvar.id a = Mvar.id b)
      | V_con (a, []), V_con (b, []) -> res (String.equal a b)
      | _ -> ill_typed "equality on incomparable values")
  | Lt -> compare_v ( < )
  | Le -> compare_v ( <= )

(* The denotation of a closed term of IO type: performing the action runs
   the program on the hio runtime. *)
let io_of_term term = delay (fun () -> eval [] term)

(* Deeply force a value and render it as a term (for observation), with a
   step budget of 100,000 against divergent components; [Ill_typed] on
   open results. *)
let readback v =
  let remaining = ref 100_000 in
  let rec go v =
    if !remaining <= 0 then ill_typed "readback budget exhausted"
    else begin
      decr remaining;
      match v with
      | V_int i -> return (Lit_int i)
      | V_char c -> return (Lit_char c)
      | V_exn e -> return (Lit_exn e)
      | V_con (c, args) ->
          let rec args_terms acc = function
            | [] -> return (Con (c, List.rev acc))
            | thunk :: rest ->
                thunk () >>= fun v ->
                go v >>= fun t -> args_terms (t :: acc) rest
          in
          args_terms [] args
      | V_fun _ -> return (Var "<function>")
      | V_io _ -> return (Var "<io>")
      | V_mvar mv -> return (Mvar (Mvar.id mv))
      | V_tid _ -> return (Var "<thread>")
    end
  in
  go v

type observation = {
  ending : ending;
  output : string;
  time : int;
  steps : int;
}

and ending =
  | Returned of Term.term
  | Uncaught of Term.exn_name
  | Deadlocked
  | Out_of_steps

let run_result ?config term =
  let program =
    io_of_term term >>= fun v ->
    perform_value v >>= fun result ->
    result () >>= readback
  in
  Runtime.run ?config program

let run ?config term =
  let r = run_result ?config term in
  {
    ending =
      (match r.Runtime.outcome with
      | Runtime.Value t -> Returned t
      | Runtime.Uncaught e -> Uncaught (exn_name_of_host e)
      | Runtime.Deadlock -> Deadlocked
      | Runtime.Out_of_steps -> Out_of_steps);
    output = r.Runtime.output;
    time = r.Runtime.time;
    steps = r.Runtime.steps;
  }
