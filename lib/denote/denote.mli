(** Denotation of object-language terms into the hio runtime.

    This is the bridge between the paper's two artifacts: a Figure-1 term
    can be {e model-checked} against the formal semantics
    ({!Ch_semantics} / {!Ch_explore}) or {e executed} on the §8 runtime via
    this module — and the differential test suite checks that every
    runtime execution is one of the behaviours the semantics admits.

    The translation is call-by-name: variables bind suspended evaluations,
    constructors and MVar payloads hold thunks, and [return M] does not
    force [M] — mirroring the inner semantics. Object-level exceptions
    [#E] become the OCaml exception {!Obj_exn}; [#KillThread] and
    [#Timeout] are identified with {!Hio.Io.Kill_thread} and
    {!Hio.Io.Timeout} so that object programs and host combinators can
    interoperate. *)

open Ch_lang

exception Obj_exn of Term.exn_name
(** An object-language exception in flight on the runtime. *)

exception Ill_typed of string
(** Raised (as a host exception escaping {!Hio.Runtime.run}) when an
    ill-typed object program applies an integer, scrutinizes a function,
    etc. Well-typed programs never trigger it. *)

type observation = {
  ending : ending;
  output : string;
  time : int;
  steps : int;
}

and ending =
  | Returned of Term.term  (** main's result, deeply normalized *)
  | Uncaught of Term.exn_name
  | Deadlocked
  | Out_of_steps

val run : ?config:Hio.Runtime.Config.t -> Term.term -> observation
(** Denote, run, and observe a closed program whose result is a first-order
    value (integers, characters, constructors of such, ...). *)

val run_result :
  ?config:Hio.Runtime.Config.t -> Term.term -> Term.term Hio.Runtime.result
(** Like {!run}, but expose the full runtime result: the readback term as
    the outcome plus the scheduler accounting, per-domain statistics and
    the captured replay log — the raw material for [chrun run --domains
    --record] and [chrun replay]. *)
