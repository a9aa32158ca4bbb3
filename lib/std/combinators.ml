open Hio
open Io

(* The paper (§7.1) writes these with [block (... unblock ...)]; we use the
   restore-passing [mask] instead, so that e.g. [block (finally a b)] does
   not silently re-enable delivery inside [a] — see the discussion at
   {!Io.unblock}. Under an unmasked caller, [restore] ≡ [unblock] and the
   behaviour is the paper's. *)

let finally a b =
  mask (fun restore ->
      catch (restore a) (fun e -> b >>= fun () -> throw e) >>= fun r ->
      b >>= fun () -> return r)

let later b a = finally a b

let on_exception a b =
  mask (fun restore ->
      catch (restore a) (fun e -> b >>= fun () -> throw e))

let bracket acquire use release =
  mask (fun restore ->
      acquire >>= fun a ->
      catch (restore (use a)) (fun e ->
          release a >>= fun _ -> throw e)
      >>= fun r ->
      release a >>= fun _ -> return r)

let bracket_ acquire use release =
  bracket acquire (fun _ -> use) (fun _ -> release)

(* §7.2, following the paper's implementation: two children race to fill a
   single result MVar; the parent waits in a loop that forwards every
   asynchronous exception it receives to both children, and finally kills
   both. The [throw_to] calls after the loop are non-interruptible (the
   asynchronous design of §8.2), so both children are guaranteed to be
   killed before we return. *)
type ('a, 'b) race_result = A of 'a | B of 'b | X of exn

let either a b =
  Mvar.new_empty >>= fun m ->
  block
    ( fork
        (catch
           (unblock a >>= fun r -> Mvar.put m (A r))
           (fun e -> Mvar.put m (X e)))
    >>= fun aid ->
      fork
        (catch
           (unblock b >>= fun r -> Mvar.put m (B r))
           (fun e -> Mvar.put m (X e)))
      >>= fun bid ->
      let rec loop () =
        catch (Mvar.take m) (fun e ->
            throw_to aid e >>= fun () ->
            throw_to bid e >>= fun () -> loop ())
      in
      loop () >>= fun r ->
      throw_to aid Kill_thread >>= fun () ->
      throw_to bid Kill_thread >>= fun () ->
      match r with
      | A x -> return (Either.Left x)
      | B x -> return (Either.Right x)
      | X e -> throw e )

type 'a settled = Ok_r of 'a | Err_r of exn

let both a b =
  Mvar.new_empty >>= fun ma ->
  Mvar.new_empty >>= fun mb ->
  block
    ( fork
        (catch
           (unblock a >>= fun r -> Mvar.put ma (Ok_r r))
           (fun e -> Mvar.put ma (Err_r e)))
    >>= fun aid ->
      fork
        (catch
           (unblock b >>= fun r -> Mvar.put mb (Ok_r r))
           (fun e -> Mvar.put mb (Err_r e)))
      >>= fun bid ->
      let rec wait_for m =
        catch (Mvar.take m) (fun e ->
            throw_to aid e >>= fun () ->
            throw_to bid e >>= fun () -> wait_for m)
      in
      wait_for ma >>= fun ra ->
      match ra with
      | Err_r e -> throw_to bid Kill_thread >>= fun () -> throw e
      | Ok_r x -> (
          wait_for mb >>= fun rb ->
          match rb with
          | Err_r e -> throw e
          | Ok_r y -> return (x, y)) )

let throw_to_all tids e =
  let rec go = function
    | [] -> return ()
    | t :: rest -> throw_to t e >>= fun () -> go rest
  in
  go tids

let race actions =
  if actions = [] then throw (Invalid_argument "Combinators.race: empty list")
  else
    Mvar.new_empty >>= fun result ->
    block
      (let rec spawn_all acc = function
         | [] -> return (List.rev acc)
         | action :: rest ->
             fork
               (catch
                  (unblock action >>= fun r -> Mvar.put result (Ok_r r))
                  (fun e -> Mvar.put result (Err_r e)))
             >>= fun tid -> spawn_all (tid :: acc) rest
       in
       spawn_all [] actions >>= fun tids ->
       let rec wait () =
         catch (Mvar.take result) (fun e ->
             throw_to_all tids e >>= fun () -> wait ())
       in
       wait () >>= fun first ->
       throw_to_all tids Kill_thread >>= fun () ->
       match first with Ok_r r -> return r | Err_r e -> throw e)

let parallel actions =
  let rec make_cells acc = function
    | [] -> return (List.rev acc)
    | _ :: rest ->
        Mvar.new_empty >>= fun mv -> make_cells (mv :: acc) rest
  in
  make_cells [] actions >>= fun cells ->
  block
    (let rec spawn_all tids = function
       | [] -> return (List.rev tids)
       | (action, cell) :: rest ->
           fork
             (catch
                (unblock action >>= fun r -> Mvar.put cell (Ok_r r))
                (fun e -> Mvar.put cell (Err_r e)))
           >>= fun tid -> spawn_all (tid :: tids) rest
     in
     spawn_all [] (List.combine actions cells) >>= fun tids ->
     let rec wait_cell cell =
       catch (Mvar.take cell) (fun e ->
           throw_to_all tids e >>= fun () -> wait_cell cell)
     in
     let rec collect acc = function
       | [] -> return (List.rev acc)
       | cell :: rest -> (
           wait_cell cell >>= function
           | Ok_r r -> collect (r :: acc) rest
           | Err_r e -> throw_to_all tids Kill_thread >>= fun () -> throw e)
     in
     collect [] cells)

let parallel_map f xs = parallel (List.map f xs)

(* §7.3 on the timer wheel. The paper races a private clock thread
   ([either (sleep t) a]); we instead arm a wheel deadline whose token is
   posted to *this* thread — no forked clock thread per call, O(1) arm and
   cancel, so 100k concurrent timeouts are fine. The action still runs in
   a child (with the caller's mask restored), so a universal handler
   inside [a] cannot intercept the deadline: the token lands in the
   parent, which is only ever blocked at the interruptible [take]. Each
   call's token carries a unique id ([Io.is_timer_signal]), so nested
   timeouts cannot be confused for one another — the §7.3 composability
   argument, transplanted from thread identity to timer identity. Other
   asynchronous exceptions received while waiting are propagated to the
   child, as in [either]. [cancel_timer] also purges an already-posted
   token, so a timeout that returns [Some] cannot leave a ghost
   [Timer_signal] behind (pinned by the props suite). *)
let timeout t a =
  Mvar.new_empty >>= fun m ->
  mask (fun restore ->
      fork
        (catch
           (restore a >>= fun r -> Mvar.put m (Ok_r r))
           (fun e -> Mvar.put m (Err_r e)))
      >>= fun child ->
      arm_timer t >>= fun alarm ->
      let rec wait () =
        catch
          (Mvar.take m >>= fun s -> return (Some s))
          (fun e ->
            if is_timer_signal alarm e then
              throw_to child Kill_thread >>= fun () -> return None
            else throw_to child e >>= fun () -> wait ())
      in
      wait () >>= function
      | None -> return None
      | Some s -> (
          cancel_timer alarm >>= fun () ->
          match s with Ok_r r -> return (Some r) | Err_r e -> throw e))

let safe_point = unblock (return ())

let critical io =
  let rec go () =
    catch io (fun e ->
        my_thread_id >>= fun me ->
        throw_to me e >>= fun () -> go ())
  in
  go ()

let critical_take mvar = critical (Mvar.take mvar)

let rec forever action = action >>= fun () -> forever action

let rec repeat n action =
  if n <= 0 then return () else action >>= fun () -> repeat (n - 1) action
