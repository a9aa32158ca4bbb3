open Hio
open Hio.Io

external monotonic_us : unit -> int = "hio_ev_monotonic_us" [@@noalloc]
external raise_nofile : int -> int = "hio_ev_raise_nofile" [@@noalloc]
external epoll_create : unit -> int = "hio_ev_epoll_create"

external epoll_ctl : int -> int -> int -> bool -> bool -> int
  = "hio_ev_epoll_ctl"

external epoll_wait : int -> int -> int array = "hio_ev_epoll_wait"

(* On Unix a [Unix.file_descr] is the fd number; these casts are how the
   int-typed runtime interface ([Io.wait_readable]) and the Unix API meet. *)
external fd_int : Unix.file_descr -> int = "%identity"
external int_fd : int -> Unix.file_descr = "%identity"

let now_us () =
  let t = monotonic_us () in
  if t >= 0 then t else int_of_float (Unix.gettimeofday () *. 1e6)

(* ---- readiness: epoll, with a select fallback ------------------------- *)

let epoll_source epfd =
  let registered : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let es_modify ~fd ~read ~write =
    if read || write then
      if Hashtbl.mem registered fd then
        ignore (epoll_ctl epfd 1 fd read write)
      else begin
        Hashtbl.replace registered fd ();
        ignore (epoll_ctl epfd 0 fd read write)
      end
    else if Hashtbl.mem registered fd then begin
      Hashtbl.remove registered fd;
      ignore (epoll_ctl epfd 2 fd false false)
    end
  in
  (* The kernel drops a closed fd from the epoll set by itself. *)
  let forget fd =
    let had = Hashtbl.mem registered fd in
    Hashtbl.remove registered fd;
    had
  in
  let es_wait ~timeout_us =
    let ms =
      match timeout_us with
      | None -> -1
      | Some us when us <= 0 -> 0
      | Some us -> (us + 999) / 1000
    in
    epoll_wait epfd ms
    |> Array.map (fun packed ->
           {
             Runtime.fde_fd = packed lsr 2;
             fde_readable = packed land 1 <> 0;
             fde_writable = packed land 2 <> 0;
           })
    |> Array.to_list
  in
  ({ Runtime.es_now = now_us; es_modify; es_wait }, forget)

let select_source () =
  let interest : (int, bool * bool) Hashtbl.t = Hashtbl.create 64 in
  let es_modify ~fd ~read ~write =
    if read || write then Hashtbl.replace interest fd (read, write)
    else Hashtbl.remove interest fd
  in
  (* [Unix.select] fails on a closed fd, so it must leave the set. *)
  let forget fd =
    let had = Hashtbl.mem interest fd in
    Hashtbl.remove interest fd;
    had
  in
  let es_wait ~timeout_us =
    let rs, ws =
      Hashtbl.fold
        (fun fd (r, w) (rs, ws) ->
          ((if r then int_fd fd :: rs else rs),
           if w then int_fd fd :: ws else ws))
        interest ([], [])
    in
    let timeout =
      match timeout_us with
      | None -> -1.
      | Some us when us <= 0 -> 0.
      | Some us -> float_of_int us /. 1e6
    in
    match Unix.select rs ws [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | rr, wr, _ ->
        let tbl = Hashtbl.create 16 in
        let note fd r w =
          let r0, w0 = try Hashtbl.find tbl fd with Not_found -> (false, false) in
          Hashtbl.replace tbl fd (r0 || r, w0 || w)
        in
        List.iter (fun fd -> note (fd_int fd) true false) rr;
        List.iter (fun fd -> note (fd_int fd) false true) wr;
        Hashtbl.fold
          (fun fd (r, w) acc ->
            { Runtime.fde_fd = fd; fde_readable = r; fde_writable = w } :: acc)
          tbl []
  in
  ({ Runtime.es_now = now_us; es_modify; es_wait }, forget)

(* A conn closed while a thread of this runtime still waits on its fd
   would never see readiness again: the fd is gone from the poller. So
   [on_close fd] drops the fd from the interest set and, when some
   thread was waiting on it, reports it readable and writable at the
   next wait. The woken thread's read or send sees the conn's [closed]
   flag and raises [End_of_file]; a thread woken this way on a reused
   fd number finds nothing to do and parks again. *)
let make_source () =
  let epfd = epoll_create () in
  let es, forget =
    if epfd >= 0 then epoll_source epfd else select_source ()
  in
  let closed = ref [] in
  let es_wait ~timeout_us =
    match !closed with
    | [] -> es.Runtime.es_wait ~timeout_us
    | fds ->
        closed := [];
        List.map
          (fun fd ->
            { Runtime.fde_fd = fd; fde_readable = true; fde_writable = true })
          fds
  in
  let on_close fd = if forget fd then closed := fd :: !closed in
  ({ es with Runtime.es_wait }, on_close)

(* ---- connections ------------------------------------------------------ *)

(* Syscalls run inside [lift] (one atomic scheduler step each) and never
   block: every socket is non-blocking, and EAGAIN parks the thread on
   the event manager via [wait_readable]/[wait_writable] — the new
   blocking effect, interruptible like every §5.3 wait. *)

type rbuf = { bytes : Bytes.t; mutable pos : int; mutable len : int }

(* Serve up to [max] buffered bytes, through the first [upto]. *)
let take b ~upto ~max =
  let avail = min max (b.len - b.pos) in
  let n =
    match upto with
    | None -> avail
    | Some c ->
        let rec scan i =
          if i >= avail then avail
          else if Bytes.get b.bytes (b.pos + i) = c then i + 1
          else scan (i + 1)
        in
        scan 0
  in
  let s = Bytes.sub_string b.bytes b.pos n in
  b.pos <- b.pos + n;
  s

(* Every operation checks [closed] inside its [lift], so a conn this end
   closed never touches its fd number again — by then the number may
   belong to a fresh connection. Bytes already buffered still drain. *)
let conn_of_fd ~on_close fd =
  let ifd = fd_int fd in
  let b = { bytes = Bytes.create 4096; pos = 0; len = 0 } in
  let closed = ref false in
  let refill () =
    if !closed then `Eof
    else
      match Unix.read fd b.bytes 0 (Bytes.length b.bytes) with
      | 0 -> `Eof
      | n ->
          b.pos <- 0;
          b.len <- n;
          `Ok
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Block
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Again
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          `Eof
  in
  (* One step per chunk: serve the buffer, refilling it first if empty. *)
  let rec recv ~upto ~max =
    lift (fun () ->
        if b.pos < b.len then `Got (take b ~upto ~max)
        else
          match refill () with
          | `Ok -> `Got (take b ~upto ~max)
          | (`Eof | `Block | `Again) as r -> r)
    >>= function
    | `Got s -> return s
    | `Again -> recv ~upto ~max
    | `Eof -> throw End_of_file
    | `Block -> wait_readable ifd >>= fun () -> recv ~upto ~max
  in
  let try_recv () =
    lift (fun () ->
        if b.pos < b.len || refill () = `Ok then begin
          let c = Bytes.get b.bytes b.pos in
          b.pos <- b.pos + 1;
          Some c
        end
        else None)
  in
  let send s =
    let n = String.length s in
    let rec go off =
      if off >= n then return ()
      else
        lift (fun () ->
            if !closed then `Eof
            else
              match Unix.write_substring fd s off (n - off) with
              | k -> `Wrote k
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  `Block
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Wrote 0
              | exception
                  Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                  `Eof)
        >>= function
        | `Wrote k -> go (off + k)
        | `Block -> wait_writable ifd >>= fun () -> go off
        | `Eof -> throw End_of_file
    in
    go 0
  in
  let close () =
    lift (fun () ->
        if not !closed then begin
          closed := true;
          on_close ifd;
          try Unix.close fd with Unix.Unix_error (_, _, _) -> ()
        end)
  in
  Backend.make_conn ~send ~recv ~try_recv ~close ~fd:(Some ifd)

(* ---- listeners -------------------------------------------------------- *)

let prepare_socket fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error (_, _, _) -> ())

let listen ~on_close ~backlog =
  lift (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen fd backlog;
      Unix.set_nonblock fd;
      let port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> 0
      in
      (fd, port))
  >>= fun (lfd, port) ->
  let ifd = fd_int lfd in
  let lclosed = ref false in
  let rec accept () =
    lift (fun () ->
        if !lclosed then `Closed
        else
          match Unix.accept ~cloexec:true lfd with
          | cfd, _ ->
              prepare_socket cfd;
              `Conn cfd
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              `Block
          | exception
              Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
              `Again)
    >>= function
    | `Conn cfd -> return (conn_of_fd ~on_close cfd)
    | `Closed -> throw End_of_file
    | `Again -> accept ()
    | `Block -> wait_readable ifd >>= fun () -> accept ()
  in
  let dial () =
    lift (fun () ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.set_nonblock fd;
        match
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
        with
        | () ->
            prepare_socket fd;
            `Ready fd
        | exception
            Unix.Unix_error
              ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
          ->
            `Wait fd)
    >>= function
    | `Ready fd -> return (conn_of_fd ~on_close fd)
    | `Wait fd -> (
        wait_writable (fd_int fd) >>= fun () ->
        lift (fun () ->
            match Unix.getsockopt_error fd with
            | None ->
                prepare_socket fd;
                None
            | Some e -> Some e)
        >>= function
        | None -> return (conn_of_fd ~on_close fd)
        | Some e -> throw (Unix.Unix_error (e, "connect", "")))
  in
  let close () =
    lift (fun () ->
        if not !lclosed then begin
          lclosed := true;
          try Unix.close lfd with Unix.Unix_error (_, _, _) -> ()
        end)
  in
  return
    {
      Backend.l_accept = accept;
      l_dial = dial;
      l_close = close;
      l_port = Some port;
    }

let create () =
  let source, on_close = make_source () in
  {
    Backend.b_name = "real";
    b_listen = (fun ~backlog -> listen ~on_close ~backlog);
    b_event_source = Some source;
  }

let fd_limit target = raise_nofile target

let readiness () =
  let e = epoll_create () in
  if e >= 0 then (
    Unix.close (int_fd e);
    "epoll")
  else "select"
