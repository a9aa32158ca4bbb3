open Hio.Io

module Conn = struct
  (* Transport-agnostic since the Backend redesign: a connection is
     whatever record of operations the backend produced — in-memory
     bounded pipes ([Ev.Backend.sim]) or a non-blocking TCP socket
     ([Ev.Real]). The message layer below only ever goes through these
     operations, so it runs unchanged on either. *)
  type t = Ev.Backend.conn

  let send_string (conn : t) s = conn.Ev.Backend.c_send s
  let close (conn : t) = conn.Ev.Backend.c_close ()

  (* The most a single read asks for: one [Ev.Real] buffer. *)
  let chunk = 4096

  (* Reads chunks through the first '\n', so the bytes after the line
     stay in the transport. A '\r' pairs with the byte after it, so of a
     run of k '\r's just before the '\n', one — the one paired with the
     '\n' — is dropped exactly when k is odd; every other '\r' is kept. *)
  let recv_line (conn : t) =
    let rec go acc =
      conn.Ev.Backend.c_recv ~upto:(Some '\n') ~max:chunk >>= fun s ->
      if s.[String.length s - 1] <> '\n' then go (s :: acc)
      else
        let line =
          match acc with
          | [] -> s
          | _ -> String.concat "" (List.rev (s :: acc))
        in
        let n = String.length line - 1 in
        let rec crs k =
          if k < n && line.[n - 1 - k] = '\r' then crs (k + 1) else k
        in
        return (String.sub line 0 (n - (crs 0 land 1)))
    in
    go []

  (* Exactly [n] bytes, never reading past them. *)
  let recv_exactly (conn : t) n =
    let rec go n acc =
      if n = 0 then return (String.concat "" (List.rev acc))
      else
        conn.Ev.Backend.c_recv ~upto:None ~max:n >>= fun s ->
        go (n - String.length s) (s :: acc)
    in
    go n []
end

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

type response = { status : int; reason : string; body : string }

exception Bad_request of string

let split_header line =
  match String.index_opt line ':' with
  | None -> raise (Bad_request ("malformed header: " ^ line))
  | Some i ->
      let key = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      (key, value)

(* The part both messages share: headers to the blank line, then a
   [Content-Length] body. Malformed input is a synchronous [Bad_request]
   for either side. *)
let read_headers_and_body conn k =
  let rec read_headers acc =
    Conn.recv_line conn >>= fun line ->
    if String.trim line = "" then return (List.rev acc)
    else
      match split_header line with
      | header -> read_headers (header :: acc)
      | exception Bad_request m -> throw (Bad_request m)
  in
  read_headers [] >>= fun headers ->
  let content_length =
    match List.assoc_opt "content-length" headers with
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> -1)
    | None -> 0
  in
  if content_length < 0 then throw (Bad_request "bad content-length")
  else
    Conn.recv_exactly conn content_length >>= fun body -> k headers body

let read_request conn =
  Conn.recv_line conn >>= fun request_line ->
  (match String.split_on_char ' ' (String.trim request_line) with
  | [ meth; path; _version ] -> return (meth, path)
  | [ meth; path ] -> return (meth, path)
  | _ -> throw (Bad_request ("malformed request line: " ^ request_line)))
  >>= fun (meth, path) ->
  read_headers_and_body conn (fun headers body ->
      return { meth; path; headers; body })

let write_response conn { status; reason; body } =
  Conn.send_string conn
    (Printf.sprintf "HTTP/1.0 %d %s\r\ncontent-length: %d\r\n\r\n%s" status
       reason (String.length body) body)

let write_request conn { meth; path; headers; body } =
  let header_lines =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  let content =
    if body = "" then ""
    else Printf.sprintf "content-length: %d\r\n" (String.length body)
  in
  Conn.send_string conn
    (Printf.sprintf "%s %s HTTP/1.0\r\n%s%s\r\n%s" meth path header_lines
       content body)

let read_response conn =
  Conn.recv_line conn >>= fun status_line ->
  (match String.split_on_char ' ' (String.trim status_line) with
  | _version :: code :: reason -> (
      match int_of_string_opt code with
      | Some status -> return (status, String.concat " " reason)
      | None -> throw (Bad_request ("bad status line: " ^ status_line)))
  | _ -> throw (Bad_request ("bad status line: " ^ status_line)))
  >>= fun (status, reason) ->
  read_headers_and_body conn (fun _headers body ->
      return { status; reason; body })

let ok body = { status = 200; reason = "OK"; body }
let not_found = { status = 404; reason = "Not Found"; body = "not found" }

let timeout_response =
  { status = 504; reason = "Gateway Timeout"; body = "timed out" }

let bad_request m = { status = 400; reason = "Bad Request"; body = m }
