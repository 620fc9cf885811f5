(* Small shared helpers for the test suites. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let rec go i =
      if i + nn > nh then false
      else if String.sub haystack i nn = needle then true
      else go (i + 1)
    in
    go 0
  end

(* ---------------- network servers and peers ---------------- *)

module Frame = Fb_net.Frame
module Server = Fb_net.Server

(* No periodic saver and no fixed port: tests must not collide. *)
let net_config = { Server.default_config with port = 0; save_every_s = 0.0 }

let start_server ?(config = net_config) ?save fb =
  match Server.start ~config ?save fb with
  | Ok srv -> srv
  | Error e -> Alcotest.fail e

let with_server ?config ?save fb f =
  let srv = start_server ?config ?save fb in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let ok_mux = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Fb_net.Mux.error_to_string e)

let with_mux ?user srv f =
  let m = ok_mux (Fb_net.Mux.connect ?user ~port:(Server.port srv) ()) in
  Fun.protect ~finally:(fun () -> Fb_net.Mux.close m) (fun () -> f m)

(* Generators for every wire shape.  Trace headers carry any trace-id
   bytes and any — including negative — parent span id. *)
let request_gen =
  let open QCheck.Gen in
  let tokens = small_list (string_size (0 -- 100)) in
  oneof
    [ map (fun t -> Frame.Single t) tokens;
      map (fun b -> Frame.Batch b) (small_list tokens) ]

let trace_gen =
  QCheck.Gen.(
    opt
      (map2
         (fun trace_id parent_span -> { Frame.trace_id; parent_span })
         (string_size (0 -- 40))
         (map2 (fun sign n -> if sign then n else -n - 1) bool
            (int_bound ((1 lsl 30) - 1)))))

let seq_gen = QCheck.Gen.(opt (int_bound ((1 lsl 30) - 1)))

let event_gen =
  let open QCheck.Gen in
  let s = string_size (0 -- 40) in
  map
    (fun (sub_id, ev_key, ev_branch, (new_head, old_head)) ->
      { Frame.sub_id; ev_key; ev_branch; new_head; old_head })
    (quad (int_bound ((1 lsl 30) - 1)) s s (pair s (opt s)))

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One reply frame as [(seq, response)]; [Error] when the server hung
   up, the deadline passed or the reply does not decode. *)
let raw_recv fd =
  match Frame.read_frame ~timeout_s:5.0 fd with
  | Ok payload ->
    Result.map
      (fun (_, seq, resp) -> (seq, resp))
      (Frame.decode_response payload)
  | Error e -> Error (Frame.error_to_string e)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let raw_send ?(user = "anonymous") fd tokens =
  match
    Frame.write_frame ~timeout_s:5.0 fd
      (Frame.encode_request ~user (Frame.Single tokens))
  with
  | Ok () -> Ok ()
  | Error e -> Error (Frame.error_to_string e)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* One untagged round trip, the way a peer without sequence ids talks:
   the reply must come back untagged.  The outer [Error] is a transport
   failure; the inner result is the server's typed reply. *)
let raw_call ?user fd tokens =
  match raw_send ?user fd tokens with
  | Error _ as e -> e
  | Ok () -> (
    match raw_recv fd with
    | Ok (None, Frame.One reply) -> Ok reply
    | Ok _ -> Error "untagged request got a tagged or non-single reply"
    | Error _ as e -> e)

let http_get port path =
  let fd = raw_connect port in
  Fun.protect
    ~finally:(fun () -> close_quiet fd)
    (fun () ->
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      Buffer.contents buf)

let status_of reply =
  match String.index_opt reply ' ' with
  | Some i when String.length reply >= i + 4 -> String.sub reply (i + 1) 3
  | _ -> "???"
