module Codec = Fb_codec.Codec
module Errors = Fb_core.Errors

type error =
  | Eof
  | Timeout
  | Too_large of int
  | Malformed of string

let error_to_string = function
  | Eof -> "connection closed"
  | Timeout -> "timed out"
  | Too_large n -> Printf.sprintf "frame too large (%d bytes)" n
  | Malformed msg -> "malformed frame: " ^ msg

let default_max_frame = 16 * 1024 * 1024

(* A frame length needs at most 5 varint bytes (2^35 > any sane
   max_frame); more means the peer is speaking something else. *)
let max_len_bytes = 5

(* ------------------------- pure codecs ------------------------- *)

let encode_frame payload = Codec.to_string Codec.bytes payload

let decode_frame ?(max_frame = default_max_frame) ?(pos = 0) buf =
  let n = String.length buf in
  let rec varint i shift acc count =
    if count >= max_len_bytes then Error (Malformed "length varint too long")
    else if i >= n then Ok `Need_more
    else
      let b = Char.code (String.unsafe_get buf i) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 <> 0 then varint (i + 1) (shift + 7) acc (count + 1)
      else if b = 0 && count > 0 then Error (Malformed "non-minimal length")
      else if acc > max_frame then Error (Too_large acc)
      else if n - (i + 1) < acc then Ok `Need_more
      else Ok (`Frame (String.sub buf (i + 1) acc, i + 1 + acc))
  in
  varint pos 0 0 0

(* Version 2: requests are tagged single/batch, responses carry a typed
   status ahead of the payload (v1 carried a bare bool + pre-rendered
   English).  v1 frames are rejected by version number — the shapes are
   deliberately not bridgeable, so old clients get a clean error instead
   of a misparse. *)
let protocol_version = 2

type request = Single of string list | Batch of string list list

type trace = { trace_id : string; parent_span : int }

let kind_single = 0
let kind_batch = 1

(* Trace context and the pipelining sequence id ride in the same v2
   envelope behind flag bits on the kind byte: a header-less v2 frame
   (kind byte 0 or 1) is still a valid v2 frame, so tracing-unaware and
   pipelining-unaware peers interoperate unchanged.  The trace header
   sits between [user] and the body; the sequence id follows it.

   The sequence id is what makes request pipelining safe: a client may
   keep many tagged requests in flight on one socket, the server answers
   each reply (and server-initiated watch events) tagged, and the client
   matches replies out of order.  Requests without a sequence id keep
   strict in-order request/response semantics. *)
let flag_trace = 0x80
let flag_seq = 0x40
let kind_mask = 0x3f

let write_envelope_headers w ~trace ~seq =
  (match trace with
   | Some t ->
     Codec.bytes w t.trace_id;
     Codec.zigzag w t.parent_span
   | None -> ());
  match seq with Some s -> Codec.varint w s | None -> ()

let flags_of ~trace ~seq =
  (match trace with Some _ -> flag_trace | None -> 0)
  lor (match seq with Some _ -> flag_seq | None -> 0)

let read_envelope_headers r kind_byte =
  let trace =
    if kind_byte land flag_trace <> 0 then begin
      let trace_id = Codec.read_bytes r in
      let parent_span = Codec.read_zigzag r in
      Some { trace_id; parent_span }
    end
    else None
  in
  let seq =
    if kind_byte land flag_seq <> 0 then Some (Codec.read_varint r) else None
  in
  (trace, seq)

let encode_request ~user ?trace ?seq req =
  Codec.to_string
    (fun w () ->
      Codec.u8 w protocol_version;
      let kind =
        (match req with Single _ -> kind_single | Batch _ -> kind_batch)
        lor flags_of ~trace ~seq
      in
      Codec.u8 w kind;
      Codec.bytes w user;
      write_envelope_headers w ~trace ~seq;
      match req with
      | Single tokens -> Codec.list w Codec.bytes tokens
      | Batch reqs ->
        Codec.list w (fun w tokens -> Codec.list w Codec.bytes tokens) reqs)
    ()

let decode_request payload =
  Codec.of_string
    (fun r ->
      let v = Codec.read_u8 r in
      if v <> protocol_version then
        raise
          (Codec.Decode_error
             (Printf.sprintf
                "unsupported protocol version %d (this server speaks %d)" v
                protocol_version));
      let kind_byte = Codec.read_u8 r in
      let kind = kind_byte land kind_mask in
      let user = Codec.read_bytes r in
      let trace, seq = read_envelope_headers r kind_byte in
      if kind = kind_single then
        (user, trace, seq, Single (Codec.read_list r Codec.read_bytes))
      else if kind = kind_batch then
        ( user,
          trace,
          seq,
          Batch (Codec.read_list r (fun r -> Codec.read_list r Codec.read_bytes))
        )
      else
        raise
          (Codec.Decode_error (Printf.sprintf "unknown request kind %d" kind)))
    payload

(* ------------------------- typed status ------------------------- *)

(* Stable wire codes for Errors.t — the status tag ahead of every
   response payload.  String rendering happens only at the CLI/stdio
   edge; remote callers pattern-match the typed value. *)

let status_ok = 0

let error_code = function
  | Errors.Key_not_found _ -> 1
  | Errors.Branch_not_found _ -> 2
  | Errors.Version_not_found _ -> 3
  | Errors.Permission_denied _ -> 4
  | Errors.Merge_conflict _ -> 5
  | Errors.Type_mismatch _ -> 6
  | Errors.Corrupt _ -> 7
  | Errors.Transient _ -> 8
  | Errors.Invalid _ -> 9

let write_error w (e : Errors.t) =
  Codec.u8 w (error_code e);
  match e with
  | Errors.Key_not_found k -> Codec.bytes w k
  | Errors.Branch_not_found { key; branch } ->
    Codec.bytes w key;
    Codec.bytes w branch
  | Errors.Version_not_found v -> Codec.bytes w v
  | Errors.Permission_denied { user; action } ->
    Codec.bytes w user;
    Codec.bytes w action
  | Errors.Merge_conflict { key; details } ->
    Codec.bytes w key;
    Codec.list w Codec.bytes details
  | Errors.Type_mismatch { expected; got } ->
    Codec.bytes w expected;
    Codec.bytes w got
  | Errors.Corrupt msg | Errors.Transient msg | Errors.Invalid msg ->
    Codec.bytes w msg

let read_error r code : Errors.t =
  match code with
  | 1 -> Errors.Key_not_found (Codec.read_bytes r)
  | 2 ->
    let key = Codec.read_bytes r in
    let branch = Codec.read_bytes r in
    Errors.Branch_not_found { key; branch }
  | 3 -> Errors.Version_not_found (Codec.read_bytes r)
  | 4 ->
    let user = Codec.read_bytes r in
    let action = Codec.read_bytes r in
    Errors.Permission_denied { user; action }
  | 5 ->
    let key = Codec.read_bytes r in
    let details = Codec.read_list r Codec.read_bytes in
    Errors.Merge_conflict { key; details }
  | 6 ->
    let expected = Codec.read_bytes r in
    let got = Codec.read_bytes r in
    Errors.Type_mismatch { expected; got }
  | 7 -> Errors.Corrupt (Codec.read_bytes r)
  | 8 -> Errors.Transient (Codec.read_bytes r)
  | 9 -> Errors.Invalid (Codec.read_bytes r)
  | c -> raise (Codec.Decode_error (Printf.sprintf "unknown error code %d" c))

type reply = (string, Errors.t) result

(* Server-initiated push: one branch-head movement delivered to one
   subscription (the SUBSCRIBE verb).  Heads travel in their rendered
   (Base32) form like every other uid on this protocol. *)
type event = {
  sub_id : int;
  ev_key : string;
  ev_branch : string;
  new_head : string;
  old_head : string option;
}

type response = One of reply | Many of reply list | Event of event

let kind_event = 2

let write_reply w (reply : reply) =
  match reply with
  | Ok payload ->
    Codec.u8 w status_ok;
    Codec.bytes w payload
  | Error e -> write_error w e

let read_reply r : reply =
  let code = Codec.read_u8 r in
  if code = status_ok then Ok (Codec.read_bytes r) else Error (read_error r code)

let encode_response ?trace ?seq resp =
  Codec.to_string
    (fun w () ->
      let kind =
        (match resp with
         | One _ -> kind_single
         | Many _ -> kind_batch
         | Event _ -> kind_event)
        lor flags_of ~trace ~seq
      in
      Codec.u8 w kind;
      write_envelope_headers w ~trace ~seq;
      match resp with
      | One reply -> write_reply w reply
      | Many replies -> Codec.list w write_reply replies
      | Event e ->
        Codec.varint w e.sub_id;
        Codec.bytes w e.ev_key;
        Codec.bytes w e.ev_branch;
        Codec.bytes w e.new_head;
        (match e.old_head with
         | None -> Codec.bool w false
         | Some h ->
           Codec.bool w true;
           Codec.bytes w h))
    ()

let decode_response payload =
  Codec.of_string
    (fun r ->
      let kind_byte = Codec.read_u8 r in
      let kind = kind_byte land kind_mask in
      let trace, seq = read_envelope_headers r kind_byte in
      let resp =
        if kind = kind_single then One (read_reply r)
        else if kind = kind_batch then Many (Codec.read_list r read_reply)
        else if kind = kind_event then begin
          let sub_id = Codec.read_varint r in
          let ev_key = Codec.read_bytes r in
          let ev_branch = Codec.read_bytes r in
          let new_head = Codec.read_bytes r in
          let old_head =
            if Codec.read_bool r then Some (Codec.read_bytes r) else None
          in
          Event { sub_id; ev_key; ev_branch; new_head; old_head }
        end
        else
          raise
            (Codec.Decode_error
               (Printf.sprintf "unknown response kind %d" kind))
      in
      (trace, seq, resp))
    payload

(* ------------------------- socket IO ------------------------- *)

(* All socket deadlines funnel through here: [timeout_s <= 0.] (or
   [None]) uniformly means "no deadline" for connect, read and write
   paths alike. *)
let deadline_of_timeout timeout_s =
  match timeout_s with
  | Some t when t > 0.0 -> Some (Unix.gettimeofday () +. t)
  | _ -> None

let rec wait_fd ~read fd deadline =
  match deadline with
  | None -> Ok ()
  | Some t ->
    let remaining = t -. Unix.gettimeofday () in
    if remaining <= 0.0 then Error Timeout
    else
      (* Round up so the wait never ends before the deadline; a timeout
         (or EINTR) re-checks the clock and reports it. *)
      let timeout_ms = int_of_float (Float.ceil (remaining *. 1000.0)) in
      if Ev.wait_one fd ~read ~timeout_ms:(min timeout_ms 1_000_000_000) then
        Ok ()
      else wait_fd ~read fd deadline

let wait_readable fd deadline = wait_fd ~read:true fd deadline
let wait_writable fd deadline = wait_fd ~read:false fd deadline

let read_byte fd deadline buf1 =
  let rec go () =
    match wait_readable fd deadline with
    | Error _ as e -> e
    | Ok () -> (
      match Unix.read fd buf1 0 1 with
      | 0 -> Error Eof
      | _ -> Ok (Char.code (Bytes.unsafe_get buf1 0))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let read_frame ?(max_frame = default_max_frame) ?timeout_s fd =
  let deadline = deadline_of_timeout timeout_s in
  let buf1 = Bytes.create 1 in
  let rec read_len shift acc count =
    if count >= max_len_bytes then Error (Malformed "length varint too long")
    else
      match read_byte fd deadline buf1 with
      | Error _ as e -> e
      | Ok b ->
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 <> 0 then read_len (shift + 7) acc (count + 1)
        else if b = 0 && count > 0 then Error (Malformed "non-minimal length")
        else if acc > max_frame then Error (Too_large acc)
        else Ok acc
  in
  match read_len 0 0 0 with
  | Error _ as e -> e
  | Ok len ->
    let buf = Bytes.create len in
    let rec fill off =
      if off >= len then Ok (Bytes.unsafe_to_string buf)
      else
        match wait_readable fd deadline with
        | Error _ as e -> e
        | Ok () -> (
          match Unix.read fd buf off (len - off) with
          | 0 -> Error Eof
          | k -> fill (off + k)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off)
    in
    fill 0

let write_frame ?timeout_s fd payload =
  let deadline = deadline_of_timeout timeout_s in
  let s = encode_frame payload in
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off >= len then Ok ()
    else
      match wait_writable fd deadline with
      | Error _ as e -> e
      | Ok () -> (
        match Unix.write fd b off (len - off) with
        | k -> go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off)
  in
  go 0

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
    match (Unix.gethostbyname host).Unix.h_addr_list with
    | [||] -> Error (Printf.sprintf "host %s has no address" host)
    | addrs -> Ok addrs.(0)
    | exception Not_found -> Error (Printf.sprintf "unknown host %s" host))
