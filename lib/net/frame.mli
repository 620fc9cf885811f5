(** Wire format of the ForkBase network service (protocol version 2).

    Every message — request or response — travels as one {e frame}: an
    unsigned LEB128 varint length (minimal form, same as {!Fb_codec}'s
    integers) followed by exactly that many payload bytes.  Length-prefixed
    framing makes the stream unambiguous for payloads containing newlines,
    quotes or arbitrary binary — the failure mode of the line-oriented
    transport it replaces.

    Frame payloads are themselves {!Fb_codec} values:

    {v
    request  ::= u8 version(=2) | u8 kind' | bytes user | trace? | seq? | body
      kind' = kind lor 0x80 (trace header present)
                   lor 0x40 (sequence id present)
      trace           : bytes trace-id | zigzag parent-span-id
      seq             : varint sequence-id
      kind 0 (single) : body = list<bytes> tokens
      kind 1 (batch)  : body = list< list<bytes> > sub-requests
    response ::= u8 kind' | trace? | seq? | body
      kind 0 (single) : body = reply
      kind 1 (batch)  : body = list<reply>
      kind 2 (event)  : body = varint sub-id | bytes key | bytes branch
                             | bytes new-head | bool | bytes old-head?
    reply    ::= u8 status | fields
      status 0        : bytes payload
      status 1..9     : the fields of the matching Errors.t constructor
    v}

    The trace header carries the caller's {!Fb_obs.Obs} position — a
    128-bit trace id (32 hex chars) and the client span id that server
    spans should parent under — so one trace id links client-side and
    server-side spans of a request.  It is strictly optional: a
    header-less v2 frame (kind byte [0]/[1]) parses exactly as before,
    which keeps tracing-unaware peers and [FB_OBS=0] clients
    compatible.

    The sequence id (flag [0x40], alongside the [0x80] trace bit) is the
    pipelining handle: a client may keep many tagged requests in flight
    on one connection; the server echoes each request's sequence id on
    its reply, which may therefore arrive out of order.  Requests
    without a sequence id retain strict in-order request/response
    semantics.  Response kind [2] is a {e server-initiated} frame: a
    branch-head movement pushed to a SUBSCRIBE registration, tagged with
    the subscription id (never a sequence id) and — when the mutating
    request was traced — the writer's trace header, so a push can be
    correlated with the write that caused it.

    [tokens] is the verb + arguments exactly as {!Fb_core.Service.dispatch}
    consumes them — no re-tokenization happens server-side.  A batch
    frame carries N sub-requests that the server executes under a single
    lock acquisition, answering with one reply per sub-request in order
    (round-trip and locking amortization — the BATCH wire verb).

    Replies carry a {e typed} status: [Ok payload] or [Error] with the
    {!Fb_core.Errors.t} constructor encoded field by field, so remote
    callers recover the same typed errors local callers get and string
    rendering stays at the CLI edge.  Version 1 frames (bool + rendered
    English) are rejected by version number with a clean error.

    The pure codecs below operate on strings (testable without sockets);
    the [_frame] IO operates on file descriptors with an optional
    deadline and a maximum frame size, so one bad peer can neither wedge
    a reader forever nor make it allocate unboundedly. *)

type error =
  | Eof        (** peer closed the stream *)
  | Timeout    (** deadline expired *)
  | Too_large of int  (** announced length exceeds the frame limit *)
  | Malformed of string  (** unparsable length prefix *)

val error_to_string : error -> string

val default_max_frame : int
(** 16 MiB. *)

val protocol_version : int
(** 2. *)

(** {1 Pure codecs} *)

val encode_frame : string -> string
(** Varint length + payload. *)

val decode_frame :
  ?max_frame:int -> ?pos:int -> string ->
  ([ `Frame of string * int | `Need_more ], error) result
(** Decode one frame from [buf] starting at [pos].  [`Frame (payload,
    next)] returns the payload and the offset of the next frame;
    [`Need_more] means the buffer holds only a frame prefix.  Never
    raises. *)

type request =
  | Single of string list          (** one verb + arguments *)
  | Batch of string list list      (** N sub-requests, one lock, N replies *)

type trace = { trace_id : string; parent_span : int }
(** The optional trace header: the caller's trace id and the span the
    server should record its request span under. *)

val encode_request :
  user:string -> ?trace:trace -> ?seq:int -> request -> string
(** [seq] must be non-negative (it travels as an unsigned varint). *)

val decode_request :
  string -> (string * trace option * int option * request, string) result
(** [(user, trace, seq, request)]; rejects unknown protocol versions
    (including v1), unknown kinds and trailing garbage. *)

type reply = (string, Fb_core.Errors.t) result
(** What one verb returns across the wire — same type the local
    {!Fb_core.Service.dispatch} produces. *)

type event = {
  sub_id : int;            (** the SUBSCRIBE registration this is for *)
  ev_key : string;
  ev_branch : string;
  new_head : string;       (** rendered (Base32) version uid *)
  old_head : string option;  (** [None] when the branch was created *)
}
(** A branch-head movement pushed by the server — the wire form of
    {!Fb_core.Forkbase.head_event}. *)

type response = One of reply | Many of reply list | Event of event

val encode_response : ?trace:trace -> ?seq:int -> response -> string
val decode_response :
  string -> (trace option * int option * response, string) result
(** [(trace, seq, response)].  [seq] echoes the request's sequence id
    (always absent on [Event] frames); [trace] appears on [Event] frames
    pushed on behalf of a traced write. *)

(** {1 Socket IO} *)

val deadline_of_timeout : float option -> float option
(** [Some t] with [t > 0.] becomes an absolute deadline; [None] or a
    non-positive timeout means no deadline.  Every IO helper below (and
    {!Mux.dial}) derives its deadline through this single
    function, so "[<= 0.] disables" holds uniformly. *)

val wait_readable :
  Unix.file_descr -> float option -> (unit, error) result
val wait_writable :
  Unix.file_descr -> float option -> (unit, error) result
(** Block until the fd is ready or the absolute deadline passes.  Built
    on poll(2), so any fd number works (no FD_SETSIZE ceiling). *)

val write_frame :
  ?timeout_s:float -> Unix.file_descr -> string -> (unit, error) result
(** Write one complete frame; the optional deadline covers the whole
    frame.  @raise Unix.Unix_error on transport failure (e.g. [EPIPE]
    once the peer is gone). *)

val read_frame :
  ?max_frame:int -> ?timeout_s:float -> Unix.file_descr ->
  (string, error) result
(** Read one complete frame.  [timeout_s] bounds the {e whole} frame, so
    a byte-at-a-time peer cannot hold the reader past the deadline;
    omitted or [<= 0.] means block indefinitely.  On [Too_large] the
    length prefix has been consumed but the payload has not — the stream
    is desynchronized and the connection should be closed.  Never raises
    on EOF/timeout; [Unix.Unix_error] can still escape for genuine
    socket failures. *)

val resolve_host : string -> (Unix.inet_addr, string) result
(** Dotted quad, or a name via [gethostbyname]. *)
