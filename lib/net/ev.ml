(* Readiness notification for the event-loop server.

   The interest set is persistent: callers register an fd once with
   [modify] and update or drop it when their interest changes, instead
   of rebuilding the whole set before every wait.  That shape is what
   lets the Linux backend use epoll(7), whose wait cost is O(ready fds);
   poll(2) — the portable fallback, also the only option on non-Linux
   hosts — walks every registered fd per wait and would make tail
   latency grow linearly with idle connections.

   Both stubs release the OCaml runtime lock for the duration of the
   wait so worker threads keep executing dispatches while the loop
   sleeps.  One loop thread owns an instance; it is not thread-safe. *)

external fd_int : Unix.file_descr -> int = "%identity"
(* On Unix a file_descr is the raw fd integer; this is the same identity
   the stdlib's own unixsupport uses. *)

external poll_raw :
  int array -> int array -> int array -> int -> int -> int = "fb_net_poll"

external epoll_create_raw : unit -> int = "fb_net_epoll_create"
external epoll_ctl_raw : int -> int -> int -> int -> unit = "fb_net_epoll_ctl"

external epoll_wait_raw :
  int -> int array -> int array -> int -> int -> int = "fb_net_epoll_wait"

external int_fd : int -> Unix.file_descr = "%identity"

let pollin = 1
let pollout = 2
let pollerr = 4

(* Ready entries of the last [wait] land in [ready_fds]/[ready_evs]
   regardless of backend.  Their size caps one wait's batch; with
   level-triggered semantics anything beyond the cap simply surfaces on
   the next wait. *)
let max_ready = 1024

type backend = Epoll of int | Poll

type t = {
  backend : backend;
  registered : (int, int) Hashtbl.t;  (* fd -> current interest mask *)
  ready_fds : int array;
  ready_evs : int array;
  (* poll-backend scratch, rebuilt from [registered] per wait *)
  mutable p_fds : int array;
  mutable p_events : int array;
  mutable p_revents : int array;
}

let create () =
  let backend =
    match epoll_create_raw () with
    | -1 -> Poll
    | epfd -> Epoll epfd
  in
  { backend;
    registered = Hashtbl.create 64;
    ready_fds = Array.make max_ready (-1);
    ready_evs = Array.make max_ready 0;
    p_fds = Array.make 64 (-1);
    p_events = Array.make 64 0;
    p_revents = Array.make 64 0 }

let backend_name t =
  match t.backend with Epoll _ -> "epoll" | Poll -> "poll"

(* Set [fd]'s interest mask; 0 drops it from the set.  Redundant calls
   (same mask, or dropping an unregistered fd) are free no-ops, so
   callers can re-sync interest after any state change without keeping
   score. *)
let modify t fd mask =
  let fd = fd_int fd in
  let current = Hashtbl.find_opt t.registered fd in
  match current, mask with
  | None, 0 -> ()
  | Some m, _ when m = mask -> ()
  | _ ->
    (match t.backend with
     | Poll -> ()
     | Epoll epfd ->
       let op =
         match current, mask with
         | None, _ -> 0 (* add *)
         | Some _, 0 -> 2 (* delete *)
         | Some _, _ -> 1 (* modify *)
       in
       epoll_ctl_raw epfd op fd mask);
    if mask = 0 then Hashtbl.remove t.registered fd
    else Hashtbl.replace t.registered fd mask

let remove t fd = modify t fd 0

let grow_poll t n =
  let cap = max n (Array.length t.p_fds * 2) in
  t.p_fds <- Array.make cap (-1);
  t.p_events <- Array.make cap 0;
  t.p_revents <- Array.make cap 0

let poll_wait t ~timeout_ms =
  let n = Hashtbl.length t.registered in
  if n > Array.length t.p_fds then grow_poll t n;
  let i = ref 0 in
  Hashtbl.iter
    (fun fd mask ->
      t.p_fds.(!i) <- fd;
      t.p_events.(!i) <- mask;
      t.p_revents.(!i) <- 0;
      incr i)
    t.registered;
  match poll_raw t.p_fds t.p_events t.p_revents n timeout_ms with
  (* EINTR: surface as "nothing ready" rather than retrying with the
     full timeout — under a signal storm the retry would restart the
     clock every time and the caller's lifecycle check (e.g.
     [Server.stop]'s is_running flag) could be starved indefinitely. *)
  | -1 -> 0
  | _ ->
    (* Compact ready entries to the front of the output arrays, bounded
       like the epoll path. *)
    let out = ref 0 in
    for j = 0 to n - 1 do
      if t.p_revents.(j) <> 0 && !out < max_ready then begin
        t.ready_fds.(!out) <- t.p_fds.(j);
        t.ready_evs.(!out) <- t.p_revents.(j);
        incr out
      end
    done;
    !out

let epoll_wait epfd t ~timeout_ms =
  match epoll_wait_raw epfd t.ready_fds t.ready_evs max_ready timeout_ms with
  | -1 -> 0 (* EINTR: same treatment as the poll path above *)
  | ready -> ready

(* Block until an fd is ready or [timeout_ms] elapses (-1 = forever);
   returns the number of ready entries, readable via [ready_fd] /
   [ready_events]. *)
let wait t ~timeout_ms =
  match t.backend with
  | Epoll epfd -> epoll_wait epfd t ~timeout_ms
  | Poll -> poll_wait t ~timeout_ms

let wait_one fd ~read ~timeout_ms =
  match
    poll_raw [| fd_int fd |] [| (if read then pollin else pollout) |] [| 0 |] 1
      timeout_ms
  with
  | 0 | -1 -> false (* timeout or EINTR *)
  | _ -> true

let ready_fd t i = t.ready_fds.(i)
let ready_events t i = t.ready_evs.(i)

let close t =
  match t.backend with
  | Poll -> ()
  | Epoll epfd -> ( try Unix.close (int_fd epfd) with Unix.Unix_error _ -> ())

let readable re = re land pollin <> 0
let writable re = re land pollout <> 0
let errored re = re land pollerr <> 0
