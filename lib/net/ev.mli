(** Readiness notification for the event-loop server: epoll(7) on Linux,
    poll(2) everywhere else.

    The interest set is persistent — register an fd with {!modify},
    update its mask when interest changes, drop it with {!remove} — so
    the epoll backend pays O(changed fds) for registration and O(ready
    fds) per {!wait}.  That is the property that keeps tail latency flat
    across a C10K connection sweep; the poll fallback (non-Linux hosts)
    walks every registered fd per wait instead.  Neither backend shares
    select(2)'s FD_SETSIZE ceiling of 1024 descriptors.

    The C stubs release the OCaml runtime lock while blocked, so the
    worker pool keeps dispatching while the I/O loop sleeps.  One loop
    thread owns an instance; it is not thread-safe. *)

type t

val create : unit -> t
(** Picks epoll when the host supports it, else poll. *)

val backend_name : t -> string
(** ["epoll"] or ["poll"] — surfaced in /healthz. *)

val modify : t -> Unix.file_descr -> int -> unit
(** Set [fd]'s interest mask ({!pollin} lor {!pollout}); [0] drops the
    fd from the set.  Redundant calls are free no-ops. *)

val remove : t -> Unix.file_descr -> unit
(** [remove t fd] = [modify t fd 0]. *)

val wait : t -> timeout_ms:int -> int
(** Block until an fd is ready or [timeout_ms] elapses ([-1] = forever);
    returns the number of ready entries, read via {!ready_fd} /
    {!ready_events}.  A signal interruption ([EINTR]) returns 0 ready
    entries instead of retrying, so the calling loop re-checks its
    lifecycle promptly even under a signal storm; it never escapes as
    an exception.
    @raise Unix.Unix_error on genuine backend failure. *)

val wait_one : Unix.file_descr -> read:bool -> timeout_ms:int -> bool
(** One-shot poll(2) of a single fd for readability ([read]) or
    writability, without an instance: [true] once the fd is ready or
    errored, [false] on timeout or a signal interruption.  Any fd number
    works — the timed waits outside the loop ({!Frame.wait_readable})
    use it so no path has select(2)'s FD_SETSIZE ceiling. *)

val ready_fd : t -> int -> int
(** The raw fd number of the [i]-th ready entry of the last {!wait}. *)

val ready_events : t -> int -> int
(** The result mask of the [i]-th ready entry of the last {!wait}. *)

val close : t -> unit
(** Release the epoll instance fd (no-op for the poll backend). *)

val pollin : int
val pollout : int
val pollerr : int

val readable : int -> bool
val writable : int -> bool
val errored : int -> bool
(** [errored] covers error/hangup conditions — the connection is
    finished either way. *)

val fd_int : Unix.file_descr -> int
(** The raw fd number (identity on Unix). *)
