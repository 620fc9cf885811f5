/* poll(2) binding for the event-loop server.
 *
 * select(2) cannot register file descriptors numbered >= FD_SETSIZE
 * (1024 on Linux), which caps a select-driven loop far below the fd
 * budget the process actually has.  poll has no such limit: interest is
 * an array of (fd, events), sized by the caller.
 *
 * Calling convention (see Ev.poll): three int arrays of equal length --
 * fds, requested events, and an output array the stub fills with ready
 * events -- plus a timeout in milliseconds.  Event bits are the portable
 * subset: 1 = readable, 2 = writable, 4 = error/hangup/invalid.  The
 * runtime lock is released around the poll itself so worker threads keep
 * running while the loop sleeps; the pollfd array lives in C memory, so
 * a GC moving the OCaml arrays during the wait is harmless (results are
 * copied back only after the runtime is reacquired, through the rooted
 * values).
 */

#include <poll.h>
#include <errno.h>
#include <stdlib.h>

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#ifdef __linux__
#include <sys/epoll.h>
#include <unistd.h>
#endif

#define FB_POLL_IN 1
#define FB_POLL_OUT 2
#define FB_POLL_ERR 4

CAMLprim value fb_net_poll(value v_fds, value v_events, value v_revents,
                           value v_nfds, value v_timeout_ms)
{
  CAMLparam5(v_fds, v_events, v_revents, v_nfds, v_timeout_ms);
  long n = Long_val(v_nfds);
  int timeout = Int_val(v_timeout_ms);
  struct pollfd *pfds = NULL;
  int ret;
  long i;

  if (n < 0 || n > Wosize_val(v_fds) || n > Wosize_val(v_events)
      || n > Wosize_val(v_revents))
    caml_invalid_argument("Ev.poll: array lengths");

  if (n > 0) {
    pfds = malloc(sizeof(struct pollfd) * n);
    if (pfds == NULL) caml_raise_out_of_memory();
    for (i = 0; i < n; i++) {
      long ev = Long_val(Field(v_events, i));
      pfds[i].fd = Int_val(Field(v_fds, i));
      pfds[i].events = (short)(((ev & FB_POLL_IN) ? POLLIN : 0)
                               | ((ev & FB_POLL_OUT) ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
  }

  caml_release_runtime_system();
  ret = poll(pfds, (nfds_t)n, timeout);
  caml_acquire_runtime_system();

  if (ret < 0) {
    int err = errno;
    free(pfds);
    if (err == EINTR) CAMLreturn(Val_long(-1)); /* caller retries */
    caml_unix_error(err, "poll", Nothing);
  }

  for (i = 0; i < n; i++) {
    short re = pfds[i].revents;
    long out = 0;
    if (re & POLLIN) out |= FB_POLL_IN;
    if (re & POLLOUT) out |= FB_POLL_OUT;
    if (re & (POLLERR | POLLHUP | POLLNVAL)) out |= FB_POLL_ERR;
    Field(v_revents, i) = Val_long(out);
  }
  free(pfds);
  CAMLreturn(Val_long(ret));
}

/* epoll(7) binding (Linux only).  poll is O(registered fds) per wait --
 * the kernel walks the whole interest array even when one fd is ready,
 * so per-request latency grows with the number of idle connections.
 * epoll keeps the interest set in the kernel and each wait costs
 * O(ready fds), which is what makes p99 flat across a C10K connection
 * sweep.  On non-Linux hosts fb_net_epoll_create returns -1 and the
 * OCaml side falls back to the poll path above.
 *
 * Event bits are the same portable triple as fb_net_poll.  Registration
 * ops: 0 = add, 1 = modify, 2 = delete (the OCaml wrapper tracks what
 * is registered, so the op is always known in advance). */

CAMLprim value fb_net_epoll_create(value v_unit)
{
#ifdef __linux__
  int fd = epoll_create1(0);
  (void)v_unit;
  return Val_int(fd); /* -1 on failure: caller falls back to poll */
#else
  (void)v_unit;
  return Val_int(-1);
#endif
}

CAMLprim value fb_net_epoll_ctl(value v_epfd, value v_op, value v_fd,
                                value v_events)
{
#ifdef __linux__
  static const int ops[3] = { EPOLL_CTL_ADD, EPOLL_CTL_MOD, EPOLL_CTL_DEL };
  struct epoll_event ev;
  long opi = Long_val(v_op);
  long mask = Long_val(v_events);
  if (opi < 0 || opi > 2) caml_invalid_argument("Ev.epoll_ctl: op");
  ev.events = ((mask & FB_POLL_IN) ? EPOLLIN : 0)
              | ((mask & FB_POLL_OUT) ? EPOLLOUT : 0);
  ev.data.fd = Int_val(v_fd);
  if (epoll_ctl(Int_val(v_epfd), ops[opi], Int_val(v_fd), &ev) < 0)
    caml_unix_error(errno, "epoll_ctl", Nothing);
  return Val_unit;
#else
  (void)v_epfd; (void)v_op; (void)v_fd; (void)v_events;
  caml_invalid_argument("Ev.epoll_ctl: epoll unsupported on this platform");
#endif
}

CAMLprim value fb_net_epoll_wait(value v_epfd, value v_fds, value v_revents,
                                 value v_max, value v_timeout_ms)
{
#ifdef __linux__
  CAMLparam5(v_epfd, v_fds, v_revents, v_max, v_timeout_ms);
  long max = Long_val(v_max);
  int timeout = Int_val(v_timeout_ms);
  struct epoll_event *evs;
  int ret;
  long i;

  if (max <= 0 || max > Wosize_val(v_fds) || max > Wosize_val(v_revents))
    caml_invalid_argument("Ev.epoll_wait: array lengths");
  evs = malloc(sizeof(struct epoll_event) * max);
  if (evs == NULL) caml_raise_out_of_memory();

  caml_release_runtime_system();
  ret = epoll_wait(Int_val(v_epfd), evs, (int)max, timeout);
  caml_acquire_runtime_system();

  if (ret < 0) {
    int err = errno;
    free(evs);
    if (err == EINTR) CAMLreturn(Val_long(-1)); /* caller retries */
    caml_unix_error(err, "epoll_wait", Nothing);
  }
  for (i = 0; i < ret; i++) {
    long out = 0;
    if (evs[i].events & EPOLLIN) out |= FB_POLL_IN;
    if (evs[i].events & EPOLLOUT) out |= FB_POLL_OUT;
    if (evs[i].events & (EPOLLERR | EPOLLHUP)) out |= FB_POLL_ERR;
    Field(v_fds, i) = Val_long(evs[i].data.fd);
    Field(v_revents, i) = Val_long(out);
  }
  free(evs);
  CAMLreturn(Val_long(ret));
#else
  (void)v_epfd; (void)v_fds; (void)v_revents; (void)v_max; (void)v_timeout_ms;
  caml_invalid_argument("Ev.epoll_wait: epoll unsupported on this platform");
#endif
}
