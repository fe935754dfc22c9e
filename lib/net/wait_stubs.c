/* The driver's wait: ppoll(2) over a fixed array of fds, allocating
   nothing on the OCaml heap.

   [sf_net_wait fds ready timeout] waits until one of [fds] is readable
   or [timeout] seconds pass, then writes one flag per fd into [ready]
   (byte i is 1 when fds.(i) is readable, in select's sense: data, an
   error such as a pending ICMP port-unreachable, or a hang-up) and
   returns the number of ready fds.  A signal or a transient resource
   squeeze (EINTR, EAGAIN) returns -1 with [ready] untouched, for the
   caller to retry.  Any other failure raises [Unix.Unix_error], and so
   does a closed fd (POLLNVAL, reported as EBADF), as [Unix.select]
   does.

   The timeout is a timespec, not poll(2)'s whole milliseconds, which
   would either fire millisecond-scale timers late or spin.  It is
   clamped to [0, 10^6] seconds.

   The fds are copied into C memory before the runtime lock is released,
   and no OCaml value is touched until it is taken back: another domain's
   collection may move [fds] and [ready] in between. */

#define _GNU_SOURCE
#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <time.h>

#define CAML_NAME_SPACE
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

CAMLprim intnat sf_net_wait(value fds, value ready, double timeout)
{
  CAMLparam2(fds, ready);
  mlsize_t n = Wosize_val(fds);
  struct pollfd *polled;
  struct timespec span;
  unsigned char *flags;
  int result, error, closed = 0;
  mlsize_t i;

  if (caml_string_length(ready) < n)
    caml_invalid_argument("Driver wait: ready flags shorter than fds");
  /* Run pending signal handlers now, while nothing needs freeing if one
     raises; the section below is entered without running them again. */
  caml_process_pending_actions();
  polled = malloc(n * sizeof *polled);
  if (polled == NULL) caml_raise_out_of_memory();
  for (i = 0; i < n; i++) {
    polled[i].fd = Int_val(Field(fds, i));
    polled[i].events = POLLIN;
    polled[i].revents = 0;
  }
  if (!(timeout > 0.)) timeout = 0.;
  if (timeout > 1e6) timeout = 1e6;
  span.tv_sec = (time_t) timeout;
  span.tv_nsec = (long) ((timeout - (double) span.tv_sec) * 1e9);
  if (span.tv_nsec > 999999999L) span.tv_nsec = 999999999L;

  caml_enter_blocking_section_no_pending();
  result = ppoll(polled, (nfds_t) n, &span, NULL);
  error = errno;
  caml_leave_blocking_section();

  if (result < 0) {
    free(polled);
    if (error == EINTR || error == EAGAIN) CAMLreturnT(intnat, -1);
    caml_unix_error(error, "ppoll", Nothing);
  }
  flags = Bytes_val(ready);
  for (i = 0; i < n; i++) {
    if (polled[i].revents & POLLNVAL) closed = 1;
    flags[i] = polled[i].revents != 0;
  }
  free(polled);
  if (closed) caml_unix_error(EBADF, "ppoll", Nothing);
  CAMLreturnT(intnat, result);
}

CAMLprim value sf_net_wait_byte(value fds, value ready, value timeout)
{
  return Val_long(sf_net_wait(fds, ready, Double_val(timeout)));
}
