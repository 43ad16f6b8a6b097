"""One function run beside the caller, in a forked worker process.

    with beside(lambda: slow_a(mesh)) as worker:
        b = slow_b(mesh)           # runs in the caller meanwhile
        a = worker.result()

The worker is forked, so it starts from the caller's memory as it is at
the `with` (copy-on-write) and sends back only its result, pickled
through a pipe.  It leaves by os._exit: no exit handler runs and no
buffer inherited from the caller is flushed.  Exceptions and warnings
raised in the worker are raised again in the caller by result().  The
worker computes with numpy and scipy only; OpenBLAS rebuilds its thread
pool in a forked child.

Without os.fork, or with fewer than 2 usable CPUs, nothing is forked and
result() calls the function in the caller.
"""

import contextlib
import os
import pickle
import signal
import sys
import warnings

from .errors import SolverError


def usable_cpus():
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def beside(fn):
    """Start fn() beside the block; the Worker yielded gives its result.

    On leaving the block, by an exception or without reading the result,
    a worker still running is killed; every worker is reaped.
    """
    worker = Worker(fn)
    try:
        yield worker
    finally:
        worker.close()


class Worker:
    """fn() in a forked child process, or called in-process by result()."""

    def __init__(self, fn):
        self._fn = fn
        self._pid = self._pipe = None
        if not hasattr(os, "fork") or usable_cpus() < 2:
            return
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _serve(fn, write_fd)
        os.close(write_fd)
        self._pid, self._pipe = pid, os.fdopen(read_fd, "rb")

    def result(self):
        """fn()'s value; its exception, of the same type, when it raised.

        SolverError when the worker ended without sending a result.  Call
        once.
        """
        if self._pipe is None:
            return self._fn()
        # read to EOF before waiting: a result larger than the pipe buffer
        # would otherwise block the worker's write and the caller's wait
        with self._pipe:
            payload = self._pipe.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        try:
            ok, value, caught = pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, ValueError) as exc:
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            raise SolverError(f"worker process {how} without a result") from exc
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if not ok:
            raise value
        return value

    def close(self):
        """Kill the worker if it still runs, reap it and close the pipe."""
        if self._pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._pipe is not None:
            self._pipe.close()


def _serve(fn, write_fd):
    """The worker: send (ok, value or exception, warnings) and leave, never returning."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                ok, value = True, fn()
            except BaseException as exc:    # sent to the caller, which raises it
                ok, value = False, exc
        caught = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        try:
            payload = pickle.dumps((ok, value, caught))
        except Exception as exc:            # an unpicklable value, exception or warning
            payload = pickle.dumps((False, SolverError(
                f"worker result {value!r} cannot be sent back: {exc}"), []))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)
