"""A second process for independent work, when the CPUs hold it.

`alongside(work)` runs work() in a forked child while the caller's with-block
runs, and hands back work's return value or re-raises its exception when the
block leaves. It forks only when `can_fork()`: the CPUs this process may use
(`os.sched_getaffinity`) hold two processes' worth of numpy's BLAS threads,
and no child of `alongside` runs, nor is this process one. Otherwise work()
runs first, here. So there is one child at a time, and a call made inside
the block or inside the child works in place.

Neither process changes its BLAS thread count: OpenBLAS sums some matrix
products in an order that depends on it, so a changed count would change
checkpoints, and with fewer CPUs the two processes' threads would contend for
them.
"""

import ctypes
import os
import pickle
import signal
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from .errors import TagmtError

# True while a child of `alongside` runs, and in that child, which inherits it;
# process-wide state, because the one-child rule is about this process
_busy = False


def _blas_threads():
    """The thread count of the OpenBLAS numpy loaded, or None when its BLAS
    does not export scipy_openblas_get_num_threads64_ (numpy 2's wheels do)."""
    try:
        get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def can_fork():
    """Whether `alongside` would run its work in a forked child now."""
    if _busy:
        return False
    threads = _blas_threads()
    return threads is not None and len(os.sched_getaffinity(0)) >= 2 * threads


def _error_payload(err):
    """err pickled so that it loads again, else a TagmtError naming it."""
    try:
        payload = pickle.dumps((False, err))
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps((False, TagmtError(f"{type(err).__name__}: {err}")))
    return payload


@contextmanager
def alongside(work):
    """Run work() while the with-block runs: in a forked child when
    `can_fork()`, else first, here. Yields an object whose `value` holds
    work's return value once the block has left.

    Leaving waits for the child, so none outlives the block, and re-raises
    the exception the child sent through a pipe with its result. That
    exception wins over one from the block, because running work() first
    would have raised it first. A child that sends nothing (killed, say)
    raises TagmtError. When the wait is interrupted, the child is killed and
    reaped.
    """
    global _busy
    outcome = SimpleNamespace(value=None)
    if not can_fork():
        outcome.value = work()
        yield outcome
        return
    read_fd, write_fd = os.pipe()
    _busy = True
    try:
        pid = os.fork()
    except OSError:
        _busy = False
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, work()))
                status = 0
            except BaseException as err:
                payload = _error_payload(err)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            # no atexit handlers, no flush of buffers the parent also holds
            os._exit(status)
    os.close(write_fd)
    try:
        yield outcome
    finally:
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                payload = pipe.read()
        except BaseException:  # interrupted while waiting
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
            _busy = False
        if not payload:
            code = os.waitstatus_to_exitcode(status)
            raise TagmtError(f"forked worker process ended with exit code {code} and sent no result")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        outcome.value = value
