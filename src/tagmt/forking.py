"""One BLAS thread per process, and a second process for independent work.

Importing this module sets numpy's OpenBLAS to one thread, whatever
OPENBLAS_NUM_THREADS says: OpenBLAS orders some sums by its thread count, so
one count keeps checkpoints the same in every environment, and a second BLAS
thread gained no wall time at the model's shapes. Without the setter,
`BLAS_PINNED` is False, and neither `alongside` nor a training step adds a
process or a thread to contend with BLAS's own.

It also keeps glibc's malloc from handing freed memory back to the OS
between training steps (`mallopt`, where the C library has it): every step
frees megabytes of numpy temporaries, which malloc would return and fault in
again at the next step. Blocks below MALLOC_MMAP_BYTES come from malloc's
heaps, and up to MALLOC_TRIM_BYTES of free memory stays at a heap's top. A
default-shape training took ~100k minor page faults per 20 steps without
this and a few hundred with it.

`alongside(work)` runs work() in a forked child while the caller's with-block
runs, and hands back work's return value or re-raises its exception when the
block leaves. It forks only when `can_fork()`: BLAS is pinned, this process
may use two CPUs, and no child of `alongside` runs, nor is this process one.
Otherwise work() runs first, here. So there is one child at a time, and a
call made inside the block or inside the child works in place.
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


MALLOC_MMAP_BYTES = 32 * 2**20
MALLOC_TRIM_BYTES = 64 * 2**20
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, MALLOC_MMAP_BYTES)  # M_MMAP_THRESHOLD
    _mallopt(-1, MALLOC_TRIM_BYTES)  # M_TRIM_THRESHOLD
except AttributeError:  # no glibc malloc
    pass

# whether numpy's BLAS runs one thread, here and in every child forked from here
try:
    ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_(1)
    BLAS_PINNED = True
except (AttributeError, OSError):  # numpy's BLAS does not export the setter
    BLAS_PINNED = False


def two_cpus():
    """Whether this process may use two CPUs or more."""
    return len(os.sched_getaffinity(0)) >= 2


def can_fork():
    """Whether `alongside` would run its work in a forked child now."""
    return BLAS_PINNED and not _busy and two_cpus()


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
