import ctypes
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import counting_forks
from tagmt import forking
from tagmt.errors import Divergence, TagmtError


class NeedsTwoArguments(Exception):
    """Pickles, but does not load again: its args hold one formatted message."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


@pytest.fixture
def forks(monkeypatch):
    return counting_forks(monkeypatch, 2)


def _raise(err):
    raise err


def run_python(script, threads):
    """stdout of `python -c script` with tagmt importable, OPENBLAS_NUM_THREADS
    set to threads (None: unset) and OMP_NUM_THREADS unset."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    src = os.path.dirname(os.path.dirname(forking.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# numpy's OpenBLAS exports its thread count getter and setter (numpy 2's wheels do)
HAS_OPENBLAS_THREADS = all(
    hasattr(ctypes.CDLL(np._core._multiarray_umath.__file__), f"scipy_openblas_{verb}_num_threads64_")
    for verb in ("get", "set")
)
needs_openblas_threads = pytest.mark.skipif(
    not HAS_OPENBLAS_THREADS, reason="numpy's BLAS does not export OpenBLAS's thread count functions"
)

BLAS_THREADS_AFTER_IMPORT = """
import ctypes
import numpy as np
import tagmt.mt.model
print(ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_())
"""


@needs_openblas_threads
@pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "2"])
def test_import_pins_numpys_blas_to_one_thread(threads):
    assert run_python(BLAS_THREADS_AFTER_IMPORT, threads) == "1\n"


# x.T @ dy at 600 rows: OpenBLAS sums it in another order at 1 and 2 threads
PRODUCT_BYTES = """
import hashlib
import numpy as np
import tagmt.forking
rng = np.random.default_rng(0)
x, dy = rng.normal(size=(600, 32)), rng.normal(size=(600, 64))
print(hashlib.sha256((x.T @ dy).tobytes()).hexdigest())
"""


@needs_openblas_threads
def test_matrix_product_bytes_do_not_depend_on_openblas_num_threads():
    assert run_python(PRODUCT_BYTES, "1") == run_python(PRODUCT_BYTES, "2")


def test_child_result_comes_back(forks):
    with forking.alongside(lambda: (os.getpid(), ["a", "b"])) as child:
        assert not forking.can_fork()  # one child at a time
    pid, words = child.value
    assert len(forks) == 1
    assert pid != os.getpid()
    assert words == ["a", "b"]
    assert forking.can_fork()


def test_in_place_when_cpus_do_not_hold_both(monkeypatch):
    forks = counting_forks(monkeypatch, 1)
    with forking.alongside(os.getpid) as child:
        assert child.value == os.getpid()  # ran first, here
    assert not forks


def test_child_error_reaches_parent(forks):
    with pytest.raises(Divergence) as info:
        with forking.alongside(lambda: _raise(Divergence(4, float("inf")))):
            pass
    assert (info.value.step, info.value.loss) == (4, float("inf"))
    assert forking.can_fork()


def test_child_error_wins_over_block_error(forks):
    with pytest.raises(Divergence):
        with forking.alongside(lambda: _raise(Divergence(4, float("inf")))):
            raise ValueError("block failed")


def test_block_error_raised_after_child_succeeded(forks):
    with pytest.raises(ValueError, match="^block failed$"):
        with forking.alongside(lambda: "done"):
            raise ValueError("block failed")
    assert forking.can_fork()


def test_unpicklable_child_error_becomes_tagmt_error(forks):
    class Local(Exception):
        pass

    for err, message in [
        (Local("cannot cross"), "Local: cannot cross"),
        (NeedsTwoArguments("one", "two"), "NeedsTwoArguments: one and two"),
    ]:
        with pytest.raises(TagmtError) as info:
            with forking.alongside(lambda: _raise(err)):
                pass
        assert type(info.value) is TagmtError
        assert str(info.value) == message


def test_child_that_sends_nothing_raises_tagmt_error(forks):
    with pytest.raises(TagmtError, match="^forked worker process ended with exit code 7 and sent no result$"):
        with forking.alongside(lambda: os._exit(7)):
            pass


def test_interrupted_wait_kills_and_reaps_child(forks):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            with forking.alongside(lambda: time.sleep(60)):
                signal.setitimer(signal.ITIMER_REAL, 0.2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert forking.can_fork()
