import os
import signal
import time

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
    return counting_forks(monkeypatch, 2, 1)


def _raise(err):
    raise err


def test_child_result_comes_back(forks):
    with forking.alongside(lambda: (os.getpid(), ["a", "b"])) as child:
        assert not forking.can_fork()  # one child at a time
    pid, words = child.value
    assert len(forks) == 1
    assert pid != os.getpid()
    assert words == ["a", "b"]
    assert forking.can_fork()


def test_in_place_when_cpus_do_not_hold_both(monkeypatch):
    forks = counting_forks(monkeypatch, 2, 2)
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
