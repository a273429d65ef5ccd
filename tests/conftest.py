import os
import threading

import pytest

from tagmt import forking
from tagmt.mt.model import ModelConfig
from tagmt.mt.train import train
from tagmt.toy import make_copy_task

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(*parts):
    return os.path.join(FIXTURES, *parts)


TINY_CONFIG = ModelConfig(
    layers=2,
    heads=2,
    model_dim=32,
    ff_dim=64,
    dropout=0.0,
    label_smoothing=0.1,
    max_steps=350,
    validation_interval=50,
    learning_rate=3e-3,
    warmup_steps=25,
    batch_size=32,
    max_len=16,
    seed=5,
)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread running: training joins every thread it starts."""
    before = set(threading.enumerate())
    yield
    leaked = [thread for thread in threading.enumerate() if thread not in before]
    if leaked:
        pytest.fail(f"threads left running: {leaked}")


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail a test that leaves a child process: every fork is reaped before its call returns."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process outlived the test" + (f" (reaped pid {pid})" if pid else ""))


def counting_forks(patch, cpus, blas_threads):
    """Make `forking` see `cpus` CPUs and `blas_threads` BLAS threads (BLAS
    itself keeps its count); returns the list each os.fork call appends to."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    patch.setattr(os, "fork", counting_fork)
    patch.setattr(forking, "_blas_threads", lambda: blas_threads)
    return forks


@pytest.fixture(scope="session")
def copy_checkpoint():
    """A small trained copy-task model shared by decode/checkpoint tests."""
    pairs = make_copy_task(520, seed=21)
    return train(TINY_CONFIG, pairs[:500], pairs[500:])
