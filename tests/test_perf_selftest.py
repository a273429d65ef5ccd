"""The benchmark's self-test, run on these sources: a `src/` change that
breaks a name `perf/` imports or traces fails tier-1, not first the
benchmark run. It writes only under the git-ignored `.perf_out/`."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_perf_selftest_exits_0():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
