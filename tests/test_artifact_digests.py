import os
import re
import subprocess
import sys

from test_cli import PIPELINE_ARTIFACTS, write_mini_cfg

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "artifact_digests.py")


def test_two_runs_print_the_same_digests(tmp_path):
    # the script writes into a temporary directory of its own, never out
    out = tmp_path / "out"
    cfg = write_mini_cfg(tmp_path, out)
    runs = [
        subprocess.run([sys.executable, SCRIPT, "--config", cfg, "--seed", "3"],
                       capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines), lines
    assert [line[66:] for line in lines] == sorted(PIPELINE_ARTIFACTS) + ["(stage log)"]
    assert not out.exists()
