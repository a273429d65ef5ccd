import os
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parent.parent


def _files(top):
    return sorted(
        os.path.relpath(os.path.join(directory, name), top)
        for directory, _, names in os.walk(top)
        for name in names
    )


def test_make_fixtures_regenerates_the_committed_data(tmp_path):
    # a tree of the script next to the sources, so the run writes into tmp_path
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "make_fixtures.py", tmp_path / "scripts")
    os.symlink(ROOT / "src", tmp_path / "src")
    subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "make_fixtures.py")],
        check=True, capture_output=True,
    )
    written = _files(tmp_path / "fixtures")
    # toy.cfg is written by hand, and out/ is where a pipeline run of it writes
    committed = [
        name for name in _files(FIXTURES) if name != "toy.cfg" and not name.startswith("out" + os.sep)
    ]
    assert written == committed
    for name in written:
        assert (tmp_path / "fixtures" / name).read_bytes() == Path(FIXTURES, name).read_bytes(), name
