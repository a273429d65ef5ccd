"""Property test over every line-file reader: damaged input exits 2 naming a
line or a record, and never raises.

Each example damages a few lines of a bundled fixture (flipped bytes,
invalid UTF-8, added or removed tabs, duplicated, blanked or truncated lines)
and drives its reader through the CLI command that reads it, in-process. The
pairs reader, whose commands train, is called directly.
"""

import io
import os
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from tagmt.cli import main
from tagmt.corpus import read_pairs_tsv
from tagmt.errors import DataError

HEAD = 8  # lines taken from each fixture

# reader -> (input file that gets damaged, CLI argv or reader function);
# {damaged} is the damaged copy, the other names are files of `inputs`, and
# {cfg} holds DETECTIONS_CFG
CASES = {
    "vg": ("train", ["corpus", "stats", "--vg", "{damaged}"]),
    "bitext-source": ("src", ["corpus", "stats", "--source", "{damaged}", "--target", "{tgt}"]),
    "bitext-target": ("tgt", ["corpus", "stats", "--source", "{src}", "--target", "{damaged}"]),
    "detections": ("detections", ["tags", "extract", "--corpus", "{train}", "--config", "{cfg}", "--output", "{out}"]),
    "tagged": ("tagged", ["synth", "build-pairs", "--tagged", "{damaged}", "--output", "{out}"]),
    # the same file on both sides: every task has its baseline
    "scores": ("scores", ["eval", "report", "--text-only", "{damaged}", "--multimodal", "{damaged}"]),
    "pairs": ("pairs", read_pairs_tsv),
}

# the experiment config of `tags extract`: its tags come from {damaged}
DETECTIONS_CFG = "[paths]\ndetections = {damaged}\ntag_vocabulary = {vocab}\n"

DAMAGE = st.lists(
    st.tuples(
        st.sampled_from(["flip", "add_tab", "drop_tab", "duplicate", "blank", "truncate"]),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\t", b"\r", b"\n", b",", b"#", b" ", b"x", b"0"]),
    ),
    max_size=4,
)


def _read(case, paths, damaged):
    """Run the reader of `case` on the file `damaged`: (exit code, stderr)."""
    reader = CASES[case][1]
    if callable(reader):
        try:
            reader(damaged)
        except DataError as err:
            return 2, f"error: {err}\n"
        return 0, ""
    if "{cfg}" in reader:
        with open(paths["cfg"], "w", encoding="utf-8") as handle:
            handle.write(DETECTIONS_CFG.format(**paths, damaged=damaged))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(**paths, damaged=damaged) for arg in reader])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Path of each input file: heads of the disambiguation fixtures, and the
    tagged corpus and pairs derived from them."""
    work = tmp_path_factory.mktemp("readers")
    names = ("train", "src", "tgt", "vocab", "detections", "tagged", "scores", "pairs", "out", "cfg")
    paths = {name: str(work / name) for name in names}
    heads = {"train": "train.tsv", "src": "extra.src", "tgt": "extra.tgt", "detections": "detections.tsv"}
    for name, fixture in heads.items():
        with open(fixture_path("disambig", fixture), encoding="utf-8") as handle:
            head = handle.readlines()[:HEAD]
        with open(paths[name], "w", encoding="utf-8") as handle:
            handle.writelines(head)
    shutil.copy(fixture_path("disambig", "tag_vocab.txt"), paths["vocab"])
    shutil.copy(fixture_path("wat2022_text_only.tsv"), paths["scores"])
    for case, output in (("detections", "tagged"), ("tagged", "pairs")):
        code, err = _read(case, {**paths, "out": paths[output]}, paths[case])
        assert code == 0, err
    return paths


def _damage(data, damage):
    """Apply (operation, line index, byte offset, byte) steps to file bytes."""
    lines = data.split(b"\n")[:-1]
    for operation, i, j, byte in damage:
        if not lines:
            break
        i %= len(lines)
        line = lines[i]
        j %= len(line) + 1
        tabs = [k for k, char in enumerate(line) if char == ord("\t")]
        if operation == "flip":
            lines[i] = line[:j] + byte + line[j + 1 :]
        elif operation == "add_tab":
            lines[i] = line[:j] + b"\t" + line[j:]
        elif operation == "drop_tab" and tabs:
            k = tabs[j % len(tabs)]
            lines[i] = line[:k] + line[k + 1 :]
        elif operation == "duplicate":
            lines.insert(i, line)
        elif operation == "blank":
            lines[i] = b""
        elif operation == "truncate":
            lines[i] = line[:j]
    return b"".join(line + b"\n" for line in lines)


def _line_count(data):
    """Lines as read_lines splits them: \\n, \\r\\n and a lone \\r end one."""
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    return len(lines) - (lines[-1] == b"")


@pytest.mark.parametrize("case", CASES)
def test_fixture_inputs_read_cleanly(inputs, case):
    assert _read(case, inputs, inputs[CASES[case][0]]) == (0, "")


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(damage=DAMAGE)
def test_damaged_input_exits_2_naming_line_or_record(inputs, case, damage):
    with open(inputs[CASES[case][0]], "rb") as handle:
        data = _damage(handle.read(), damage)
    damaged = os.path.join(os.path.dirname(inputs["out"]), "damaged")
    with open(damaged, "wb") as handle:
        handle.write(data)
    code, err = _read(case, inputs, damaged)
    assert code in (0, 2), err
    if code == 0:
        return
    line = re.match(r"error: line (\d+): ", err)
    if line:
        assert 1 <= int(line.group(1)) <= _line_count(data), err
    elif case.startswith("bitext") and err.startswith("error: aligned inputs differ in length"):
        pass
    else:
        assert re.search(r"\brecord \d+\b", err), err
    assert "Traceback" not in err
