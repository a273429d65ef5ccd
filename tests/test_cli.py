import contextlib
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counting_forks, fixture_path
from tagmt import forking, pipeline, tagging
from tagmt.cli import main
from tagmt.corpus import load_vg_corpus
from tagmt.errors import ConfigError
from tagmt.fileio import read_lines
from tagmt.mt.train import Checkpoint
from test_config import write_cfg
from test_decode import random_checkpoint
from test_errors import EXAMPLES

DISAMBIG = fixture_path("disambig")

MINI_CFG = """\
[experiment]
seed = 13
task = toy-disambiguation

[paths]
train_corpus = {d}/train.tsv
valid_corpus = {d}/valid.tsv
test_corpus = {d}/test.tsv
bitext_source = {d}/extra.src
bitext_target = {d}/extra.tgt
detections = {d}/detections.tsv
tag_vocabulary = {d}/tag_vocab.txt
output_dir = {out}

[tagging]
k = 10

[translator]
layers = 1
heads = 2
model_dim = 32
ff_dim = 48
dropout = 0.0
max_steps = 50
validation_interval = 25
learning_rate = 3e-3
warmup_steps = 10
batch_size = 32
max_len = 48

[synthesizer]
layers = 1
heads = 2
model_dim = 32
ff_dim = 48
dropout = 0.0
max_steps = 50
validation_interval = 25
learning_rate = 3e-3
warmup_steps = 10
batch_size = 32
max_len = 48
"""


def write_mini_cfg(tmp_path, out_dir, name="mini.cfg"):
    path = tmp_path / name
    path.write_text(MINI_CFG.format(d=DISAMBIG, out=out_dir), encoding="utf-8")
    return str(path)


def test_corpus_stats_table(capsys):
    assert main(["corpus", "stats", "--vg", os.path.join(DISAMBIG, "train.tsv")]) == 0
    out = capsys.readouterr().out
    assert out == "sentences      200\nsource_tokens  1260\ntarget_tokens  1260\n"


def test_corpus_stats_bitext_tsv(capsys):
    code = main(
        [
            "corpus",
            "stats",
            "--source",
            os.path.join(DISAMBIG, "extra.src"),
            "--target",
            os.path.join(DISAMBIG, "extra.tgt"),
            "--format",
            "tsv",
        ]
    )
    assert code == 0
    assert "sentences\t100" in capsys.readouterr().out


WAT2022 = ["--text-only", fixture_path("wat2022_text_only.tsv"),
           "--multimodal", fixture_path("wat2022_multimodal.tsv")]
WAT2022_TSV = """\
task\tsystem\tbaseline\tdelta
EN-HI E-Test\t42.0\t36.2\t+5.8
EN-HI C-Test\t39.1\t29.6\t+9.5
EN-ML E-Test\t41.0\t30.8\t+10.2
EN-ML C-Test\t20.4\t14.6\t+5.8
EN-BN E-Test\t42.1\t41.0\t+1.1
EN-BN C-Test\t28.7\t22.6\t+6.1
"""
WAT2022_TABLE = """\
Task          System  Baseline  Delta
------------  ------  --------  -----
EN-HI E-Test  42.0    36.2      +5.8
EN-HI C-Test  39.1    29.6      +9.5
EN-ML E-Test  41.0    30.8      +10.2
EN-ML C-Test  20.4    14.6      +5.8
EN-BN E-Test  42.1    41.0      +1.1
EN-BN C-Test  28.7    22.6      +6.1
"""


# Every table the CLI prints comes from evaluation.render_rows; these are the
# bytes each command printed before the tables shared that one renderer
# (test_corpus_stats_table holds the stats table's).
@pytest.mark.parametrize(
    "argv, printed",
    [
        (["corpus", "stats", "--vg", os.path.join(DISAMBIG, "train.tsv"), "--format", "tsv"],
         "sentences\t200\nsource_tokens\t1260\ntarget_tokens\t1260\n"),
        (["eval", "bleu", "--hypotheses", "{hyp}", "--references", "{ref}", "--format", "tsv"],
         "bleu\t82.01174971518101\n"
         "precisions\t0.9047619047619048/0.8333333333333334/0.8/0.75\n"
         "brevity_penalty\t1.0\nhyp_length\t21\nref_length\t21\n"),
        (["eval", "report", *WAT2022, "--format", "tsv"], WAT2022_TSV),
        (["eval", "report", *WAT2022, "--format", "table"], WAT2022_TABLE),
        (["eval", "report", *WAT2022], WAT2022_TABLE),
    ],
    ids=["stats-tsv", "bleu-tsv", "report-tsv", "report-table", "report-default"],
)
def test_tables_print_pinned_bytes(tmp_path, capsys, argv, printed):
    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    hyp.write_text("THE BOY IS NEAR THE BAT\nA CHAIR AND A BATWING ARE BY THE BOAT\n"
                   "THE TREE IS NEAR A CAR\n", encoding="utf-8")
    ref.write_text("THE BOY IS NEAR THE BATCLUB\nA CHAIR AND A BATWING ARE BY THE BOAT\n"
                   "THE TREE IS NEAR THE CAR\n", encoding="utf-8")
    assert main([arg.format(hyp=hyp, ref=ref) for arg in argv]) == 0
    assert capsys.readouterr().out == printed


def test_corpus_stats_bad_line_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\t1\t1\t2\t2\tsrc\ttgt\nbroken\t1\t2\n", encoding="utf-8")
    assert main(["corpus", "stats", "--vg", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_corpus_stats_bitext_tab_exit_2(tmp_path, capsys):
    src = tmp_path / "extra.src"
    tgt = tmp_path / "extra.tgt"
    src.write_text("aa bb\nx\ty\n", encoding="utf-8")
    tgt.write_text("cc dd\nee ff\n", encoding="utf-8")
    assert main(["corpus", "stats", "--source", str(src), "--target", str(tgt)]) == 2
    assert "error: line 2: source sentence contains a tab character" in capsys.readouterr().err


def test_corpus_stats_needs_input(capsys):
    assert main(["corpus", "stats"]) == 1
    assert capsys.readouterr().err == "error: need --vg or both --source and --target\n"


@pytest.mark.parametrize("command", ["stats"])
@pytest.mark.parametrize(
    "bitext", [["--source", "a.src"], ["--target", "a.tgt"], ["--source", "a.src", "--target", "a.tgt"]],
    ids=["source", "target", "both"],
)
def test_corpus_vg_with_bitext_flags_exit_1(capsys, command, bitext):
    code = main(["corpus", command, "--vg", os.path.join(DISAMBIG, "train.tsv"), *bitext])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: --vg cannot be combined with --source or --target\n"


def test_usage_error_exit_1():
    proc = subprocess.run(
        [sys.executable, "-m", "tagmt.cli", "corpus", "stats", "--nonsense"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    # an unimportable tagmt also exits 1; only argparse prints its usage line
    assert "usage:" in proc.stderr


def _write_corrupt_checkpoint(path, kind):
    import json

    checkpoint = random_checkpoint(0)
    if kind == "truncated":
        checkpoint.save(path)
        path.write_bytes(path.read_bytes()[:-100])
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "plain-text":
        path.write_text("not a checkpoint\n", encoding="utf-8")
    else:
        meta = {"format_version": 1, "config": checkpoint.config.to_dict(), "training_meta": {}}
        with open(path, "wb") as out:
            if kind == "no-meta":
                np.savez(out, **{f"param:{k}": v for k, v in checkpoint.params.items()})
            else:
                np.savez(out, meta=json.dumps(meta))


@pytest.mark.parametrize("kind", ["truncated", "empty", "no-meta", "no-vocab-tokens", "plain-text"])
def test_corrupt_checkpoint_exit_1(tmp_path, kind):
    ckpt = tmp_path / f"{kind}.ckpt"
    _write_corrupt_checkpoint(ckpt, kind)
    sources = tmp_path / "sources.txt"
    sources.write_text("aa bb\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "tagmt.cli", "mt", "translate", "--checkpoint", str(ckpt),
         "--input", str(sources)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert f"checkpoint {ckpt}: " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "change, message",
    [
        ({"layers": "2"}, "config field 'layers' expects int, got '2'"),
        ({"heads": 2.0}, "config field 'heads' expects int, got 2.0"),
        ({"max_len": True}, "config field 'max_len' expects int, got True"),
        ({"dropout": "0.1"}, "config field 'dropout' expects float, got '0.1'"),
        ({"colour": 1}, "unknown config fields: ['colour']"),
        ({"layers": 0}, "layers must be >= 1, got 0"),
        # only `mt finetune --max-steps 0`, now gone, wrote such a checkpoint
        ({"max_steps": 0}, "max_steps must be >= 1, got 0"),
        (None, "config is not a JSON object"),
    ],
    ids=["str-int", "float-int", "bool-int", "str-float", "unknown", "invalid", "zero-steps",
         "not-object"],
)
def test_checkpoint_bad_config_exit_1(tmp_path, change, message):
    config = random_checkpoint(0).config.to_dict()
    _assert_meta_rejected(
        tmp_path, {"config": [config] if change is None else {**config, **change}}, message
    )


@pytest.mark.parametrize(
    "change, message",
    [
        ({"vocab_tokens": 5}, "'vocab_tokens' is not a list of strings"),
        ({"vocab_tokens": [1, 2, 3]}, "'vocab_tokens' is not a list of strings"),
        ({"vocab_tokens": ["aa", "bb"]}, "reserved token '<pad>' missing from vocabulary"),
        ({"training_meta": [1]}, "'training_meta' is not a JSON object"),
    ],
    ids=["int-vocab", "int-tokens", "no-reserved", "list-training-meta"],
)
def test_checkpoint_bad_meta_exit_1(tmp_path, change, message):
    _assert_meta_rejected(tmp_path, change, message)


@pytest.mark.parametrize(
    "kind, message",
    [
        ("nan", "has a value that is not finite"),
        ("inf", "has a value that is not finite"),
        ("int64", "has dtype int64, expected float64"),
        ("bool", "has dtype bool, expected float64"),
    ],
    ids=["nan", "inf", "int64", "bool"],
)
def test_checkpoint_bad_param_values_exit_1(tmp_path, kind, message):
    checkpoint = random_checkpoint(0)
    out_b = checkpoint.params["out.b"].copy()
    if kind in ("nan", "inf"):
        out_b[3] = float(kind)
    else:
        out_b = out_b.astype(kind)
    checkpoint.params["out.b"] = out_b
    ckpt = tmp_path / "bad-values.ckpt"
    checkpoint.save(str(ckpt))
    sources = tmp_path / "sources.txt"
    sources.write_text("aa bb\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "tagmt.cli", "mt", "translate", "--checkpoint", str(ckpt),
         "--input", str(sources)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert f"checkpoint {ckpt}: parameter 'out.b' {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


def _damaged(param, damage, index):
    """param damaged one way, and the problem `Checkpoint.load` names for it."""
    if damage in ("int64", "bool", "float32"):
        return param.astype(damage), f"has dtype {damage}, expected float64"
    if damage in ("nan", "inf", "-inf"):
        param = param.copy()
        param.flat[index % param.size] = float(damage)
        return param, "has a value that is not finite"
    shape = param.shape[:-1] + (param.shape[-1] + (1 if damage == "wider" else -1),)
    return np.zeros(shape), f"has shape {shape}, expected {param.shape}"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    name_index=st.integers(0, 1000),
    damage=st.sampled_from(["int64", "bool", "float32", "nan", "inf", "-inf", "wider", "narrower"]),
    index=st.integers(0, 10_000),
)
def test_translate_rejects_any_damaged_parameter_exit_1(name_index, damage, index):
    checkpoint = random_checkpoint(0)
    names = sorted(checkpoint.params)
    name = names[name_index % len(names)]
    if damage == "narrower" and checkpoint.params[name].shape[-1] == 1:
        damage = "wider"
    checkpoint.params[name], problem = _damaged(checkpoint.params[name], damage, index)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "damaged.ckpt")
        checkpoint.save(ckpt)
        sources = os.path.join(tmp, "sources.txt")
        with open(sources, "w", encoding="utf-8") as out:
            out.write("aa bb\ncc\n")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["mt", "translate", "--checkpoint", ckpt, "--input", sources])
    assert code == 1
    assert err.getvalue() == f"error: checkpoint {ckpt}: parameter {name!r} {problem}\n"


# `mt translate` as if two CPUs were there; prints the fork count last
FORCED_FORK_CLI = """
import os
import sys
from tagmt.cli import main

forks = []
real_fork = os.fork
os.fork = lambda: forks.append(1) or real_fork()
os.sched_getaffinity = lambda pid: {0, 1}
code = main(sys.argv[1:])
print(len(forks))
sys.exit(code)
"""


@pytest.mark.parametrize("decode", ["greedy", "beam"])
def test_translate_non_finite_scores_exit_1(tmp_path, decode):
    # finite weights that overflow: every logit is inf, every score NaN
    from tagmt.mt.decode import FORK_MIN_WORK

    checkpoint = random_checkpoint(0)
    checkpoint.params["out.w"][...] = 1e308
    ckpt = tmp_path / "overflow.ckpt"
    checkpoint.save(str(ckpt))
    # one line decodes here; enough lines to pass FORK_MIN_WORK decode half in a forked child
    width = 1 if decode == "greedy" else 4
    c = checkpoint.config
    many = max(2, -(-FORK_MIN_WORK // (width * c.max_len * c.model_dim)))
    cfg = write_cfg(tmp_path, f"[decode]\nbeam_width = {width}\n")
    for lines, launcher, forks in [(1, ["-m", "tagmt.cli"], ""), (many, ["-c", FORCED_FORK_CLI], "1\n")]:
        sources = tmp_path / "sources.txt"
        sources.write_text("aa bb\n" * lines, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, *launcher, "mt", "translate", "--checkpoint", str(ckpt),
             "--input", str(sources), "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stderr
        # numpy's overflow warnings, which quote the program's source, do not reach the user
        assert proc.stderr == "error: beam search found no hypothesis: the model's scores were not finite\n"
        assert proc.stdout == forks


def _assert_meta_rejected(tmp_path, change, message):
    """Write a random checkpoint whose meta entries are replaced by `change`;
    `mt translate` on it must exit 1 with `message` and the path."""
    import json

    import numpy as np

    checkpoint = random_checkpoint(0)
    meta = {
        "format_version": 1,
        "config": checkpoint.config.to_dict(),
        "vocab_tokens": list(checkpoint.vocab.tokens),
        "training_meta": {},
        **change,
    }
    ckpt = tmp_path / "bad-meta.ckpt"
    with open(ckpt, "wb") as out:
        arrays = {f"param:{name}": value for name, value in checkpoint.params.items()}
        np.savez(out, meta=json.dumps(meta), **arrays)
    sources = tmp_path / "sources.txt"
    sources.write_text("aa bb\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "tagmt.cli", "mt", "translate", "--checkpoint", str(ckpt),
         "--input", str(sources)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert f"checkpoint {ckpt}: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_stray_backend_variable_is_ignored():
    # kernels are numpy-only; a leftover TAGMT_BACKEND must not break startup
    env = dict(os.environ, TAGMT_BACKEND="numba")
    proc = subprocess.run(
        [sys.executable, "-m", "tagmt.cli", "corpus", "stats", "--vg",
         os.path.join(DISAMBIG, "train.tsv")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("EN-HI E-Test", "expected 2 tab-separated fields"),
        ("EN-HI E-Test\tabc", "non-numeric score"),
        ("EN-HI E-Test\tnan", "score 'nan' is not finite"),
        ("EN-HI E-Test\t-inf", "score '-inf' is not finite"),
        ("EN-HI E-Test\t1e999", "score '1e999' is not finite"),
        ("EN-HI D-Test\t41.0", "repeated task 'EN-HI D-Test'"),
    ],
)
def test_eval_report_bad_scores_line_exit_2(tmp_path, capsys, bad_line, message):
    scores = tmp_path / "scores.tsv"
    scores.write_text(f"EN-HI D-Test\t40.0\n{bad_line}\n", encoding="utf-8")
    code = main(
        ["eval", "report", "--text-only", str(scores), "--multimodal",
         fixture_path("wat2022_multimodal.tsv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and message in err


def test_eval_report_cli_matches_published_numbers(capsys):
    code = main(
        [
            "eval",
            "report",
            "--text-only",
            fixture_path("wat2022_text_only.tsv"),
            "--multimodal",
            fixture_path("wat2022_multimodal.tsv"),
            "--format",
            "table",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("EN-HI E-Test"))
    assert "42.0" in line and "36.2" in line and "+5.8" in line


def test_eval_report_names_no_bleu_tokenization(capsys):
    """The published WAT2022 scores were not computed by tagmt, so their
    report does not say how their BLEU was tokenized."""
    code = main(["eval", "report", "--text-only", fixture_path("wat2022_text_only.tsv"),
                 "--multimodal", fixture_path("wat2022_multimodal.tsv"), "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "EN-HI E-Test" in out
    assert "tokenization" not in out


def test_eval_report_missing_baseline_names_line_exit_2(tmp_path, capsys):
    text_only = tmp_path / "text.tsv"
    text_only.write_text("EN-HI E-Test\t36.2\n", encoding="utf-8")
    multimodal = tmp_path / "mm.tsv"
    multimodal.write_text("# scores\nEN-HI E-Test\t42.0\n\nEN-HI C-Test\t39.1\n", encoding="utf-8")
    code = main(["eval", "report", "--text-only", str(text_only), "--multimodal", str(multimodal)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: line 4: no text-only baseline score for task 'EN-HI C-Test'" in err


def test_eval_report_scores_with_byte_order_mark(tmp_path, capsys):
    text_only = tmp_path / "text.tsv"
    text_only.write_bytes("\ufeffEN-HI E-Test\t36.2\n".encode("utf-8"))
    multimodal = tmp_path / "mm.tsv"
    multimodal.write_bytes("\ufeffEN-HI E-Test\t42.0\n".encode("utf-8"))
    code = main(["eval", "report", "--text-only", str(text_only), "--multimodal", str(multimodal)])
    out, err = capsys.readouterr()
    assert code == 0, err
    line = next(l for l in out.splitlines() if l.startswith("EN-HI E-Test"))
    assert "42.0" in line and "36.2" in line and "+5.8" in line


def test_eval_report_unencodable_stdout_exit_1(tmp_path):
    text_only = tmp_path / "text.tsv"
    text_only.write_text("café\t36.2\n", encoding="utf-8")
    multimodal = tmp_path / "mm.tsv"
    multimodal.write_text("café\t42.0\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "tagmt.cli", "eval", "report", "--text-only", str(text_only),
         "--multimodal", str(multimodal)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONIOENCODING": "ascii"},
    )
    assert proc.returncode == 1, proc.stderr
    assert "error: 'ascii' codec can't encode" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unanticipated_value_error_propagates(monkeypatch, tmp_path):
    """A ValueError inside a command is a bug: main lets it propagate with its
    traceback rather than report it as a usage error."""
    from tagmt import cli

    def broken(corpus):
        raise ValueError("programming error")

    monkeypatch.setattr(cli, "corpus_stats", broken)
    src, tgt = tmp_path / "a.src", tmp_path / "a.tgt"
    src.write_text("aa bb\n", encoding="utf-8")
    tgt.write_text("cc dd\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^programming error$"):
        main(["corpus", "stats", "--source", str(src), "--target", str(tgt)])


@pytest.mark.parametrize(
    "command",
    [
        ["mt", "train", "--train", "{pairs}", "--output", "{out}"],
        ["synth", "train", "--pairs", "{pairs}", "--output", "{out}"],
        ["synth", "enrich", "--checkpoint", "{missing}", "--source", "{missing}", "--target", "{missing}",
         "--output", "{out}"],
        ["mt", "translate", "--checkpoint", "{missing}", "--input", "{missing}", "--output", "{out}"],
        ["pipeline", "run"],
        ["tags", "extract", "--corpus", "{corpus}", "--output", "{out}"],
    ],
)
def test_negative_seed_exit_1(tmp_path, capsys, command):
    """A negative [experiment] seed is the config's error, reported by every
    command that takes --config before it reads an input, and nothing is
    written."""
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("aa bb\tcc dd\n", encoding="utf-8")
    out = tmp_path / "out"
    seed_cfg = tmp_path / "seed.cfg"
    seed_cfg.write_text("[experiment]\nseed = -1\n[paths]\noutput_dir = out\n", encoding="utf-8")
    corpus = os.path.join(DISAMBIG, "valid.tsv")
    argv = [arg.format(pairs=pairs, out=out, missing=tmp_path / "missing", corpus=corpus) for arg in command]
    assert main([*argv, "--config", str(seed_cfg)]) == 1
    assert capsys.readouterr().err == "error: [experiment] seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "body, message",
    [
        ("[tagging]\nk = 0\n", "[tagging] k must be >= 1, got 0"),
        ("[decode]\nmethod = greedy\n", "unknown key 'method' in [decode]"),
        ("[decode]\nmax_len = 9\n", "unknown key 'max_len' in [decode]"),
        ("[experiment]\ncorpus_name = toy\n", "unknown key 'corpus_name' in [experiment]"),
    ],
    ids=["tagging-k", "decode-method", "decode-max_len", "experiment-corpus_name"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["tags", "extract", "--corpus", "{missing}"],
        ["synth", "train", "--pairs", "{missing}"],
        ["synth", "enrich", "--checkpoint", "{missing}", "--source", "{missing}", "--target", "{missing}"],
        ["mt", "train", "--train", "{missing}"],
        ["mt", "translate", "--checkpoint", "{missing}", "--input", "{missing}"],
    ],
    ids=lambda command: "-".join(command[:2]),
)
def test_stage_rejects_any_config_section_before_its_inputs_exit_1(tmp_path, capsys, command, body, message):
    """A stage validates the whole config, not only the sections it uses,
    before it opens an input: none of these inputs exists. The beam width is
    the one search setting, so `[decode] method` is an unknown key; a decode's
    length is its checkpoint's max_len, and [experiment] task alone labels the
    report, so `[decode] max_len` and `[experiment] corpus_name` are too."""
    cfg = write_cfg(tmp_path, body)
    argv = [arg.format(missing=tmp_path / "missing") for arg in command]
    assert main([*argv, "--config", str(cfg), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == [cfg.name]


@pytest.mark.parametrize("missing", ["train_corpus", "test_corpus"])
def test_pipeline_without_required_path_exit_1_creates_nothing(tmp_path, capsys, missing):
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "".join(line + "\n" for line in read_lines(write_mini_cfg(tmp_path, out))
                if not line.startswith(missing)),
        encoding="utf-8",
    )
    assert main(["pipeline", "run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: [paths] {missing} is required\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["train_corpus", "test_corpus"])
def test_pipeline_empty_corpus_names_key_and_file_exit_2_before_training(tmp_path, capsys, key):
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n", encoding="utf-8")
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "".join((f"{key} = {empty}" if line.startswith(key) else line) + "\n"
                for line in read_lines(write_mini_cfg(tmp_path, out))),
        encoding="utf-8",
    )
    err = _data_error(capsys, ["pipeline", "run", "--config", str(cfg)])
    assert err.endswith(f"error: [paths] {key}: {empty} holds no record\n")
    assert "[2/7]" not in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("kind", ["training", "validation"])
def test_mt_train_pair_over_max_len_names_its_set_exit_1(tmp_path, capsys, kind):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[translator]\nmax_len = 6\n", encoding="utf-8")
    short, long = tmp_path / "short.tsv", tmp_path / "long.tsv"
    short.write_text("a b\tc\n", encoding="utf-8")
    long.write_text("a b\tc\na b c d e f\tc\n", encoding="utf-8")
    train, valid = (long, short) if kind == "training" else (short, long)
    out = tmp_path / "model.ckpt"
    code = main(["mt", "train", "--config", str(cfg), "--train", str(train), "--valid", str(valid),
                 "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {kind} pair 1 exceeds max_len=6 (source 7, target 2 tokens)\n"
    assert not out.exists()


def test_eval_bleu_cli(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b c d\n", encoding="utf-8")
    ref.write_text("a b c d\n", encoding="utf-8")
    assert main(["eval", "bleu", "--hypotheses", str(hyp), "--references", str(ref)]) == 0
    assert "BLEU = 100.0" in capsys.readouterr().out


def test_eval_bleu_line_count_mismatch_names_files_exit_2(tmp_path, capsys):
    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    hyp.write_text("a b\nc d\ne f\n", encoding="utf-8")
    ref.write_text("a b\nc d\n", encoding="utf-8")
    assert main(["eval", "bleu", "--hypotheses", str(hyp), "--references", str(ref)]) == 2
    assert capsys.readouterr().err == f"error: {hyp} has 3 lines, {ref} has 2\n"


def test_tags_extract_stub_backend(tmp_path, capsys):
    out = tmp_path / "tagged.tsv"
    code = main(
        [
            "tags",
            "extract",
            "--corpus",
            os.path.join(DISAMBIG, "valid.tsv"),
            "--config",
            str(write_cfg(tmp_path, "[experiment]\nseed = 5\n[tagging]\nk = 3\n")),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rows = load_vg_corpus(os.path.join(DISAMBIG, "valid.tsv"))
    lines = read_lines(str(out))
    assert len(lines) == len(rows) == 50
    for line, (_, source, target) in zip(lines, rows):
        rendered, tagged_target = line.split("\t")
        text, labels = tagging.parse_tagged(rendered)
        assert (text, tagged_target) == (source, target)
        assert len(labels) <= 3


def write_one_record_corpus(tmp_path, image_id):
    path = tmp_path / "one.tsv"
    path.write_text(f"{image_id}\t1\t1\t2\t2\ta source\ta target\n", encoding="utf-8")
    return str(path)


def write_detections_cfg(tmp_path, detections=os.path.join(DISAMBIG, "detections.tsv"),
                         vocabulary=os.path.join(DISAMBIG, "tag_vocab.txt")):
    """A config whose tags come from these detections, over this vocabulary."""
    body = f"[paths]\ndetections = {detections}\ntag_vocabulary = {vocabulary}\n"
    return str(write_cfg(tmp_path, body))


@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "byte-order-mark"])
def test_tags_extract_takes_the_labels_of_the_named_detections(tmp_path, capsys, bom):
    """Naming [paths] detections is what makes the file the tag source (the
    config has no [tagging] section); a leading byte-order mark of the corpus
    is not part of the first record's image id."""
    corpus = tmp_path / "valid.tsv"
    with open(os.path.join(DISAMBIG, "valid.tsv"), "rb") as handle:
        corpus.write_bytes(bom.encode("utf-8") + handle.read())
    out = tmp_path / "tagged.tsv"
    code = main(["tags", "extract", "--corpus", str(corpus), "--config", write_detections_cfg(tmp_path),
                 "--output", str(out)])
    assert code == 0, capsys.readouterr().err
    assert read_lines(str(out))[:2] == [
        "the bat is near the girl ## person,winged_animal\tTHE BATWING IS NEAR THE GIRL",
        "the bench chases the bird ## bench,bird\tTHE BENCH CHASES THE BIRD",
    ]


def test_tags_extract_backend_key_is_unknown_exit_1(tmp_path, capsys):
    cfg = write_detections_cfg(tmp_path)
    with open(cfg, "a", encoding="utf-8") as handle:
        handle.write("\n[tagging]\nbackend = file\n")
    out = tmp_path / "tagged.tsv"
    code = main(["tags", "extract", "--corpus", os.path.join(DISAMBIG, "valid.tsv"),
                 "--config", cfg, "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: unknown key 'backend' in [tagging]\n"
    assert not out.exists()


def test_tags_extract_unknown_image_exit_2(tmp_path, capsys):
    cfg = write_detections_cfg(tmp_path)
    code = main(["tags", "extract", "--corpus", write_one_record_corpus(tmp_path, "no-such-image"),
                 "--config", cfg, "--output", str(tmp_path / "tagged.tsv")])
    assert code == 2
    assert "(record 0)" in capsys.readouterr().err


@pytest.mark.parametrize("image_id", ["", "im1"])
def test_tags_extract_k_below_one_exit_1_before_detecting(tmp_path, monkeypatch, capsys, image_id):
    def no_detect(image_id, vocabulary, seed):
        raise AssertionError("detected with k = 0")

    monkeypatch.setattr(tagging, "stub_detections", no_detect)
    out = tmp_path / "tagged.tsv"
    cfg = write_cfg(tmp_path, "[tagging]\nk = 0\n")
    code = main(["tags", "extract", "--corpus", write_one_record_corpus(tmp_path, image_id),
                 "--config", str(cfg), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: [tagging] k must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_synth_enrich_k_below_one_exit_1(tmp_path, capsys, k):
    ckpt = tmp_path / "synth.ckpt"
    random_checkpoint(0).save(str(ckpt))
    src = tmp_path / "extra.src"
    tgt = tmp_path / "extra.tgt"
    src.write_text("aa bb\n", encoding="utf-8")
    tgt.write_text("cc dd\n", encoding="utf-8")
    out = tmp_path / "enriched.tsv"
    cfg = write_cfg(tmp_path, f"[tagging]\nk = {k}\n")
    code = main(["synth", "enrich", "--checkpoint", str(ckpt), "--source", str(src),
                 "--target", str(tgt), "--config", str(cfg), "--output", str(out)])
    assert code == 1
    assert f"k must be >= 1, got {k}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_enrich_bitext_tab_exit_2_before_decoding(tmp_path, monkeypatch, capsys):
    from tagmt import synth

    def no_decode(*args, **kwargs):
        raise AssertionError("decoded a bitext that holds a tab")

    monkeypatch.setattr(synth, "translate_corpus", no_decode)
    ckpt = tmp_path / "synth.ckpt"
    random_checkpoint(0).save(str(ckpt))
    src = tmp_path / "extra.src"
    tgt = tmp_path / "extra.tgt"
    src.write_text("aa bb\n", encoding="utf-8")
    tgt.write_text("\ncc\tdd\n", encoding="utf-8")
    out = tmp_path / "enriched.tsv"
    code = main(["synth", "enrich", "--checkpoint", str(ckpt), "--source", str(src),
                 "--target", str(tgt), "--output", str(out)])
    assert code == 2
    assert "error: line 2: target sentence contains a tab character" in capsys.readouterr().err
    assert not out.exists()


def test_synth_enrich_separator_names_record_exit_2_before_decoding(tmp_path, monkeypatch, capsys):
    from tagmt import synth

    def no_decode(*args, **kwargs):
        raise AssertionError("decoded a bitext that holds the reserved separator")

    monkeypatch.setattr(synth, "translate_corpus", no_decode)
    ckpt = tmp_path / "synth.ckpt"
    random_checkpoint(0).save(str(ckpt))
    src = tmp_path / "extra.src"
    tgt = tmp_path / "extra.tgt"
    src.write_text("aa bb\nthe ## cat\n", encoding="utf-8")
    tgt.write_text("cc dd\nee ff\n", encoding="utf-8")
    out = tmp_path / "enriched.tsv"
    err = _data_error(capsys, ["synth", "enrich", "--checkpoint", str(ckpt), "--source", str(src),
                               "--target", str(tgt), "--output", str(out)])
    assert err == "error: text contains the reserved separator '##': 'record 1: the ## cat'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, body, message",
    [
        (["mt", "train", "--train"], "[translator]\nlayers = 0\n", "[translator] layers must be >= 1, got 0"),
        (["synth", "train", "--pairs"], "[synthesizer]\nheads = 3\n", "[synthesizer] model_dim (128) must be"),
    ],
    ids=["mt-train", "synth-train"],
)
def test_train_config_error_names_section(tmp_path, capsys, command, body, message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(body, encoding="utf-8")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("aa bb\tcc dd\n", encoding="utf-8")
    out = tmp_path / "model.ckpt"
    code = main([*command, str(pairs), "--config", str(cfg), "--output", str(out)])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "body, line",
    [
        (b"[decode]\nbeam_width = 1\nbeam_width = 4\n", 3),
        (b"[decode]\nbeam_width = 1\n[decode]\n", 3),
        (b"seed = 1\n[experiment]\n", 1),
        (b"[decode]\nbeam_width = 1\nnot a key value line\n", 3),
        (b"[experiment]\ntask = caf\xe9\n", 2),
    ],
    ids=["duplicate-key", "duplicate-section", "no-section-header", "unparsable-line", "non-utf8"],
)
def test_malformed_config_exit_1(tmp_path, body, line):
    cfg = tmp_path / "broken.cfg"
    cfg.write_bytes(body)
    proc = subprocess.run(
        [sys.executable, "-m", "tagmt.cli", "pipeline", "run", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert "error:" in proc.stderr
    assert f"{cfg} line {line}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exit_3(tmp_path, capsys):
    train_tsv = tmp_path / "train.tsv"
    train_tsv.write_text("".join(f"s{i} x\ts{i} x\n" for i in range(40)), encoding="utf-8")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[translator]\nlayers = 1\nheads = 2\nmodel_dim = 16\nff_dim = 16\n"
        "max_steps = 30\nvalidation_interval = 30\nlearning_rate = 1e300\n"
        "grad_clip = 1e308\nwarmup_steps = 1\nmax_len = 8\n",
        encoding="utf-8",
    )
    code = main(
        [
            "mt",
            "train",
            "--config",
            str(cfg),
            "--train",
            str(train_tsv),
            "--output",
            str(tmp_path / "m.ckpt"),
        ]
    )
    assert code == 3


@pytest.mark.slow
def test_pipeline_reproducible_and_equals_manual_composition(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_a2 = tmp_path / "a2"
    out_b = tmp_path / "b"
    # two configs that differ only in [paths] output_dir; the stages read the first
    cfg = write_mini_cfg(tmp_path, out_a, "a.cfg")

    assert main(["pipeline", "run", "--config", cfg]) == 0
    stage_log = capsys.readouterr().err.splitlines()
    assert main(["pipeline", "run", "--config", write_mini_cfg(tmp_path, out_a2, "a2.cfg")]) == 0

    for name in PIPELINE_ARTIFACTS:
        a = (out_a / name).read_bytes()
        a2 = (out_a2 / name).read_bytes()
        assert a == a2, f"{name} differs between identical runs"

    # manual composition of subcommands reproduces every pipeline artifact
    out_b.mkdir()

    def run(argv):
        assert main(argv) == 0

    def p(name):
        return str(out_b / name)

    train_vg = os.path.join(DISAMBIG, "train.tsv")
    valid_vg = os.path.join(DISAMBIG, "valid.tsv")
    test_vg = os.path.join(DISAMBIG, "test.tsv")

    for split, vg in (("train", train_vg), ("valid", valid_vg), ("test", test_vg)):
        run(["tags", "extract", "--config", cfg, "--corpus", vg, "--output", p(f"tagged_{split}.tsv")])

    # plain text views of the corpora (documented VG format -> pairs TSV)
    for split, vg in (("train", train_vg), ("valid", valid_vg)):
        with open(p(f"text_{split}.tsv"), "w", encoding="utf-8") as fh:
            for _, source, target in load_vg_corpus(vg):
                fh.write(f"{source}\t{target}\n")
    test_rows = load_vg_corpus(test_vg)
    with open(p("test_sources.txt"), "w", encoding="utf-8") as fh:
        for _, source, _ in test_rows:
            fh.write(source + "\n")
    with open(p("test_refs.txt"), "w", encoding="utf-8") as fh:
        for _, _, target in test_rows:
            fh.write(target + "\n")
    with open(p("test_tagged_sources.txt"), "w", encoding="utf-8") as fh:
        for line in read_lines(p("tagged_test.tsv")):
            fh.write(line.split("\t")[0] + "\n")

    run(["mt", "train", "--config", cfg, "--train", p("text_train.tsv"),
         "--valid", p("text_valid.tsv"), "--output", p("translator_text.ckpt")])

    run(["synth", "build-pairs", "--tagged", p("tagged_train.tsv"), "--output", p("synth_pairs.tsv")])
    capsys.readouterr()
    run(["synth", "train", "--config", cfg, "--pairs", p("synth_pairs.tsv"),
         "--output", p("synthesizer.ckpt")])
    # the synthesizer fits below the default threshold 0.9 at 50 steps, and
    # the stage log reports it right after the fit, as `synth train` does
    low_fit = [line for line in capsys.readouterr().err.splitlines() if "below the configured" in line]
    assert len(low_fit) == 1
    fit_at = next(i for i, line in enumerate(stage_log) if "held-out exact match:" in line)
    assert stage_log[fit_at + 1] == "      " + low_fit[0]
    assert sum("below the configured" in line for line in stage_log) == 1
    run(["synth", "enrich", "--config", cfg, "--checkpoint", p("synthesizer.ckpt"),
         "--source", os.path.join(DISAMBIG, "extra.src"),
         "--target", os.path.join(DISAMBIG, "extra.tgt"), "--output", p("enriched.tsv")])

    with open(p("combined_train.tsv"), "w", encoding="utf-8") as fh:
        for line in read_lines(p("tagged_train.tsv")):
            fh.write(line + "\n")
        for line in read_lines(p("enriched.tsv")):
            fh.write(line + "\n")

    run(["mt", "train", "--config", cfg, "--train", p("combined_train.tsv"),
         "--valid", p("tagged_valid.tsv"), "--output", p("translator_multimodal.ckpt")])

    run(["mt", "translate", "--config", cfg, "--checkpoint", p("translator_text.ckpt"),
         "--input", p("test_sources.txt"), "--output", p("hypotheses_text.txt")])
    run(["mt", "translate", "--config", cfg, "--checkpoint", p("translator_multimodal.ckpt"),
         "--input", p("test_tagged_sources.txt"), "--output", p("hypotheses_multimodal.txt")])

    def bleu_of(hyp_path):
        capsys.readouterr()
        run(["eval", "bleu", "--hypotheses", hyp_path, "--references", p("test_refs.txt"),
             "--format", "tsv"])
        out = capsys.readouterr().out
        return next(l.split("\t")[1] for l in out.splitlines() if l.startswith("bleu\t"))

    with open(p("scores_text.tsv"), "w", encoding="utf-8") as fh:
        fh.write(f"toy-disambiguation\t{bleu_of(p('hypotheses_text.txt'))}\n")
    with open(p("scores_mm.tsv"), "w", encoding="utf-8") as fh:
        fh.write(f"toy-disambiguation\t{bleu_of(p('hypotheses_multimodal.txt'))}\n")
    for fmt, name in (("tsv", "report.tsv"), ("table", "report.txt")):
        run(["eval", "report", "--text-only", p("scores_text.tsv"), "--multimodal", p("scores_mm.tsv"),
             "--format", fmt, "--output", p(name)])

    # only the pipeline, which computed both scores, names their tokenization
    tokenization = {"report.tsv": b"# bleu_tokenization: whitespace\n",
                    "report.txt": b"bleu_tokenization: whitespace\n"}
    for name in PIPELINE_ARTIFACTS:
        composed, piped = (out_b / name).read_bytes(), (out_a / name).read_bytes()
        if name in tokenization:
            assert piped.count(tokenization[name]) == 1, name
            piped = piped.replace(tokenization[name], b"")
        assert piped == composed, name


PIPELINE_ARTIFACTS = [
    "tagged_train.tsv",
    "tagged_test.tsv",
    "translator_text.ckpt",
    "synth_pairs.tsv",
    "synthesizer.ckpt",
    "enriched.tsv",
    "translator_multimodal.ckpt",
    "hypotheses_text.txt",
    "hypotheses_multimodal.txt",
    "report.tsv",
    "report.txt",
]


def _pipeline_run(monkeypatch, capsys, cfg, cpus):
    """`pipeline run` as if `cpus` CPUs were available; returns the exit
    code, the stderr and how many times the pipeline forked."""
    capsys.readouterr()
    with monkeypatch.context() as patch:
        forks = counting_forks(patch, cpus)
        code = main(["pipeline", "run", "--config", cfg])
    return code, capsys.readouterr().err, len(forks)


# threads: numpy's BLAS threads, 1 where the pin took and None where it did not
@pytest.mark.parametrize("cpus, threads, forks", [(1, 1, 0), (2, 1, 1), (8, None, 0)])
def test_text_training_forks_only_when_cpus_hold_both(tmp_path, monkeypatch, cpus, threads, forks):
    done = tmp_path / "done"
    with monkeypatch.context() as patch:
        calls = counting_forks(patch, cpus)
        patch.setattr(forking, "BLAS_PINNED", threads == 1)
        with forking.alongside(lambda: done.write_text("trained")):
            pass
    assert len(calls) == forks
    assert done.read_text() == "trained"


@pytest.mark.slow
def test_pipeline_concurrent_equals_serial(tmp_path, monkeypatch, capsys):
    import hashlib

    # At ff_dim 64 some weight-gradient products of the synthesizer sum in an
    # order that depends on OpenBLAS's thread count (1 versus 2 changes
    # synthesizer.ckpt), so a concurrent path that changed that count would
    # show here on a machine with two or more CPUs and unpinned BLAS.
    runs = {}
    for cpus in (1, 2):
        out = tmp_path / f"cpus{cpus}"
        cfg = tmp_path / f"wide_ff{cpus}.cfg"
        cfg.write_text(MINI_CFG.replace("ff_dim = 48", "ff_dim = 64").format(d=DISAMBIG, out=out), encoding="utf-8")
        code, err, forks = _pipeline_run(monkeypatch, capsys, str(cfg), cpus)
        assert code == 0, err
        # the text-only training, then each of step 6's two decodes
        assert forks == 3 * (cpus - 1)
        assert sorted(os.listdir(out)) == sorted(PIPELINE_ARTIFACTS)
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PIPELINE_ARTIFACTS}
        runs[cpus] = digests, err
    assert runs[1] == runs[2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the test_divergence_exit_3 translator, with room for the fixture sentences
DIVERGING_TRANSLATOR = (
    "[translator]\nlayers = 1\nheads = 2\nmodel_dim = 16\nff_dim = 16\n"
    "max_steps = 30\nvalidation_interval = 30\nlearning_rate = 1e300\n"
    "grad_clip = 1e308\nwarmup_steps = 1\nmax_len = 48\n\n"
)


def _mini_cfg_variant(tmp_path, out, diverging=False, bad_bitext=False):
    """MINI_CFG writing to out, with the diverging translator and/or a bitext
    source whose third line holds the reserved separator."""
    body = MINI_CFG
    if diverging:
        body = body[: body.index("[translator]")] + DIVERGING_TRANSLATOR + body[body.index("[synthesizer]") :]
    if bad_bitext:
        lines = read_lines(os.path.join(DISAMBIG, "extra.src"))
        lines[2] = "the boy <sep> the bat"
        source = tmp_path / "extra.src"
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        body = body.replace("bitext_source = {d}/extra.src", f"bitext_source = {source}")
    cfg = tmp_path / f"{out.name}.cfg"
    cfg.write_text(body.format(d=DISAMBIG, out=out), encoding="utf-8")
    return str(cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad_bitext", [False, True], ids=["chain-ok", "chain-fails"])
def test_pipeline_text_divergence_exit_3(tmp_path, monkeypatch, capsys, bad_bitext):
    # The multimodal translator diverges too, and with a bad bitext line the
    # parent's chain fails at step 4; either way the text-only divergence
    # comes first in the serial order, so it is the error reported.
    errs = []
    for cpus in (1, 2):
        cfg = _mini_cfg_variant(tmp_path, tmp_path / f"cpus{cpus}", diverging=True, bad_bitext=bad_bitext)
        code, err, forks = _pipeline_run(monkeypatch, capsys, cfg, cpus)
        assert code == 3, err
        assert forks == (cpus - 1)
        errs.append(err)
    # the parent logs its later stages before it reaps the child; the error is the same
    last_lines = [err.splitlines()[-1] for err in errs]
    assert last_lines[0].startswith("error: training loss became non-finite at step ")
    assert last_lines[0] == last_lines[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pipeline_bad_bitext_line_exit_2(tmp_path, monkeypatch, capsys):
    cfg = _mini_cfg_variant(tmp_path, tmp_path / "out", bad_bitext=True)
    code, err, forks = _pipeline_run(monkeypatch, capsys, cfg, 2)
    assert code == 2, err
    assert forks == 1
    assert "error: text contains the reserved separator '<sep>': 'record 2: the boy <sep> the bat'" in err
    assert "Traceback" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pipeline_bad_bitext_file_exit_2_before_training(tmp_path, monkeypatch, capsys):
    # the bitext is read with the other corpora, so a bad line costs no training
    def no_training(*args, **kwargs):
        raise AssertionError("trained before reading the bitext")

    lines = read_lines(os.path.join(DISAMBIG, "extra.src"))
    lines[2] = "the boy\tthe bat"
    source = tmp_path / "extra.src"
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "tab.cfg"
    body = MINI_CFG.replace("bitext_source = {d}/extra.src", f"bitext_source = {source}")
    cfg.write_text(body.format(d=DISAMBIG, out=tmp_path / "out"), encoding="utf-8")
    monkeypatch.setattr(pipeline, "train", no_training)
    code, err, forks = _pipeline_run(monkeypatch, capsys, str(cfg), 2)
    assert code == 2, err
    assert forks == 0
    assert err.splitlines()[-1] == "error: line 3: source sentence contains a tab character"


def test_pipeline_beam_wider_than_vocabulary_exit_1_before_training(tmp_path, monkeypatch, capsys):
    with open(fixture_path("toy.cfg"), encoding="utf-8") as toy:
        body = toy.read().replace("disambig/", DISAMBIG + "/")
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(body.replace("[decode]\n", "[decode]\nbeam_width = 100000\n"), encoding="utf-8")
    out = tmp_path / "out"  # toy.cfg's output_dir, next to the config
    code, err, forks = _pipeline_run(monkeypatch, capsys, str(cfg), 2)
    assert code == 1, err
    assert forks == 0
    assert err.splitlines()[-1] == (
        "error: [decode] beam_width must be <= the vocabulary size 74, got 100000"
    )
    assert not [name for name in os.listdir(out) if name.endswith(".ckpt")]


def test_pipeline_translator_beyond_memory_exit_1_before_training(tmp_path, monkeypatch, capsys):
    """The translator's size is checked at the text-only vocabulary, a lower
    bound on the multimodal one, before step 2 trains anything."""
    with open(fixture_path("toy.cfg"), encoding="utf-8") as toy:
        body = toy.read().replace("disambig/", DISAMBIG + "/")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(body.replace("layers = 2", "layers = 99999999999999999999999", 1), encoding="utf-8")
    out = tmp_path / "out"
    code, err, forks = _pipeline_run(monkeypatch, capsys, str(cfg), 2)
    assert code == 1, err
    assert forks == 0
    assert err.splitlines()[-1].startswith(
        "error: out of memory: [translator] layers 99999999999999999999999, model_dim 32,"
    )
    assert "Traceback" not in err
    assert not (out / "synthesizer.ckpt").exists()


def test_pipeline_synthesizer_beyond_memory_exit_1_before_training(tmp_path, monkeypatch, capsys):
    """The synthesizer's size is checked before step 2 too, at the vocabulary
    of the rows it trains on, a lower bound on its own."""
    with open(fixture_path("toy.cfg"), encoding="utf-8") as toy:
        body = toy.read().replace("disambig/", DISAMBIG + "/")
    head, synthesizer = body.split("[synthesizer]")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"{head}[synthesizer]{synthesizer.replace('layers = 2', 'layers = 99999999999999999999999')}",
                   encoding="utf-8")
    out = tmp_path / "out"
    code, err, forks = _pipeline_run(monkeypatch, capsys, str(cfg), 2)
    assert code == 1, err
    assert forks == 0
    assert err.splitlines()[-1].startswith(
        "error: out of memory: [synthesizer] layers 99999999999999999999999, model_dim 32,"
    )
    assert "Traceback" not in err
    assert not (out / "translator_text.ckpt").exists()


def test_non_utf8_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes("a\t1\t1\t2\t2\tcafé\ttgt\n".encode("latin-1"))
    assert main(["corpus", "stats", "--vg", str(bad)]) == 2


# A VG file whose third line holds an invalid UTF-8 byte; the first two end
# in a lone CR and a CRLF, which count as line ends too.
NON_UTF8_VG = b"a\t1\t1\t2\t2\tsrc\ttgt\rb\t1\t1\t2\t2\tsrc\ttgt\r\nc\t1\t1\t2\t2\t\xff\ttgt\n"


@pytest.mark.parametrize(
    "argv",
    [["corpus", "stats", "--vg", "{bad}"], ["eval", "bleu", "--hypotheses", "{bad}", "--references", "{good}"]],
    ids=["corpus-stats", "eval-bleu"],
)
def test_non_utf8_names_file_and_line_exit_2(tmp_path, capsys, argv):
    bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
    bad.write_bytes(NON_UTF8_VG)
    good.write_text("x\ny\nz\n", encoding="utf-8")
    assert main([arg.format(bad=bad, good=good) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: line 3: {bad} is not valid UTF-8\n"


def _data_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "detections, message",
    [
        ("im1\tdog 1.5\n", "line 1: confidence 1.5 outside [0, 1]"),
        ("\nim1\tdog nan\n", "line 2: confidence nan outside [0, 1]"),
        ("im1\tdog -0.1\n", "line 1: confidence -0.1 outside [0, 1]"),
        ("im1\tdog 0.5\nim1\tcat 0.9\n", "line 2: repeated image id 'im1'"),
    ],
)
def test_tags_extract_bad_detections_exit_2(tmp_path, capsys, detections, message):
    det = tmp_path / "det.tsv"
    det.write_text(detections, encoding="utf-8")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("dog\ncat\n", encoding="utf-8")
    err = _data_error(
        capsys,
        ["tags", "extract", "--corpus", write_one_record_corpus(tmp_path, "im1"),
         "--config", write_detections_cfg(tmp_path, det, vocab), "--output", str(tmp_path / "out.tsv")],
    )
    assert message in err


def test_tags_extract_separator_names_record_exit_2(tmp_path, capsys):
    """A source's standalone ``##`` is a data error of `tags extract`, which
    reads the sources it tags."""
    corpus = tmp_path / "vg.tsv"
    corpus.write_text("im1\t1\t1\t2\t2\ta ## dog\tt\nim1\t1\t1\t2\t2\ta cat\tt\n", encoding="utf-8")
    out = tmp_path / "tagged.tsv"
    err = _data_error(capsys, ["tags", "extract", "--corpus", str(corpus), "--config", write_detections_cfg(tmp_path),
                               "--output", str(out)])
    assert err == "error: text contains the reserved separator '##': 'record 0: a ## dog'\n"
    assert not out.exists()


def test_tags_extract_empty_vocabulary_exit_2(tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("# nothing\n", encoding="utf-8")
    out = tmp_path / "tagged.tsv"
    cfg = write_cfg(tmp_path, f"[paths]\ntag_vocabulary = {vocab}\n")
    err = _data_error(capsys, ["tags", "extract", "--corpus", os.path.join(DISAMBIG, "valid.tsv"),
                               "--config", str(cfg), "--output", str(out)])
    assert err == f"error: tag vocabulary {vocab} holds no label\n"
    assert not out.exists()


def test_pipeline_stub_backend_empty_vocabulary_exit_2(tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("# nothing\n", encoding="utf-8")
    cfg = tmp_path / "stub.cfg"
    cfg.write_text(
        f"[paths]\ntrain_corpus = {DISAMBIG}/train.tsv\ntest_corpus = {DISAMBIG}/test.tsv\n"
        f"tag_vocabulary = {vocab}\noutput_dir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    err = _data_error(capsys, ["pipeline", "run", "--config", str(cfg)])
    assert err.endswith(f"error: tag vocabulary {vocab} holds no label\n")
    assert err.count("error:") == 1


def test_synth_build_pairs_separator_names_record_exit_2(tmp_path, capsys):
    tagged = tmp_path / "tagged.tsv"
    tagged.write_text("a cat ## cat\tt\nthe <sep> bat ## dog\tu\n", encoding="utf-8")
    err = _data_error(capsys, ["synth", "build-pairs", "--tagged", str(tagged),
                               "--output", str(tmp_path / "pairs.tsv")])
    assert err == "error: text contains the reserved separator '<sep>': 'record 1: the <sep> bat'\n"


# Every leaf command with a value for each flag it takes ("OUT" is replaced by
# a path under the test's directory). A command takes only the flags it reads.
LEAF_FLAGS = {
    ("corpus", "stats"): {"--vg": "x.tsv", "--source": "x.src", "--target": "x.tgt", "--format": "tsv"},
    ("tags", "extract"): {"--config": "c.cfg", "--corpus": "x.tsv", "--output": "OUT"},
    ("synth", "build-pairs"): {"--tagged": "t.tsv", "--output": "OUT"},
    ("synth", "train"): {"--config": "c.cfg", "--pairs": "p.tsv", "--output": "OUT"},
    ("synth", "enrich"): {"--config": "c.cfg", "--checkpoint": "m.ckpt", "--source": "x.src",
                          "--target": "x.tgt", "--output": "OUT"},
    ("mt", "train"): {"--config": "c.cfg", "--train": "p.tsv", "--valid": "v.tsv", "--output": "OUT"},
    ("mt", "translate"): {"--config": "c.cfg", "--checkpoint": "m.ckpt", "--input": "s.txt",
                          "--output": "OUT"},
    ("eval", "bleu"): {"--hypotheses": "h.txt", "--references": "r.txt", "--smooth": None,
                       "--format": "tsv"},
    ("eval", "report"): {"--text-only": "a.tsv", "--multimodal": "b.tsv", "--output": "OUT",
                         "--format": "tsv"},
    ("pipeline", "run"): {"--config": "c.cfg"},
}


# flags no command takes: those that copied or overrode a config key (every
# command reads the key from --config instead), --tagsets, the file `tags
# extract` wrote before it wrote the tagged corpus, --base, which only the
# `mt finetune` subcommand, now gone, took, and `eval report`'s --timestamp,
# --corpus-name and --split, which only echoed their values into the report
REMOVED_FLAGS = {"--backend": "file", "--detections": "d.tsv", "--tag-vocabulary": "v.txt", "--k": "3",
                 "--decode": "beam", "--beam-width": "2", "--max-len": "9", "--max-steps": "3",
                 "--seed": "5", "--output-dir": "OUT", "--tagsets": "t.tsv", "--base": "m.ckpt",
                 "--timestamp": "now", "--corpus-name": "toy", "--split": "etest"}


def _leaf_argv(leaf, flags, out):
    argv = list(leaf)
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, out if value == "OUT" else value]
    return argv


def _option_strings(parser):
    return {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}


def _leaves(parser):
    """(group, command) -> the leaf parser, for every leaf of parser."""
    groups = parser._subparsers._group_actions[0].choices
    return {
        (group, name): leaf
        for group, group_parser in groups.items()
        for name, leaf in group_parser._subparsers._group_actions[0].choices.items()
    }


def test_build_parser_accepts_34_flags():
    from tagmt.cli import build_parser

    parser = build_parser()
    leaves = _leaves(parser)
    assert sorted(leaves) == sorted(LEAF_FLAGS)
    assert _option_strings(parser) == set()
    for leaf, flags in LEAF_FLAGS.items():
        assert _option_strings(leaves[leaf]) == set(flags), leaf
    assert sum(len(flags) for flags in LEAF_FLAGS.values()) == 34


def test_no_flag_of_a_config_command_spells_a_config_key():
    """A command that reads --config takes no flag named after a config key
    (`--` plus the key, `_` as `-`): the file is the one source of every
    setting, so no flag overrides one."""
    from tagmt.cli import build_parser
    from tagmt.config import KEYS

    key_flags = {"--" + key.replace("_", "-") for _, key in KEYS}
    for leaf, parser in _leaves(build_parser()).items():
        flags = _option_strings(parser)
        if "--config" in flags:
            assert not flags & key_flags, leaf


@pytest.mark.parametrize("leaf", LEAF_FLAGS, ids="-".join)
def test_leaf_takes_only_the_flags_it_reads(tmp_path, capsys, leaf):
    """Every flag the leaf keeps parses; one it does not read, a removed one
    included, exits 1 and writes nothing."""
    from tagmt.cli import build_parser

    out = str(tmp_path / "out")
    argv = _leaf_argv(leaf, LEAF_FLAGS[leaf], out)
    args = build_parser().parse_args(argv)
    for flag, value in LEAF_FLAGS[leaf].items():
        got = getattr(args, flag.lstrip("-").replace("-", "_"))
        assert str(got) == (out if value == "OUT" else value or "True"), flag
    foreign = {"--config": fixture_path("toy.cfg"), **REMOVED_FLAGS}
    for flag, value in foreign.items():
        if flag in LEAF_FLAGS[leaf]:
            continue
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, flag, value])
        assert exit_info.value.code == 1
        assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_mt_finetune_is_gone_exit_1(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["mt", "finetune", "--help"])
    assert exit_info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: argument COMMAND: invalid choice: 'finetune'" in err


def test_flag_before_the_subcommand_exit_1(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a b\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(["--format", "tsv", "eval", "bleu", "--hypotheses", str(hyp), "--references", str(hyp)])
    assert exit_info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: unrecognized arguments: --format (a flag goes after the subcommand)" in err
    assert os.listdir(tmp_path) == ["hyp.txt"]


@pytest.mark.parametrize("command", [["mt", "train", "--train"], ["synth", "train", "--pairs"]])
def test_trainers_without_config_take_the_experiment_seed(command):
    from tagmt.cli import _load_config, build_parser

    config = _load_config(build_parser().parse_args([*command, "p.tsv", "--output", "m.ckpt"]))
    assert config.seed == config.translator.seed == config.synthesizer.seed == 13


def test_translate_beam_width_above_vocabulary_exit_1(tmp_path):
    ckpt = tmp_path / "m.ckpt"
    random_checkpoint(0).save(str(ckpt))
    sources = tmp_path / "sources.txt"
    sources.write_text("aa bb\n", encoding="utf-8")
    cfg = write_cfg(tmp_path, "[decode]\nbeam_width = 100000000000000000000\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tagmt.cli", "mt", "translate", "--checkpoint", str(ckpt),
         "--input", str(sources), "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: [decode] beam_width must be <= the vocabulary size 17, "
        "got 100000000000000000000\n"
    )


def test_readme_command_lines_parse():
    """Every `tagmt ...` example in README's command block uses flags its
    command takes, and every leaf command has an example."""
    import re
    import shlex

    from tagmt.cli import build_parser

    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"```bash\n(# end-to-end toy experiment.*?)```", text, re.S)[1]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("tagmt ")]
    assert len(lines) == 10
    invoked = set()
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert hasattr(args, "func"), line
        invoked.add((args.group, args.command))
    assert invoked == set(_leaves(build_parser()))


NON_FINITE = pytest.mark.parametrize("value", ["nan", "inf", "-inf"])


@NON_FINITE
@pytest.mark.parametrize("key", ["learning_rate", "grad_clip"])
def test_train_non_finite_rate_or_clip_exit_1(tmp_path, capsys, key, value):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[translator]\nlayers = 1\nheads = 2\nmodel_dim = 16\nff_dim = 16\nmax_steps = 2\n"
        f"validation_interval = 1\nmax_len = 8\n{key} = {value}\n",
        encoding="utf-8",
    )
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("aa bb\tcc dd\n", encoding="utf-8")
    out = tmp_path / "model.ckpt"
    code = main(["mt", "train", "--train", str(pairs), "--config", str(cfg), "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: [translator] {key} must be finite and > 0, got {float(value)}\n"
    )
    assert not out.exists()


@NON_FINITE
@pytest.mark.parametrize("key", ["learning_rate", "grad_clip"])
def test_checkpoint_non_finite_rate_or_clip_rejected(tmp_path, key, value):
    checkpoint = random_checkpoint(0)
    # replace() does not validate; json writes the value as NaN, Infinity or -Infinity
    checkpoint.config = replace(checkpoint.config, **{key: float(value)})
    path = str(tmp_path / "bad-config.ckpt")
    checkpoint.save(path)
    message = f"checkpoint {path}: {key} must be finite and > 0, got {float(value)}"
    with pytest.raises(ConfigError) as raised:
        Checkpoint.load(path)
    assert str(raised.value) == message


# Sizes no address space holds: numpy fails the first large allocation at once,
# before it touches any memory.
HUGE = 10**15


def test_checkpoint_max_len_too_large_to_allocate_exit_1(tmp_path, capsys):
    checkpoint = random_checkpoint(0)
    checkpoint.config = replace(checkpoint.config, max_len=HUGE)  # no parameter's shape
    ckpt = tmp_path / "huge.ckpt"
    checkpoint.save(str(ckpt))
    sources = tmp_path / "sources.txt"
    sources.write_text("aa bb\n", encoding="utf-8")
    out = tmp_path / "hyp.txt"
    code = main(["mt", "translate", "--checkpoint", str(ckpt), "--input", str(sources),
                 "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_train_model_dim_too_large_to_allocate_exit_1(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[translator]\nmodel_dim = {HUGE}\nmax_steps = 1\nvalidation_interval = 1\n",
                   encoding="utf-8")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("aa bb\tcc dd\n", encoding="utf-8")
    out = tmp_path / "model.ckpt"
    code = main(["mt", "train", "--train", str(pairs), "--config", str(cfg), "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
    assert not out.exists()


# the exit code of each error class of test_errors.EXAMPLES (which covers them
# all), written out: DataError and its subclasses 2, Divergence 3, the rest 1;
# an OSError exits 1 too
EXIT_CODES = {
    "TagmtError": 1,
    "ConfigError": 1,
    "DataError": 2,
    "MalformedLine": 2,
    "LengthMismatch": 2,
    "UnknownImage": 2,
    "SeparatorCollision": 2,
    "Divergence": 3,
    "OSError": 1,
}


@pytest.mark.parametrize(
    "err", EXAMPLES + [OSError("No space left on device")], ids=lambda err: type(err).__name__
)
def test_error_class_exit_code(monkeypatch, tmp_path, capsys, err):
    from tagmt import cli

    def failing(corpus):
        raise err

    monkeypatch.setattr(cli, "corpus_stats", failing)
    src, tgt = tmp_path / "a.src", tmp_path / "a.tgt"
    src.write_text("aa bb\n", encoding="utf-8")
    tgt.write_text("cc dd\n", encoding="utf-8")
    code = main(["corpus", "stats", "--source", str(src), "--target", str(tgt)])
    assert code == EXIT_CODES[type(err).__name__]
    assert capsys.readouterr().err == f"error: {err}\n"


def _train_beyond_memory(tmp_path, translator, timeout=120):
    """`mt train` in a child under a 1 GiB address-space limit, on a config
    whose [translator] section is the given lines; it must exit 1 with one
    out-of-memory line and write nothing. Returns that line."""
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[translator]\n{translator}\n", encoding="utf-8")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("aa bb\tcc dd\n", encoding="utf-8")
    out = tmp_path / "model.ckpt"
    proc = subprocess.run(
        [sys.executable, "-m", "tagmt.cli", "mt", "train", "--train", str(pairs),
         "--config", str(cfg), "--output", str(out)],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=timeout,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    return proc.stderr


def test_train_model_beyond_memory_exit_1_before_allocating(tmp_path):
    """At model_dim 10^8 the parameters need far more than any memory; the
    size check fails before the first array, so a 1 GiB address-space limit,
    set on the child alone, is never reached."""
    err = _train_beyond_memory(tmp_path, "model_dim = 100000000\nheads = 2")
    assert "model_dim 100000000" in err, err


@pytest.mark.parametrize(
    "key, value",
    [("layers", 99999999999999999999999), ("ff_dim", 99999999999999999999999),
     ("layers", 10**400)],  # more GiB than a float holds
    ids=["layers", "ff_dim", "layers-400-digits"],
)
def test_train_model_beyond_memory_names_the_key(tmp_path, key, value):
    """The size is counted in closed form before the parameter layout, ~42
    entries a layer, is built: at 10^23 layers the check answers at once
    where building the layout first would run until the address space is
    full. The message names the key that set the size."""
    err = _train_beyond_memory(tmp_path, f"{key} = {value}", timeout=60)
    assert f"{key} {value}," in err, err
    assert "vocabulary size " in err, err
