import contextlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counting_forks, fixture_path
from tagmt import forking, pipeline
from tagmt.cli import main
from tagmt.corpus import load_vg_corpus
from tagmt.fileio import read_lines
from test_decode import random_checkpoint

DISAMBIG = fixture_path("disambig")

MINI_CFG = """\
[experiment]
seed = 13
task = toy-disambiguation
corpus_name = toy

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
backend = file
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

[decode]
method = greedy
max_len = 48
"""


def write_mini_cfg(tmp_path, out_dir):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI_CFG.format(d=DISAMBIG, out=out_dir), encoding="utf-8")
    return str(path)


def test_corpus_stats_table(capsys):
    assert main(["corpus", "stats", "--vg", os.path.join(DISAMBIG, "train.tsv"), "--split", "train"]) == 0
    out = capsys.readouterr().out
    assert "sentences" in out and "200" in out


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


def test_corpus_validate_ok(capsys):
    assert main(["corpus", "validate", "--vg", os.path.join(DISAMBIG, "test.tsv")]) == 0
    assert "OK: 100" in capsys.readouterr().out


def test_corpus_validate_bad_line_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\t1\t1\t2\t2\tsrc\ttgt\nbroken\t1\t2\n", encoding="utf-8")
    assert main(["corpus", "validate", "--vg", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_corpus_validate_bitext_tab_exit_2(tmp_path, capsys):
    src = tmp_path / "extra.src"
    tgt = tmp_path / "extra.tgt"
    src.write_text("aa bb\nx\ty\n", encoding="utf-8")
    tgt.write_text("cc dd\nee ff\n", encoding="utf-8")
    assert main(["corpus", "validate", "--source", str(src), "--target", str(tgt)]) == 2
    assert "error: line 2: source sentence contains a tab character" in capsys.readouterr().err


def test_corpus_validate_needs_input(capsys):
    assert main(["corpus", "validate"]) == 1


def test_usage_error_exit_1():
    proc = subprocess.run(
        [sys.executable, "-m", "tagmt.cli", "corpus", "stats", "--nonsense"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    # an unimportable tagmt also exits 1; only argparse prints its usage line
    assert "usage:" in proc.stderr


@pytest.mark.parametrize("max_len", ["0", "1", "-3"])
def test_translate_max_len_below_two_exit_1(tmp_path, capsys, max_len):
    ckpt = tmp_path / "random.ckpt"
    random_checkpoint(0).save(str(ckpt))
    sources = tmp_path / "sources.txt"
    sources.write_text("aa bb\n", encoding="utf-8")
    out = tmp_path / "hyps.txt"
    rc = main(["mt", "translate", "--checkpoint", str(ckpt), "--input", str(sources),
               "--output", str(out), "--max-len", max_len])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"max_len must be >= 2, got {max_len}" in err
    assert "Traceback" not in err
    assert not out.exists()


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
        (None, "config is not a JSON object"),
    ],
    ids=["str-int", "float-int", "bool-int", "str-float", "unknown", "invalid", "not-object"],
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


# `mt translate` as if two CPUs and one BLAS thread were there; prints the fork count last
FORCED_FORK_CLI = """
import os
import sys
from tagmt import forking
from tagmt.cli import main

forks = []
real_fork = os.fork
os.fork = lambda: forks.append(1) or real_fork()
os.sched_getaffinity = lambda pid: {0, 1}
forking._blas_threads = lambda: 1
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
    many = max(2, -(-FORK_MIN_WORK // (width * checkpoint.config.max_len)))
    for lines, launcher, forks in [(1, ["-m", "tagmt.cli"], ""), (many, ["-c", FORCED_FORK_CLI], "1\n")]:
        sources = tmp_path / "sources.txt"
        sources.write_text("aa bb\n" * lines, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, *launcher, "mt", "translate", "--checkpoint", str(ckpt),
             "--input", str(sources), "--decode", decode],
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


def test_eval_report_missing_baseline_names_line_exit_2(tmp_path, capsys):
    text_only = tmp_path / "text.tsv"
    text_only.write_text("EN-HI E-Test\t36.2\n", encoding="utf-8")
    multimodal = tmp_path / "mm.tsv"
    multimodal.write_text("# scores\nEN-HI E-Test\t42.0\n\nEN-HI C-Test\t39.1\n", encoding="utf-8")
    code = main(["eval", "report", "--text-only", str(text_only), "--multimodal", str(multimodal)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: line 4: no text-only baseline score for task 'EN-HI C-Test'" in err


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


@pytest.mark.parametrize("command", [["mt", "train", "--train"], ["synth", "train", "--pairs"]])
def test_negative_seed_exit_1(tmp_path, capsys, command):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("aa bb\tcc dd\n", encoding="utf-8")
    out = tmp_path / "model.ckpt"
    assert main([*command, str(pairs), "--seed", "-1", "--output", str(out)]) == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
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
    out = tmp_path / "tagsets.tsv"
    code = main(
        [
            "tags",
            "extract",
            "--corpus",
            os.path.join(DISAMBIG, "valid.tsv"),
            "--backend",
            "stub",
            "--k",
            "3",
            "--output",
            str(out),
            "--seed",
            "5",
        ]
    )
    assert code == 0
    lines = read_lines(str(out))
    assert len(lines) == 50
    for line in lines:
        image_id, labels = line.split("\t")
        assert len([l for l in labels.split(",") if l]) <= 3


def write_one_record_corpus(tmp_path, image_id):
    path = tmp_path / "one.tsv"
    path.write_text(f"{image_id}\t1\t1\t2\t2\ta source\ta target\n", encoding="utf-8")
    return str(path)


def test_tags_inject_unknown_image_exit_2(tmp_path, capsys):
    tagsets = tmp_path / "tagsets.tsv"
    tagsets.write_text("other\tdog\n", encoding="utf-8")
    code = main(["tags", "inject", "--corpus", write_one_record_corpus(tmp_path, "im1"),
                 "--tagsets", str(tagsets), "--output", str(tmp_path / "tagged.tsv")])
    assert code == 2
    assert "(record 0)" in capsys.readouterr().err


def test_tags_extract_file_backend_needs_detections_exit_1(tmp_path, capsys):
    code = main(["tags", "extract", "--corpus", write_one_record_corpus(tmp_path, "im1"),
                 "--backend", "file", "--output", str(tmp_path / "tagsets.tsv")])
    assert code == 1
    assert "detections" in capsys.readouterr().err


def test_tags_extract_unknown_image_exit_2(tmp_path, capsys):
    code = main(["tags", "extract", "--corpus", write_one_record_corpus(tmp_path, "no-such-image"),
                 "--backend", "file", "--detections", os.path.join(DISAMBIG, "detections.tsv"),
                 "--tag-vocabulary", os.path.join(DISAMBIG, "tag_vocab.txt"),
                 "--output", str(tmp_path / "tagsets.tsv")])
    assert code == 2
    assert "(record 0)" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_synth_enrich_k_below_one_exit_1(tmp_path, capsys, k):
    ckpt = tmp_path / "synth.ckpt"
    random_checkpoint(0).save(str(ckpt))
    src = tmp_path / "extra.src"
    tgt = tmp_path / "extra.tgt"
    src.write_text("aa bb\n", encoding="utf-8")
    tgt.write_text("cc dd\n", encoding="utf-8")
    out = tmp_path / "enriched.tsv"
    code = main(["synth", "enrich", "--checkpoint", str(ckpt), "--source", str(src),
                 "--target", str(tgt), "--k", k, "--output", str(out)])
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
        (b"[decode]\nmethod = greedy\nmethod = beam\n", 3),
        (b"[decode]\nmethod = greedy\n[decode]\n", 3),
        (b"seed = 1\n[experiment]\n", 1),
        (b"[decode]\nmethod = greedy\nnot a key value line\n", 3),
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
    cfg = write_mini_cfg(tmp_path, "unused")

    assert main(["pipeline", "run", "--config", cfg, "--output-dir", str(out_a)]) == 0
    assert main(["pipeline", "run", "--config", cfg, "--output-dir", str(out_a2)]) == 0

    compare = [
        "tagged_train.tsv",
        "tagged_test.tsv",
        "synth_pairs.tsv",
        "enriched.tsv",
        "hypotheses_text.txt",
        "hypotheses_multimodal.txt",
        "report.tsv",
        "report.txt",
    ]
    for name in compare:
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
    det = os.path.join(DISAMBIG, "detections.tsv")
    tvoc = os.path.join(DISAMBIG, "tag_vocab.txt")

    for split, vg in (("train", train_vg), ("valid", valid_vg), ("test", test_vg)):
        run(
            ["tags", "extract", "--corpus", vg, "--backend", "file", "--detections", det,
             "--tag-vocabulary", tvoc, "--k", "10", "--output", p(f"tagsets_{split}.tsv")]
        )
        run(
            ["tags", "inject", "--corpus", vg, "--tagsets", p(f"tagsets_{split}.tsv"),
             "--output", p(f"tagged_{split}.tsv")]
        )

    # plain text views of the corpora (documented VG format -> pairs TSV)
    for split, vg in (("train", train_vg), ("valid", valid_vg)):
        corpus = load_vg_corpus(vg)
        with open(p(f"text_{split}.tsv"), "w", encoding="utf-8") as fh:
            for rec in corpus.records:
                fh.write(f"{rec.source_text}\t{rec.target_text}\n")
    test_corpus = load_vg_corpus(test_vg)
    with open(p("test_sources.txt"), "w", encoding="utf-8") as fh:
        for rec in test_corpus.records:
            fh.write(rec.source_text + "\n")
    with open(p("test_refs.txt"), "w", encoding="utf-8") as fh:
        for rec in test_corpus.records:
            fh.write(rec.target_text + "\n")
    with open(p("test_tagged_sources.txt"), "w", encoding="utf-8") as fh:
        for line in read_lines(p("tagged_test.tsv")):
            fh.write(line.split("\t")[0] + "\n")

    run(["mt", "train", "--config", cfg, "--train", p("text_train.tsv"),
         "--valid", p("text_valid.tsv"), "--output", p("translator_text.ckpt")])

    run(["synth", "build-pairs", "--tagged", p("tagged_train.tsv"), "--output", p("synth_pairs.tsv")])
    run(["synth", "train", "--config", cfg, "--pairs", p("synth_pairs.tsv"),
         "--output", p("synthesizer.ckpt")])
    run(["synth", "enrich", "--checkpoint", p("synthesizer.ckpt"),
         "--source", os.path.join(DISAMBIG, "extra.src"),
         "--target", os.path.join(DISAMBIG, "extra.tgt"),
         "--tag-vocabulary", tvoc, "--k", "10", "--output", p("enriched.tsv")])

    with open(p("combined_train.tsv"), "w", encoding="utf-8") as fh:
        for line in read_lines(p("tagged_train.tsv")):
            fh.write(line + "\n")
        for line in read_lines(p("enriched.tsv")):
            tagged_source, target, _ = line.split("\t")
            fh.write(f"{tagged_source}\t{target}\n")

    run(["mt", "train", "--config", cfg, "--train", p("combined_train.tsv"),
         "--valid", p("tagged_valid.tsv"), "--output", p("translator_multimodal.ckpt")])

    run(["mt", "translate", "--checkpoint", p("translator_text.ckpt"),
         "--input", p("test_sources.txt"), "--output", p("hypotheses_text.txt"),
         "--decode", "greedy", "--max-len", "48"])
    run(["mt", "translate", "--checkpoint", p("translator_multimodal.ckpt"),
         "--input", p("test_tagged_sources.txt"), "--output", p("hypotheses_multimodal.txt"),
         "--decode", "greedy", "--max-len", "48"])

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
    run(["eval", "report", "--text-only", p("scores_text.tsv"), "--multimodal", p("scores_mm.tsv"),
         "--corpus-name", "toy", "--split", "etest", "--format", "tsv",
         "--output", p("report.tsv")])

    for name in ("tagged_train.tsv", "synth_pairs.tsv", "enriched.tsv",
                 "hypotheses_text.txt", "hypotheses_multimodal.txt", "report.tsv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


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


def _pipeline_run(monkeypatch, capsys, cfg, out_dir, cpus):
    """`pipeline run` as if `cpus` CPUs and one BLAS thread were available;
    returns the exit code, the stderr and how many times the pipeline forked."""
    capsys.readouterr()
    with monkeypatch.context() as patch:
        forks = counting_forks(patch, cpus, 1)
        code = main(["pipeline", "run", "--config", cfg, "--output-dir", str(out_dir)])
    return code, capsys.readouterr().err, len(forks)


@pytest.mark.parametrize(
    "cpus, blas_threads, forks",
    [(1, 1, 0), (2, 1, 1), (2, 2, 0), (3, 2, 0), (4, 2, 1), (8, None, 0)],
)
def test_text_training_forks_only_when_cpus_hold_both(tmp_path, monkeypatch, cpus, blas_threads, forks):
    done = tmp_path / "done"
    with monkeypatch.context() as patch:
        calls = counting_forks(patch, cpus, blas_threads)
        with forking.alongside(lambda: done.write_text("trained")):
            pass
    assert len(calls) == forks
    assert done.read_text() == "trained"


@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "unpinned"])
def test_blas_threads_reads_numpys_blas(pinned):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if pinned:
        env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", "from tagmt.forking import _blas_threads; print(_blas_threads())"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    threads = proc.stdout.strip()
    if threads == "None":
        pytest.skip("numpy's BLAS does not export scipy_openblas_get_num_threads64_")
    if pinned:
        assert int(threads) == 1
    else:
        assert int(threads) >= 1


@pytest.mark.slow
def test_pipeline_concurrent_equals_serial(tmp_path, monkeypatch, capsys):
    import hashlib

    # At ff_dim 64 some weight-gradient products of the synthesizer sum in an
    # order that depends on OpenBLAS's thread count (1 versus 2 changes
    # synthesizer.ckpt), so a concurrent path that changed that count would
    # show here on a machine with two or more CPUs and unpinned BLAS.
    cfg = tmp_path / "wide_ff.cfg"
    cfg.write_text(MINI_CFG.replace("ff_dim = 48", "ff_dim = 64").format(d=DISAMBIG, out="unused"), encoding="utf-8")
    runs = {}
    for cpus in (1, 2):
        out = tmp_path / f"cpus{cpus}"
        code, err, forks = _pipeline_run(monkeypatch, capsys, str(cfg), out, cpus)
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


def _mini_cfg_variant(tmp_path, diverging=False, bad_bitext=False):
    """MINI_CFG with the diverging translator and/or a bitext source whose
    third line holds the reserved separator."""
    body = MINI_CFG
    if diverging:
        body = body[: body.index("[translator]")] + DIVERGING_TRANSLATOR + body[body.index("[synthesizer]") :]
    if bad_bitext:
        lines = read_lines(os.path.join(DISAMBIG, "extra.src"))
        lines[2] = "the boy <sep> the bat"
        source = tmp_path / "extra.src"
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        body = body.replace("bitext_source = {d}/extra.src", f"bitext_source = {source}")
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(body.format(d=DISAMBIG, out="unused"), encoding="utf-8")
    return str(cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad_bitext", [False, True], ids=["chain-ok", "chain-fails"])
def test_pipeline_text_divergence_exit_3(tmp_path, monkeypatch, capsys, bad_bitext):
    # The multimodal translator diverges too, and with a bad bitext line the
    # parent's chain fails at step 4; either way the text-only divergence
    # comes first in the serial order, so it is the error reported.
    cfg = _mini_cfg_variant(tmp_path, diverging=True, bad_bitext=bad_bitext)
    errs = []
    for cpus in (1, 2):
        code, err, forks = _pipeline_run(monkeypatch, capsys, cfg, tmp_path / f"cpus{cpus}", cpus)
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
    cfg = _mini_cfg_variant(tmp_path, bad_bitext=True)
    code, err, forks = _pipeline_run(monkeypatch, capsys, cfg, tmp_path / "out", 2)
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
    cfg.write_text(body.format(d=DISAMBIG, out="unused"), encoding="utf-8")
    monkeypatch.setattr(pipeline, "train", no_training)
    code, err, forks = _pipeline_run(monkeypatch, capsys, str(cfg), tmp_path / "out", 2)
    assert code == 2, err
    assert forks == 0
    assert err.splitlines()[-1] == "error: line 3: source sentence contains a tab character"


def test_non_utf8_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes("a\t1\t1\t2\t2\tcafé\ttgt\n".encode("latin-1"))
    assert main(["corpus", "validate", "--vg", str(bad)]) == 2


# A VG file whose third line holds an invalid UTF-8 byte; the first two end
# in a lone CR and a CRLF, which count as line ends too.
NON_UTF8_VG = b"a\t1\t1\t2\t2\tsrc\ttgt\rb\t1\t1\t2\t2\tsrc\ttgt\r\nc\t1\t1\t2\t2\t\xff\ttgt\n"


@pytest.mark.parametrize(
    "argv",
    [["corpus", "validate", "--vg", "{bad}"], ["eval", "bleu", "--hypotheses", "{bad}", "--references", "{good}"]],
    ids=["corpus-validate", "eval-bleu"],
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
        ["tags", "extract", "--corpus", write_one_record_corpus(tmp_path, "im1"), "--backend", "file",
         "--detections", str(det), "--tag-vocabulary", str(vocab), "--output", str(tmp_path / "out.tsv")],
    )
    assert message in err


def test_tags_inject_repeated_image_exit_2(tmp_path, capsys):
    tagsets = tmp_path / "tagsets.tsv"
    tagsets.write_text("im1\tdog\nim1\tcat\n", encoding="utf-8")
    err = _data_error(capsys, ["tags", "inject", "--corpus", write_one_record_corpus(tmp_path, "im1"),
                               "--tagsets", str(tagsets), "--output", str(tmp_path / "tagged.tsv")])
    assert "line 2: repeated image id 'im1'" in err


def test_tags_inject_separator_names_record_exit_2(tmp_path, capsys):
    corpus = tmp_path / "vg.tsv"
    corpus.write_text("im1\t1\t1\t2\t2\ta cat\tt\nim1\t1\t1\t2\t2\ta ## dog\tt\n", encoding="utf-8")
    tagsets = tmp_path / "tagsets.tsv"
    tagsets.write_text("im1\tdog\n", encoding="utf-8")
    err = _data_error(capsys, ["tags", "inject", "--corpus", str(corpus), "--tagsets", str(tagsets),
                               "--output", str(tmp_path / "tagged.tsv")])
    assert err == "error: text contains the reserved separator '##': 'record 1: a ## dog'\n"


def test_synth_build_pairs_separator_names_record_exit_2(tmp_path, capsys):
    tagged = tmp_path / "tagged.tsv"
    tagged.write_text("a cat ## cat\tt\nthe <sep> bat ## dog\tu\n", encoding="utf-8")
    err = _data_error(capsys, ["synth", "build-pairs", "--tagged", str(tagged),
                               "--output", str(tmp_path / "pairs.tsv")])
    assert err == "error: text contains the reserved separator '<sep>': 'record 1: the <sep> bat'\n"
