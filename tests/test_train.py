import json
import re

import numpy as np
import pytest

from conftest import TINY_CONFIG
from tagmt.errors import ArchitectureMismatch, ConfigError, Divergence, EmptyCorpus
from tagmt.evaluation import bleu_from_texts
from tagmt.mt.decode import translate_corpus
from tagmt.mt.train import (
    Checkpoint,
    _clip_grads,
    encode_pairs,
    fine_tune,
    learning_rate_at,
    train,
)
from tagmt.mt.vocab import vocab_from_pairs
from tagmt.toy import make_copy_task


def small_config(**overrides):
    return TINY_CONFIG.override(**overrides)


def test_same_seed_bitwise_identical_traces():
    pairs = make_copy_task(120, seed=4)
    config = small_config(max_steps=40, validation_interval=10)
    a = train(config, pairs[:100], pairs[100:])
    b = train(config, pairs[:100], pairs[100:])
    assert a.training_meta["train_loss_trace"] == b.training_meta["train_loss_trace"]
    assert a.training_meta["val_loss_trace"] == b.training_meta["val_loss_trace"]
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


# Trains a copy task and prints its loss traces and a digest of its parameters.
DETERMINISM_SCRIPT = """
import hashlib, json
from tagmt.mt.model import ModelConfig
from tagmt.mt.train import train
from tagmt.toy import make_copy_task

pairs = make_copy_task(300, seed=6, vocab_size=60, min_len=2, max_len=14)
config = ModelConfig(
    model_dim=64, ff_dim=128, heads=4, max_len=16, max_steps=24, validation_interval=8, seed=3
)
ckpt = train(config, pairs[:268], pairs[268:])
digest = hashlib.sha256()
for name in sorted(ckpt.params):
    digest.update(ckpt.params[name].tobytes())
meta = ckpt.training_meta
print(json.dumps([meta["train_loss_trace"], meta["val_loss_trace"], digest.hexdigest()]))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_training_bitwise_reproducible_at_blas_threads(threads):
    # Packing the batch gives the weight-gradient GEMMs other row counts from
    # step to step, and OpenBLAS splits those sums by its thread count; a run
    # must still repeat itself bit for bit at one thread count.
    import os
    import subprocess
    import sys

    import tagmt

    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    src = os.path.dirname(os.path.dirname(tagmt.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run():
        proc = subprocess.run(
            [sys.executable, "-c", DETERMINISM_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        return proc.stdout

    first, second = run(), run()
    train_trace, val_trace, _ = json.loads(first)
    assert len(train_trace) == 24 and len(val_trace) == 3
    assert first == second


def test_clip_grads_scales_above_clip_and_keeps_below():
    grad = 3.0 * np.random.default_rng(0).normal(size=1000)
    norm = float(np.linalg.norm(grad))
    assert norm > 10.0

    above = grad.copy()
    assert _clip_grads(above, 1.0) == pytest.approx(norm, rel=1e-12)
    assert abs(np.linalg.norm(above) - 1.0) <= 1e-12

    below = grad.copy()
    assert _clip_grads(below, 2 * norm) == pytest.approx(norm, rel=1e-12)
    assert below.tobytes() == grad.tobytes()


def test_different_seed_changes_trace():
    pairs = make_copy_task(80, seed=4)
    a = train(small_config(max_steps=10, validation_interval=10), pairs)
    b = train(small_config(max_steps=10, validation_interval=10, seed=99), pairs)
    assert a.training_meta["train_loss_trace"] != b.training_meta["train_loss_trace"]


def test_zero_steps_rejected():
    with pytest.raises(ConfigError):
        train(small_config(max_steps=0), [("a", "b")])


def test_empty_training_pairs_rejected():
    with pytest.raises(EmptyCorpus):
        train(small_config(), [])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    pairs = make_copy_task(60, seed=8)
    config = small_config(
        max_steps=30, validation_interval=30, learning_rate=1e300, grad_clip=1e308, warmup_steps=1
    )
    with pytest.raises(Divergence):
        train(config, pairs)


def test_best_validation_checkpoint_selected():
    pairs = make_copy_task(150, seed=10)
    ckpt = train(small_config(max_steps=60, validation_interval=20), pairs[:120], pairs[120:])
    meta = ckpt.training_meta
    assert meta["steps"] == 60
    assert meta["best_val_loss"] == min(v for _, v in meta["val_loss_trace"])
    assert meta["best_step"] in [s for s, _ in meta["val_loss_trace"]]


def test_training_loss_decreases():
    pairs = make_copy_task(200, seed=12)
    ckpt = train(small_config(max_steps=120), pairs)
    trace = ckpt.training_meta["train_loss_trace"]
    assert np.mean(trace[-10:]) < np.mean(trace[:10]) * 0.7


def test_encode_pairs_length_guard():
    vocab = vocab_from_pairs([("a", "b")])
    config = small_config(max_len=4)
    with pytest.raises(ConfigError):
        encode_pairs([("a a a a a a", "b")], vocab, config)


def test_learning_rate_schedule_shape():
    config = small_config(learning_rate=1e-3, warmup_steps=10)
    rates = [learning_rate_at(step, config) for step in range(1, 40)]
    assert abs(rates[9] - 1e-3) < 1e-12  # peak at warmup
    assert all(a <= b + 1e-15 for a, b in zip(rates[:9], rates[1:10]))
    assert all(a >= b - 1e-15 for a, b in zip(rates[9:], rates[10:]))


# -- fine-tuning ---------------------------------------------------------------


def test_finetune_zero_steps_identical_params(copy_checkpoint):
    out = fine_tune(copy_checkpoint, {"max_steps": 0}, [("t01 t02", "t01 t02")])
    for name in copy_checkpoint.params:
        assert np.array_equal(out.params[name], copy_checkpoint.params[name])
    assert out.training_meta["steps"] == 0


def test_finetune_rejects_architecture_change(copy_checkpoint):
    with pytest.raises(ArchitectureMismatch):
        fine_tune(copy_checkpoint, {"layers": 4}, [("a", "b")])
    with pytest.raises(ArchitectureMismatch):
        fine_tune(copy_checkpoint, {"model_dim": 64}, [("a", "b")])


def test_finetune_rejects_empty_pairs(copy_checkpoint):
    with pytest.raises(EmptyCorpus):
        fine_tune(copy_checkpoint, {}, [])


def test_finetune_transfer_beats_scratch(copy_checkpoint):
    # reversal task over the same token vocabulary; the pretrained embeddings
    # and copy-ish attention give the fine-tuned model a head start at a
    # small step budget
    pairs = [(src, " ".join(reversed(src.split()))) for src, _ in make_copy_task(260, seed=31)]
    train_pairs, test_pairs = pairs[:220], pairs[220:]
    budget = {"max_steps": 60, "validation_interval": 20}
    tuned = fine_tune(copy_checkpoint, budget, train_pairs, train_pairs[-20:])
    scratch = train(
        copy_checkpoint.config.override(**budget), train_pairs, train_pairs[-20:]
    )
    sources = [s for s, _ in test_pairs]
    refs = [t for _, t in test_pairs]
    tuned_bleu = bleu_from_texts(translate_corpus(tuned, sources), refs, smooth="add1")
    scratch_bleu = bleu_from_texts(translate_corpus(scratch, sources), refs, smooth="add1")
    assert tuned_bleu.score > scratch_bleu.score


# -- checkpoint io -------------------------------------------------------------


def test_checkpoint_save_load_round_trip(tmp_path, copy_checkpoint):
    path = tmp_path / "model.ckpt"
    copy_checkpoint.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.config == copy_checkpoint.config
    assert loaded.vocab.tokens == copy_checkpoint.vocab.tokens
    assert set(loaded.params) == set(copy_checkpoint.params)
    for name in loaded.params:
        assert np.array_equal(loaded.params[name], copy_checkpoint.params[name])
    assert loaded.training_meta["steps"] == copy_checkpoint.training_meta["steps"]


def test_reloaded_checkpoint_decodes_identically(tmp_path, copy_checkpoint):
    path = tmp_path / "model.ckpt"
    copy_checkpoint.save(path)
    loaded = Checkpoint.load(path)
    for text in ("t01 t05 t09", "t02", "t29 t28 t27 t26"):
        assert translate_corpus(loaded, [text]) == translate_corpus(copy_checkpoint, [text])


def test_checkpoint_version_guard(tmp_path):
    import json

    path = tmp_path / "bad.ckpt"
    with open(path, "wb") as out:
        np.savez(out, meta=json.dumps({"format_version": 99}))
    with pytest.raises(ConfigError):
        Checkpoint.load(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda params: params.pop("dec0.ff.b2"), "'dec0.ff.b2' is missing"),
        (lambda params: params.update(extra=np.zeros(3)), "'extra' is not a parameter"),
        (
            lambda params: params.update({"enc0.attn.wq": np.zeros((16, 8))}),
            r"'enc0.attn.wq' has shape \(16, 8\), expected \(16, 16\)",
        ),
    ],
    ids=["missing", "extra", "shape"],
)
def test_checkpoint_layout_mismatch_rejected(tmp_path, mutate, message):
    from test_decode import random_checkpoint

    checkpoint = random_checkpoint(0)
    mutate(checkpoint.params)
    path = tmp_path / "mismatch.ckpt"
    checkpoint.save(path)
    with pytest.raises(ConfigError, match=rf"^checkpoint {re.escape(str(path))}: parameter {message}"):
        Checkpoint.load(path)


def test_checkpoint_meta_records_backend(copy_checkpoint):
    from tagmt.mt.kernels import BACKEND

    assert copy_checkpoint.training_meta["backend"] == BACKEND


def test_patience_stops_early():
    # a vanishing learning rate freezes the model, so every validation after
    # the first ties the best loss and the patience counter runs out
    pairs = make_copy_task(80, seed=14)
    config = small_config(
        max_steps=200, validation_interval=10, patience=2, learning_rate=1e-30
    )
    ckpt = train(config, pairs[:60], pairs[60:])
    meta = ckpt.training_meta
    assert meta["stopped_early"] is True
    assert meta["steps"] == 30  # best at step 10, stale at 20 and 30
    assert meta["best_step"] == 10


def test_patience_zero_disables_early_stop():
    pairs = make_copy_task(80, seed=14)
    config = small_config(max_steps=40, validation_interval=10, learning_rate=1e-30)
    ckpt = train(config, pairs[:60], pairs[60:])
    assert ckpt.training_meta["stopped_early"] is False
    assert ckpt.training_meta["steps"] == 40
