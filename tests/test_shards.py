"""The sharded training step against the one-shard step.

From `model.SHARD_MIN_DIM` up, when numpy's BLAS runs one thread,
`Transformer.forward_backward` splits a batch into two sentence shards, runs
them on two threads where two CPUs are available and adds their gradients in
shard order. Each shard drops its trailing all-pad columns, so its GEMMs and
softmax sums run over other shapes than the whole batch's: the loss may move in the last bits and the
gradients, summed in another order, a little more. The dropout masks are
drawn for the whole batch before any shard runs, so both steps see the
same ones.
"""

import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_model import MICRO, micro_batch, micro_model, relative_gradient_errors
from test_packing import batches
from tagmt.mt import model as model_module
from tagmt.mt.model import ModelConfig, Transformer
from tagmt.mt.train import encode_pairs, make_batch, train
from tagmt.mt.vocab import vocab_from_pairs
from tagmt.toy import make_copy_task


@st.composite
def split_batches(draw):
    """`batches` whose second shard under two shards ends in a column that is pad
    on every side; the first shard holds row 0, which is longest on each side."""
    vocab, src, tgt_in, tgt_out = draw(batches())
    for ids in (src, tgt_in, tgt_out):
        ids[len(ids) // 2 :, -1] = 0
    return vocab, src, tgt_in, tgt_out


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    batch=split_batches(),
    model_dim=st.sampled_from([16, 32]),
    dropout=st.sampled_from([0.0, 0.2]),
    seed=st.integers(0, 2**16),
)
def test_two_shards_equal_one_shard(batch, model_dim, dropout, seed):
    vocab, src, tgt_in, tgt_out = batch
    config = replace(MICRO, model_dim=model_dim, dropout=dropout, max_len=16)
    model = Transformer(config, vocab, rng=np.random.default_rng(seed))
    for rng_seed in (None, seed + 1):

        def step(shards):
            rng = None if rng_seed is None else np.random.default_rng(rng_seed)
            return model._forward_backward(src, tgt_in, tgt_out, rng, shards)

        loss, count, grads = step(2)
        one_loss, one_count, one_grads = step(1)
        assert loss == pytest.approx(one_loss, rel=1e-14, abs=0)
        assert count == one_count == np.count_nonzero(tgt_out)
        assert set(grads) == set(one_grads)
        atol = 1e-12 * np.abs(one_grads.vector).max()
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, one_grads[name], rtol=1e-12, atol=atol, err_msg=name)


def count_shards(monkeypatch):
    """The list to which every `_forward_backward` call appends its shard count."""
    shard_counts = []
    sharded = Transformer._forward_backward

    def counting(self, src, tgt_in, tgt_out, rng, shards):
        shard_counts.append(shards)
        return sharded(self, src, tgt_in, tgt_out, rng, shards)

    monkeypatch.setattr(Transformer, "_forward_backward", counting)
    return shard_counts


@pytest.mark.parametrize(
    "model_dim, blas_threads, shards",
    [(16, 1, 1), (64, 1, 1), (128, 1, 2), (128, 2, 1), (128, None, 1)],
)
def test_shard_count_rule(monkeypatch, model_dim, blas_threads, shards):
    shard_counts = count_shards(monkeypatch)
    monkeypatch.setattr(model_module, "_blas_threads", lambda: blas_threads)
    model = micro_model(model_dim=model_dim)
    src, tgt_in, tgt_out = micro_batch()
    model.forward_backward(src, tgt_in, tgt_out)
    model.forward_backward(src[:1], tgt_in[:1], tgt_out[:1])
    assert shard_counts == [shards, 1]


def test_gradient_check_sharded_micro_model(monkeypatch):
    shard_counts = count_shards(monkeypatch)
    monkeypatch.setattr(model_module, "SHARD_MIN_DIM", MICRO.model_dim)
    monkeypatch.setattr(model_module, "_blas_threads", lambda: 1)
    errors = relative_gradient_errors(micro_model(), micro_batch(), n_coords=60)
    assert len(errors) == 60
    assert max(errors) < 1e-3
    assert set(shard_counts) == {2}


def default_shape_step(cpus, monkeypatch):
    """One two-shard step of a default-shape model (d=128) with dropout, as if
    `cpus` CPUs and one BLAS thread were there."""
    config = ModelConfig(dropout=0.1, seed=2)
    pairs = make_copy_task(32, seed=8, vocab_size=60, min_len=2, max_len=20)
    vocab = vocab_from_pairs(pairs)
    batch = make_batch(encode_pairs(pairs, vocab, config), range(32), vocab)
    model = Transformer(config, len(vocab), pad_id=vocab.pad_id)
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(model_module, "_blas_threads", lambda: 1)
        return model.forward_backward(*batch, rng=np.random.default_rng(5))


def test_two_shards_same_bits_on_one_and_two_cpus(monkeypatch):
    loss_one, count_one, grads_one = default_shape_step(1, monkeypatch)
    loss_two, count_two, grads_two = default_shape_step(2, monkeypatch)
    assert (loss_one, count_one) == (loss_two, count_two)
    assert np.array_equal(grads_one.vector, grads_two.vector)


def test_worker_shard_error_reaches_caller(monkeypatch):
    from tagmt.mt import kernels

    xent = kernels.xent_loss_grad

    def fails_off_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("shard failed")
        return xent(*args)

    monkeypatch.setattr(kernels, "xent_loss_grad", fails_off_main_thread)
    with pytest.raises(FloatingPointError, match="^shard failed$"):
        default_shape_step(2, monkeypatch)


def test_sharded_train_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(model_module, "_blas_threads", lambda: 1)
    started = []
    thread_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(1) or thread_start(self))
    config = ModelConfig(ff_dim=64, heads=2, max_len=16, max_steps=3,
                         validation_interval=3, dropout=0.1)
    pairs = make_copy_task(70, seed=3, vocab_size=20, min_len=2, max_len=10)
    before = threading.active_count()
    train(config, pairs[:64], pairs[64:])
    assert threading.active_count() == before
    assert len(started) == 3


# A sharded train in the parent, then one in the child `forking.alongside` forks.
FORKED_TRAIN_SCRIPT = """
import os
import threading
from tagmt import forking
from tagmt.mt import model
from tagmt.mt.model import ModelConfig
from tagmt.mt.train import train
from tagmt.toy import make_copy_task

os.sched_getaffinity = lambda pid: {0, 1}
threads = []
real_start = threading.Thread.start
threading.Thread.start = lambda self: threads.append(1) or real_start(self)
forking._blas_threads = model._blas_threads = lambda: 1
forks = []
real_fork = os.fork
os.fork = lambda: forks.append(1) or real_fork()
config = ModelConfig(ff_dim=64, heads=2, max_len=16, max_steps=4,
                     validation_interval=4, dropout=0.1)
pairs = make_copy_task(70, seed=3, vocab_size=20, min_len=2, max_len=10)


def child():
    train(config, pairs[:64], pairs[64:]).save(os.environ["CKPT"])
    with open(os.environ["CKPT"] + ".threads", "w") as out:
        out.write(str(len(threads)))


train(config, pairs[:64], pairs[64:])
with forking.alongside(child):
    train(config, pairs[:64], pairs[64:])
with open(os.environ["CKPT"] + ".threads") as child_threads:
    print(len(forks), len(threads), child_threads.read())
"""


def test_sharded_train_in_forked_child_completes(tmp_path):
    import tagmt

    src = os.path.dirname(os.path.dirname(tagmt.__file__))
    env = dict(os.environ, CKPT=str(tmp_path / "child.ckpt"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FORKED_TRAIN_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # one shard thread a step in each of the parent's two trainings; the child
    # inherits the first training's 4 and starts 4 more
    assert proc.stdout == "1 8 8\n"
