"""The sharded training step against the one-shard step.

From `model.SHARD_MIN_DIM` up, with numpy's BLAS pinned to one thread,
`Transformer.forward_backward` splits a batch into two sentence shards, runs
the second on the worker thread of the pool it is given, if any, and adds
their gradients in shard order. Each shard drops its trailing all-pad
columns, so its GEMMs and softmax sums run over other shapes than the whole
batch's: the loss may move in the last bits and the gradients, summed in
another order, a little more. The dropout masks are
drawn for the whole batch before any shard runs, so both steps see the
same ones.
"""

import os
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_model import MICRO, micro_batch, micro_model, relative_gradient_errors
from test_packing import batches
from tagmt import forking
from tagmt.mt import kernels
from tagmt.mt import model as model_module
from tagmt.mt.model import FlatViews, ModelConfig, Transformer, Worker
from tagmt.mt.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    _batches,
    _clip_grads,
    encode_pairs,
    evaluate_loss,
    learning_rate_at,
    make_batch,
    train,
)
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

    def counting(self, src, tgt_in, tgt_out, rng, shards, pool=None):
        shard_counts.append(shards)
        return sharded(self, src, tgt_in, tgt_out, rng, shards, pool)

    monkeypatch.setattr(Transformer, "_forward_backward", counting)
    return shard_counts


# threads: numpy's BLAS threads, 1 where the pin took and None where it did not
@pytest.mark.parametrize(
    "model_dim, threads, shards", [(16, 1, 1), (64, 1, 1), (128, 1, 2), (128, None, 1)]
)
def test_shard_count_rule(monkeypatch, model_dim, threads, shards):
    shard_counts = count_shards(monkeypatch)
    monkeypatch.setattr(forking, "BLAS_PINNED", threads == 1)
    model = micro_model(model_dim=model_dim)
    src, tgt_in, tgt_out = micro_batch()
    model.forward_backward(src, tgt_in, tgt_out)
    model.forward_backward(src[:1], tgt_in[:1], tgt_out[:1])
    assert shard_counts == [shards, 1]


def test_gradient_check_sharded_micro_model(monkeypatch):
    shard_counts = count_shards(monkeypatch)
    monkeypatch.setattr(model_module, "SHARD_MIN_DIM", MICRO.model_dim)
    monkeypatch.setattr(forking, "BLAS_PINNED", True)
    errors = relative_gradient_errors(micro_model(), micro_batch(), n_coords=60)
    assert len(errors) == 60
    assert max(errors) < 1e-3
    assert set(shard_counts) == {2}


def default_shape_world():
    """A default-shape model (d=128) with dropout and a 32-sentence batch."""
    config = ModelConfig(dropout=0.1, seed=2)
    pairs = make_copy_task(32, seed=8, vocab_size=60, min_len=2, max_len=20)
    vocab = vocab_from_pairs(pairs)
    batch = make_batch(encode_pairs(pairs, vocab, config), range(32), vocab)
    return Transformer(config, len(vocab), pad_id=vocab.pad_id), batch


def default_shape_step(pool, monkeypatch, seed=5):
    """One two-shard step of `default_shape_world`, the second shard on the
    pool's worker when a pool is given."""
    model, batch = default_shape_world()
    with monkeypatch.context() as patch:
        patch.setattr(forking, "BLAS_PINNED", True)
        return model.forward_backward(*batch, rng=np.random.default_rng(seed), pool=pool)


def test_two_shards_same_bits_on_one_and_two_cpus(monkeypatch):
    # `train` opens a worker with two CPUs and none with one
    loss_one, count_one, grads_one = default_shape_step(None, monkeypatch)
    with Worker() as pool:
        loss_two, count_two, grads_two = default_shape_step(pool, monkeypatch)
    assert (loss_one, count_one) == (loss_two, count_two)
    assert np.array_equal(grads_one.vector, grads_two.vector)


def test_step_gradients_outlive_the_next_step(monkeypatch):
    """A step's gradient vector is its own: a later step on the same pool
    leaves it as it was."""
    with Worker() as pool:
        first = default_shape_step(pool, monkeypatch)[2].vector
        kept = first.copy()
        second = default_shape_step(pool, monkeypatch, seed=6)[2].vector
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    assert second.tobytes() != kept.tobytes()  # other dropout masks, other gradients


def test_worker_shard_error_reaches_caller(monkeypatch):
    from tagmt.mt import kernels

    xent = kernels.xent_loss_grad

    def fails_off_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("shard failed")
        return xent(*args)

    monkeypatch.setattr(kernels, "xent_loss_grad", fails_off_main_thread)
    with Worker() as pool, pytest.raises(FloatingPointError, match="^shard failed$"):
        default_shape_step(pool, monkeypatch)



def on_worker():
    return threading.current_thread() is not threading.main_thread()


def test_caller_shard_error_waits_for_worker_shard(monkeypatch):
    from tagmt.mt import kernels

    xent, backward = kernels.xent_loss_grad, Transformer._backward
    worker_running, worker_done = threading.Event(), threading.Event()

    def caller_fails(*args):
        if on_worker():
            worker_running.set()
            time.sleep(0.2)  # still running when the calling thread's shard fails
            return xent(*args)
        assert worker_running.wait(timeout=60)
        raise FloatingPointError("caller shard failed")

    def marking_backward(self, dlogits, cache, grads):
        grads = backward(self, dlogits, cache, grads)
        if on_worker():
            worker_done.set()
        return grads

    monkeypatch.setattr(kernels, "xent_loss_grad", caller_fails)
    monkeypatch.setattr(Transformer, "_backward", marking_backward)
    with Worker() as pool:
        with pytest.raises(FloatingPointError, match="^caller shard failed$"):
            default_shape_step(pool, monkeypatch)
        # the error left the step only once the worker's shard was done; the
        # autouse no_leaked_threads fixture checks that its thread is gone too
        assert worker_done.is_set()


def test_both_shards_fail_shard_zero_error_wins(monkeypatch):
    from tagmt.mt import kernels

    worker_failed = threading.Event()

    def both_fail(*args):
        if on_worker():
            worker_failed.set()
            raise FloatingPointError("shard 1 failed")
        assert worker_failed.wait(timeout=60)  # the worker's error comes first
        raise FloatingPointError("shard 0 failed")

    monkeypatch.setattr(kernels, "xent_loss_grad", both_fail)
    with Worker() as pool, pytest.raises(FloatingPointError, match="^shard 0 failed$"):
        default_shape_step(pool, monkeypatch)


def test_step_writes_every_gradient_view(monkeypatch):
    """A step writes every view of the gradient vectors it allocates
    uninitialized: NaN left in any view would reach the result, which must
    equal that of zero-filled vectors, at one shard and at two on a pool."""
    model, batch = default_shape_world()
    made = []

    def step(shards, fill):
        class Filled(FlatViews):
            def __init__(self, layout):
                super().__init__(layout)
                self.vector.fill(fill)
                made.append(self)

        with monkeypatch.context() as patch, Worker() as pool:
            patch.setattr(model_module, "FlatViews", Filled)
            return model._forward_backward(*batch, np.random.default_rng(5), shards, pool)

    for shards in (1, 2):
        made.clear()
        nan_loss, _, nan_grads = step(shards, np.nan)
        zero_loss, _, zero_grads = step(shards, 0.0)
        assert len(made) == 2 * shards
        assert np.isfinite(nan_loss) and nan_loss == zero_loss
        assert np.isfinite(nan_grads.vector).all()
        assert nan_grads.vector.tobytes() == zero_grads.vector.tobytes()


def sharded_world(monkeypatch):
    """A d=128 config with dropout, copy-task pairs (64 training, 6 held out)
    and two CPUs with BLAS pinned, so that a step shards on a worker thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(forking, "BLAS_PINNED", True)
    config = ModelConfig(ff_dim=64, heads=2, max_len=16, max_steps=3,
                         validation_interval=3, dropout=0.1)
    pairs = make_copy_task(70, seed=3, vocab_size=20, min_len=2, max_len=10)
    return config, pairs[:64], pairs[64:]


def test_sharded_train_equals_stateless_steps(monkeypatch):
    """`train`'s worker-side shard, gradient add, clip scale and Adam halves
    against a loop of stateless `forward_backward` calls and whole-vector
    clip and Adam."""
    config, training, validation = sharded_world(monkeypatch)
    ckpt = train(config, training, validation)

    vocab = ckpt.vocab
    encoded = encode_pairs(training, vocab, config)
    rng = np.random.default_rng(config.seed)
    model = Transformer(config, len(vocab), pad_id=vocab.pad_id, rng=rng)
    flat = np.concatenate([model.params[name].ravel() for name, _, _ in model.layout])
    model.params = FlatViews(model.layout, flat)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    trace = []
    batches = _batches(len(encoded), config.batch_size, rng)
    for step, idx in zip(range(1, config.max_steps + 1), batches):
        loss, _, grads = model.forward_backward(*make_batch(encoded, idx, vocab), rng=rng)
        _clip_grads(grads.vector, config.grad_clip)
        lr = learning_rate_at(step, config)
        kernels.adam_update(flat, grads.vector, m, v, lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, step)
        trace.append(float(loss))
    valid = evaluate_loss(model, encode_pairs(validation, vocab, config), vocab, config.batch_size)

    assert ckpt.training_meta["train_loss_trace"] == trace
    assert ckpt.training_meta["val_loss_trace"] == [[3, valid]]
    for name, value in ckpt.params.items():
        assert value.tobytes() == model.params[name].tobytes(), name


def test_evaluate_loss_on_worker_equals_serial(monkeypatch):
    config, training, _ = sharded_world(monkeypatch)
    vocab = vocab_from_pairs(training)
    encoded = encode_pairs(training, vocab, config)
    model = Transformer(config, len(vocab), pad_id=vocab.pad_id)
    batch_size = 24  # 64 pairs: three batches, the last one short and alone
    sums = [model.loss_on(*make_batch(encoded, range(s, min(s + 24, 64)), vocab))
            for s in (0, 24, 48)]
    serial = sum(loss_sum for loss_sum, _ in sums) / sum(n for _, n in sums)
    assert evaluate_loss(model, encoded, vocab, batch_size) == serial
    with Worker() as pool:
        assert evaluate_loss(model, encoded, vocab, batch_size, pool) == serial


def test_evaluate_loss_worker_error_reaches_caller(monkeypatch):
    config, training, _ = sharded_world(monkeypatch)
    vocab = vocab_from_pairs(training)
    encoded = encode_pairs(training, vocab, config)
    model = Transformer(config, len(vocab), pad_id=vocab.pad_id)
    xent = kernels.xent_loss

    def fails_off_main_thread(*args):
        if on_worker():
            raise FloatingPointError("batch 1 failed")
        return xent(*args)

    monkeypatch.setattr(kernels, "xent_loss", fails_off_main_thread)
    with Worker() as pool, pytest.raises(FloatingPointError, match="^batch 1 failed$"):
        evaluate_loss(model, encoded, vocab, 24, pool)


def test_evaluate_loss_both_batches_fail_earlier_error_wins(monkeypatch):
    config, training, _ = sharded_world(monkeypatch)
    vocab = vocab_from_pairs(training)
    encoded = encode_pairs(training, vocab, config)
    model = Transformer(config, len(vocab), pad_id=vocab.pad_id)
    worker_done = threading.Event()

    def both_fail(*args):
        if on_worker():
            time.sleep(0.2)  # still running when the calling thread's batch fails
            worker_done.set()
            raise FloatingPointError("batch 1 failed")
        raise FloatingPointError("batch 0 failed")

    monkeypatch.setattr(kernels, "xent_loss", both_fail)
    with Worker() as pool:
        with pytest.raises(FloatingPointError, match="^batch 0 failed$"):
            evaluate_loss(model, encoded, vocab, 24, pool)
        assert worker_done.is_set()  # raised only once the worker's batch had ended


def test_sharded_train_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(forking, "BLAS_PINNED", True)
    started = []
    thread_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(1) or thread_start(self))
    config = ModelConfig(ff_dim=64, heads=2, max_len=16, max_steps=3,
                         validation_interval=3, dropout=0.1)
    pairs = make_copy_task(70, seed=3, vocab_size=20, min_len=2, max_len=10)
    before = threading.active_count()
    train(config, pairs[:64], pairs[64:])
    assert threading.active_count() == before
    assert len(started) == 1  # one worker for the whole call, not one a step


# A sharded train in the parent, then one in the child `forking.alongside` forks.
FORKED_TRAIN_SCRIPT = """
import os
import threading
from tagmt import forking
from tagmt.mt.model import ModelConfig
from tagmt.mt.train import train
from tagmt.toy import make_copy_task

os.sched_getaffinity = lambda pid: {0, 1}
threads = []
real_start = threading.Thread.start
threading.Thread.start = lambda self: threads.append(1) or real_start(self)
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
    # one worker thread in each of the parent's two trainings; the child
    # inherits the first training's one and starts one more
    assert proc.stdout == "1 2 2\n"
