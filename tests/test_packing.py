"""The packed training pass against the pass that keeps every position.

`Transformer.forward_backward` runs its row-wise layers on the non-pad
positions only. Run over every position instead, the same private passes
must give the same loss, and gradients equal to the last bits: a weight
gradient's GEMM sums over fewer rows when packed, which BLAS may block
differently.

The loss is bitwise equal where a GEMM gives each row the same bits whatever
the number of rows. OpenBLAS's kernels do so for outputs whose width is a
multiple of 8, as every width is at the default shape (d=128, ff=256 and
the benchmark's V=1000), but not for every other width: at V=11 a row's last
bit can move with the row count. So the loss is compared bit for bit when
the vocabulary is a multiple of 8 (d and ff always are here), and to 1e-14
otherwise.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_model import MICRO
from tagmt.mt import kernels
from tagmt.mt.model import Transformer

BOS, EOS = 1, 2


def every_position_forward_backward(model, src, tgt_in, tgt_out, rng):
    logits, gold, cache = model._forward(src, tgt_in, tgt_out, rng, pack=False)
    loss_sum, count, dlogits = kernels.xent_loss_grad(
        logits, gold, model.pad_id, model.config.label_smoothing
    )
    dlogits /= count
    return loss_sum / count, count, model._backward(dlogits, cache)


@st.composite
def batches(draw):
    """(src, tgt_in, tgt_out) of random per-row lengths: row 0 has no pad and
    row 1 one real token on each side (its source is eos, its target empty).
    Later rows may hold pad ids inside a sentence, as a `<pad>` token in a line
    encodes: a target pad is then a masked key whose position still has a loss."""
    vocab = draw(st.one_of(st.sampled_from([8, 16, 24]), st.integers(5, 23)))
    rows = draw(st.integers(2, 5))
    src_lens = [0, 1] + draw(st.lists(st.integers(1, 8), min_size=rows - 2, max_size=rows - 2))
    tgt_lens = [0, 0] + draw(st.lists(st.integers(0, 7), min_size=rows - 2, max_size=rows - 2))
    src_lens[0], tgt_lens[0] = max(src_lens), max(tgt_lens)
    src = np.zeros((rows, max(src_lens)), dtype=np.int64)
    tgt_in = np.zeros((rows, max(tgt_lens) + 1), dtype=np.int64)
    tgt_out = np.zeros_like(tgt_in)
    for r, (s, t) in enumerate(zip(src_lens, tgt_lens)):
        token = st.integers(3 if r < 2 else 0, vocab - 1)
        src[r, :s] = draw(st.lists(token, min_size=s - 1, max_size=s - 1)) + [EOS]
        words = draw(st.lists(token, min_size=t, max_size=t))
        tgt_in[r, : t + 1] = [BOS] + words
        tgt_out[r, : t + 1] = words + [EOS]
    return vocab, src, tgt_in, tgt_out


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    batch=batches(),
    model_dim=st.sampled_from([16, 32]),
    dropout=st.sampled_from([0.0, 0.2]),
    seed=st.integers(0, 2**16),
)
def test_packed_forward_backward_equals_every_position_pass(batch, model_dim, dropout, seed):
    vocab, src, tgt_in, tgt_out = batch
    config = replace(MICRO, model_dim=model_dim, dropout=dropout, max_len=16)
    model = Transformer(config, vocab, rng=np.random.default_rng(seed))
    for rng_seed in (None, seed + 1):

        def rng():
            return None if rng_seed is None else np.random.default_rng(rng_seed)

        loss, count, grads = model.forward_backward(src, tgt_in, tgt_out, rng=rng())
        every = every_position_forward_backward(model, src, tgt_in, tgt_out, rng())
        if vocab % 8 == 0:
            assert loss == every[0]
        else:
            assert loss == pytest.approx(every[0], rel=1e-14, abs=0)
        assert count == every[1] == np.count_nonzero(tgt_out)
        assert set(grads) == set(every[2])
        # The key biases' gradients are zero but for rounding (a shift shared
        # by every key leaves the softmax as it is), so an element is also
        # close when it is within 1e-12 of the largest gradient.
        atol = 1e-12 * np.abs(every[2].vector).max()
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, every[2][name], rtol=1e-12, atol=atol, err_msg=name)
