"""Hot numeric kernels, in numpy.

The training loop spends most of its non-BLAS time in three places: the Adam
parameter update, the embedding-gradient scatter-add, and the fused
softmax/cross-entropy over the output vocabulary. Each is one vectorized
numpy function here; the tests check them against plain-Python loops. Adam
runs once per training step over the flat vector that holds every
parameter, or over each half of it on two threads where the step has a
worker (`model.halves`), in cache-sized blocks.
"""

import numpy as np

# Recorded in a checkpoint's training_meta["backend"] and in perf/run.py's machine block.
BACKEND = "numpy"
# Read by perf/run.py's machine block.
HAS_NUMBA = False


# elements per block of adam_update: the 512 KB blocks of its four operands
# and two scratch buffers fit together in a 4 MB L2 cache
ADAM_BLOCK = 65536


def adam_update(p, g, m, v, lr, beta1, beta2, eps, t):
    """Adam update, in place, over a flat vector of parameters, or a part of one.

    The vector is processed in blocks of ADAM_BLOCK elements with two scratch
    buffers. Each element goes through the operations, in the order, of
        m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * (g * g)
        p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
    so the result does not depend on the block size.
    """
    c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t
    a = np.empty(min(ADAM_BLOCK, len(p)), dtype=p.dtype)
    b = np.empty_like(a)
    for start in range(0, len(p), ADAM_BLOCK):
        blk = slice(start, start + ADAM_BLOCK)
        pb, gb, mb, vb = p[blk], g[blk], m[blk], v[blk]
        x, y = a[: len(pb)], b[: len(pb)]
        mb *= beta1
        np.multiply(1.0 - beta1, gb, out=x)
        mb += x
        vb *= beta2
        np.multiply(gb, gb, out=x)
        x *= 1.0 - beta2
        vb += x
        np.divide(mb, c1, out=y)
        y *= lr
        np.divide(vb, c2, out=x)
        np.sqrt(x, out=x)
        x += eps
        y /= x
        pb -= y


def scatter_add_rows(out, ids, rows):
    """Row scatter-add for embedding gradients: out[ids[i]] += rows[i]."""
    np.add.at(out, ids, rows)


# Fused softmax + label-smoothed cross entropy over (N, V) logits.
#
# The smoothed target puts 1 - s on the gold class and s / (V - 2) on every
# other non-pad class (no mass on pad; smoothing disabled when V <= 2).
# Rows whose gold id equals pad_id contribute nothing and get a zero
# gradient row. Returns (loss_sum, token_count, dlogits) unnormalized.


def _xent(logits, gold, pad_id, smoothing):
    """xent_loss_grad's loss, with what its gradient reuses: (loss_sum,
    token_count, ex = exp(logits - row max), z = row sums of ex, non-pad rows,
    eff, off)."""
    n, v = logits.shape
    eff = smoothing if v > 2 else 0.0
    off = eff / (v - 2) if v > 2 else 0.0
    mask = gold != pad_id
    mx = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - mx)
    z = ex.sum(axis=1, keepdims=True)
    logp = logits - (np.log(z) + mx)
    gold_logp = logp[np.arange(n), gold]
    nonpad_sum = logp.sum(axis=1) - logp[:, pad_id]
    loss_rows = -((1.0 - eff) * gold_logp + off * (nonpad_sum - gold_logp))
    return float(loss_rows[mask].sum()), int(mask.sum()), ex, z, mask, eff, off


def xent_loss_grad(logits, gold, pad_id, smoothing):
    loss_sum, count, ex, z, mask, eff, off = _xent(logits, gold, pad_id, smoothing)
    grad = ex / z
    grad -= off
    grad[:, pad_id] += off
    grad[np.arange(len(gold)), gold] -= (1.0 - eff) - off
    grad[~mask] = 0.0
    return loss_sum, count, grad


def xent_loss(logits, gold, pad_id, smoothing):
    """(loss_sum, token_count) of xent_loss_grad, without computing the gradient."""
    return _xent(logits, gold, pad_id, smoothing)[:2]
