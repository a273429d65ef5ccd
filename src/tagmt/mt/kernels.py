"""Hot numeric kernels, in numpy.

The training loop spends most of its non-BLAS time in three places: the Adam
parameter update, the embedding-gradient scatter-add, and the fused
softmax/cross-entropy over the output vocabulary. Each is one vectorized
numpy function here; the tests check them against plain-Python loops. Adam
runs once per training step, over the flat vector that holds every
parameter.
"""

import numpy as np

# Recorded in a checkpoint's training_meta["backend"] and in perf/run.py's machine block.
BACKEND = "numpy"
# Read by perf/run.py's machine block.
HAS_NUMBA = False


def adam_update(p, g, m, v, lr, beta1, beta2, eps, t):
    """Adam update, in place, over the flat vector of every parameter (one call a step)."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    mhat = m / (1.0 - beta1**t)
    vhat = v / (1.0 - beta2**t)
    p -= lr * mhat / (np.sqrt(vhat) + eps)


def scatter_add_rows(out, ids, rows):
    """Row scatter-add for embedding gradients: out[ids[i]] += rows[i]."""
    np.add.at(out, ids, rows)


# Fused softmax + label-smoothed cross entropy over (N, V) logits.
#
# The smoothed target puts 1 - s on the gold class and s / (V - 2) on every
# other non-pad class (no mass on pad; smoothing disabled when V <= 2).
# Rows whose gold id equals pad_id contribute nothing and get a zero
# gradient row. Returns (loss_sum, token_count, dlogits) unnormalized.


def xent_loss_grad(logits, gold, pad_id, smoothing):
    n, v = logits.shape
    eff = smoothing if v > 2 else 0.0
    off = eff / (v - 2) if v > 2 else 0.0
    mask = gold != pad_id
    mx = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - mx)
    z = ex.sum(axis=1, keepdims=True)
    logp = logits - (np.log(z) + mx)
    rows = np.arange(n)
    gold_logp = logp[rows, gold]
    nonpad_sum = logp.sum(axis=1) - logp[:, pad_id]
    loss_rows = -((1.0 - eff) * gold_logp + off * (nonpad_sum - gold_logp))
    loss_sum = float(loss_rows[mask].sum())
    count = int(mask.sum())
    grad = ex / z
    grad -= off
    grad[:, pad_id] += off
    grad[rows, gold] -= (1.0 - eff) - off
    grad[~mask] = 0.0
    return loss_sum, count, grad


def xent_loss(logits, gold, pad_id, smoothing):
    """(loss_sum, token_count) of xent_loss_grad, without the gradient."""
    loss_sum, count, _ = xent_loss_grad(logits, gold, pad_id, smoothing)
    return loss_sum, count
