import numpy as np
import pytest

from tagmt.mt import kernels


def test_backend_is_valid():
    assert kernels.BACKEND == "numpy"


def _random_logits(rng, n=64, v=37):
    logits = rng.normal(size=(n, v)) * 3.0
    gold = rng.integers(0, v, size=n)
    gold[rng.random(n) < 0.2] = 0  # sprinkle pad targets
    return np.ascontiguousarray(logits), gold.astype(np.int64)


def reference_xent(logits, gold, pad_id, smoothing):
    """Direct per-row formula, no clever vectorization."""
    n, v = logits.shape
    eff = smoothing if v > 2 else 0.0
    off = eff / (v - 2) if v > 2 else 0.0
    loss = 0.0
    count = 0
    grad = np.zeros_like(logits)
    for i in range(n):
        if gold[i] == pad_id:
            continue
        count += 1
        z = np.exp(logits[i] - logits[i].max())
        p = z / z.sum()
        logp = np.log(p)
        q = np.full(v, off)
        q[pad_id] = 0.0
        q[gold[i]] = 1.0 - eff
        loss += -(q * logp).sum()
        grad[i] = p - q
    return loss, count, grad


def reference_adam(p, g, m, v, lr, beta1, beta2, eps, t):
    """Per-element Adam update, in place."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for i in range(p.shape[0]):
        m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
        v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i]
        p[i] -= lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)


def six_temporary_adam(p, g, m, v, lr, beta1, beta2, eps, t):
    """The whole-vector form of adam_update, six temporaries of its size, in place."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    mhat = m / (1.0 - beta1**t)
    vhat = v / (1.0 - beta2**t)
    p -= lr * mhat / (np.sqrt(vhat) + eps)


def reference_scatter_add(out, ids, rows):
    """Element-by-element out[ids[i]] += rows[i], in place."""
    for i in range(ids.shape[0]):
        for j in range(rows.shape[1]):
            out[ids[i], j] += rows[i, j]


@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_xent_numpy_matches_reference(smoothing):
    rng = np.random.default_rng(0)
    logits, gold = _random_logits(rng)
    got = kernels.xent_loss_grad(logits, gold, 0, smoothing)
    want = reference_xent(logits, gold, 0, smoothing)
    assert got[1] == want[1]
    assert np.isclose(got[0], want[0], rtol=1e-12)
    assert np.allclose(got[2], want[2], atol=1e-12)


@pytest.mark.parametrize("v", [1, 2, 3, 37])
@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_xent_loss_equals_loss_of_xent_loss_grad(v, smoothing):
    logits, gold = _random_logits(np.random.default_rng(v), v=v)
    assert (gold == 0).any()
    assert kernels.xent_loss(logits, gold, 0, smoothing) == kernels.xent_loss_grad(
        logits, gold, 0, smoothing
    )[:2]


def test_xent_tiny_vocab_disables_smoothing():
    logits = np.array([[0.3, -0.1]])
    gold = np.array([1], dtype=np.int64)
    loss, count, grad = kernels.xent_loss_grad(logits, gold, 0, 0.5)
    p = np.exp(logits[0] - logits[0].max())
    p /= p.sum()
    assert count == 1
    assert np.isclose(loss, -np.log(p[1]))
    assert np.allclose(grad[0], p - np.array([0.0, 1.0]))


def test_xent_all_pad_rows():
    logits = np.zeros((3, 5))
    gold = np.zeros(3, dtype=np.int64)
    loss, count, grad = kernels.xent_loss_grad(logits, gold, 0, 0.1)
    assert (loss, count) == (0.0, 0)
    assert not grad.any()


def test_scatter_add_matches_reference():
    rng = np.random.default_rng(2)
    for _ in range(5):
        got = rng.normal(size=(11, 7))
        want = got.copy()
        ids = rng.integers(0, 11, size=40).astype(np.int64)
        rows = rng.normal(size=(40, 7))
        kernels.scatter_add_rows(got, ids, rows)
        reference_scatter_add(want, ids, rows)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_scatter_add_accumulates_duplicates():
    out = np.zeros((3, 2))
    ids = np.array([1, 1, 2], dtype=np.int64)
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    kernels.scatter_add_rows(out, ids, rows)
    assert np.allclose(out, [[0, 0], [4, 6], [5, 6]])


def test_adam_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p1 = rng.normal(size=200)
        p2 = p1.copy()
        m1, v1 = np.zeros(200), np.zeros(200)
        m2, v2 = np.zeros(200), np.zeros(200)
        for t in range(1, 6):
            g = rng.normal(size=200)
            kernels.adam_update(p1, g, m1, v1, 1e-3, 0.9, 0.98, 1e-9, t)
            reference_adam(p2, g, m2, v2, 1e-3, 0.9, 0.98, 1e-9, t)
        assert np.allclose(p1, p2, rtol=0, atol=1e-12)
        assert np.allclose(m1, m2, rtol=0, atol=1e-12)
        assert np.allclose(v1, v2, rtol=0, atol=1e-12)


def test_adam_blocks_equal_whole_vector_form():
    n = 2 * kernels.ADAM_BLOCK + 1234  # a partial last block
    rng = np.random.default_rng(4)
    p1, m1, v1 = rng.normal(size=n), np.zeros(n), np.zeros(n)
    p2, m2, v2 = p1.copy(), m1.copy(), v1.copy()
    for t in range(1, 6):
        g = rng.normal(size=n)
        kernels.adam_update(p1, g, m1, v1, 2e-3, 0.9, 0.98, 1e-9, t)
        six_temporary_adam(p2, g, m2, v2, 2e-3, 0.9, 0.98, 1e-9, t)
        assert (p1 == p2).all() and (m1 == m2).all() and (v1 == v2).all()


def test_adam_moves_against_gradient():
    p = np.zeros(4)
    g = np.array([1.0, -1.0, 2.0, 0.0])
    m, v = np.zeros(4), np.zeros(4)
    kernels.adam_update(p, g, m, v, 1e-2, 0.9, 0.98, 1e-9, 1)
    assert p[0] < 0 and p[1] > 0 and p[2] < 0 and p[3] == 0
