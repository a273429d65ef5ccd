"""Compact pre-norm encoder-decoder transformer in numpy.

Forward and backward passes are written by hand so analytic gradients can be
checked against finite differences. Matrix products go through numpy/BLAS;
the softmax/cross-entropy head, embedding scatter-add and Adam update are
the numpy kernels in kernels.py. Everything runs in float64 for
reproducibility and gradient-check headroom.

The encoder and the decoder are one pre-norm residual stack that differs
only in its sublayers, each x + dropout(sublayer(layer_norm(x))):
`_SUBLAYERS` lists each side's as (layer norm, kind, parameter prefix), kind
being self attention, cross attention or feed-forward. That one table gives
the parameter layout and drives `_stack`, the one forward loop of training,
validation and `decode_step`, and `_stack_bwd`.

`param_layout` defines the parameters, and `FlatViews` lays them out back to
back in one flat vector with a named view per parameter. `forward_backward`
writes every gradient through such views into a gradient vector of its own
call, and a new model draws its parameters into such views, so clipping and
Adam act on one vector per step. A model built from a plain name -> array
dict (a loaded checkpoint) uses it as is, with no copy.

Training and validation run every row-wise layer (embedding, linear layers,
layer norm, dropout, residual adds, feed-forward, output projection and
cross entropy) on the non-pad positions only, packed as one (N, d) matrix
(`_Rows`); attention alone works in the padded (B, T) layout, into which the
packed queries, keys and values are scattered. A masked key weighs exactly 0
whatever its value, so the loss equals that of a pass over every position,
bit for bit wherever a GEMM gives a row the same bits at any row count
(OpenBLAS does at widths that are multiples of 8, such as the default
shape's). The weight gradients, sums over the rows, may differ in the last
bits, since BLAS blocks a sum over fewer rows differently. Loss traces and
checkpoints stay bitwise reproducible from run to run.

From model_dim SHARD_MIN_DIM (128) up, with BLAS pinned to one thread
(`splits_batches`), a training step splits a batch of two or more sentences
into two contiguous sentence shards: synchronous data parallelism inside the
step. Each shard runs that packed pass over its own columns into a gradient
vector of its own, and the vectors are added in shard order. The second
shard runs on the caller's worker thread (a `Worker`, which `train` opens
when the process may use two CPUs), else after the first, on the same
thread; each shard's arithmetic is the same either way, so the bits do not
depend on the CPU count. The same worker takes half of each elementwise
operation over the flat vectors (`halves`: the gradient add, and in training
the clip scale and Adam) and every other validation batch (`run_pair`).
Against one shard, the loss and the gradients differ by rounding only. Every
other step keeps one shard, the exact pass it ran before sharding existed.
Two shards run every layer's Python code twice, which pays only where the
GEMMs dominate a step and a second CPU is free. On 2 vCPUs, two shards made a
d=32 training 8% slower and a d=64 one 9% faster alone, but a d=64
`pipeline run`, whose two trainings already fill both CPUs, 11% slower; a
d=128 `pipeline run` was 10% faster.

Decoding is incremental: `Transformer.start_decode` encodes a source batch
and computes each decoder layer's cross-attention keys and values once, and
`Transformer.decode_step` feeds one token per row, appends its self-attention
keys and values to a per-layer cache (`DecodeState`) and returns the
next-token logits, so a step costs the same at every position. A step holds
its activations as one (rows, d) matrix: each projection is one GEMM.
"""

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields, replace
from decimal import Decimal

import numpy as np

from .. import forking
from ..errors import ConfigError
from . import kernels

DTYPE = np.float64
NEG = -1e9
LN_EPS = 1e-5
# the smallest model_dim at which a training step splits its batch into two shards
SHARD_MIN_DIM = 128


def splits_batches(config):
    """Whether a training step splits a batch of two or more sentences into
    two shards: from model_dim SHARD_MIN_DIM up, with BLAS pinned."""
    return config.model_dim >= SHARD_MIN_DIM and forking.BLAS_PINNED


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters for the translator and the tag synthesizer.

    Defaults are a desk-scale shrink of a standard base configuration; the
    2000/100 step schedule keeps a 20:1 steps-to-validation ratio. patience
    counts consecutive non-improving validations before an early stop
    (0 disables).
    """

    layers: int = 2
    heads: int = 4
    model_dim: int = 128
    ff_dim: int = 256
    dropout: float = 0.1
    max_steps: int = 2000
    validation_interval: int = 100
    seed: int = 1
    label_smoothing: float = 0.1
    learning_rate: float = 2e-3
    warmup_steps: int = 100
    grad_clip: float = 1.0
    batch_size: int = 32
    max_len: int = 64
    patience: int = 0
    synth_fit_threshold: float = 0.9

    def validate(self):
        floors = {
            "layers": 1, "heads": 1, "ff_dim": 1, "max_steps": 1, "validation_interval": 1,
            "warmup_steps": 1, "batch_size": 1, "max_len": 2, "patience": 0,
            "seed": 0,  # numpy's generators take no negative seed
        }
        for name, least in floors.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.model_dim < 1 or self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim ({self.model_dim}) must be positive and divisible "
                f"by heads ({self.heads})"
            )
        if self.validation_interval > self.max_steps:
            raise ConfigError(
                f"validation_interval ({self.validation_interval}) must not "
                f"exceed max_steps ({self.max_steps})"
            )
        for name in ("dropout", "label_smoothing"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name in ("learning_rate", "grad_clip"):
            if not 0 < getattr(self, name) < math.inf:  # False for NaN
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0.0 < self.synth_fit_threshold <= 1.0:
            raise ConfigError(
                f"synth_fit_threshold must be in (0, 1], got {self.synth_fit_threshold}"
            )
        return self

    def override(self, **overrides):
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return replace(self, **overrides)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data):
        """The config `to_dict` gave, each value checked against the type of its
        field's default, the type the config file parses it as."""
        if not isinstance(data, dict):
            raise ConfigError("config is not a JSON object")
        kinds = {f.name: type(f.default) for f in fields(cls)}
        unknown = set(data) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            # bool is no int here; an int is a valid float
            if type(value) is not kinds[name] and (kinds[name], type(value)) != (float, int):
                raise ConfigError(
                    f"config field {name!r} expects {kinds[name].__name__}, got {value!r}"
                )
        return cls(**data).validate()


def sinusoid_positions(max_len, dim):
    pos = np.arange(max_len, dtype=DTYPE)[:, None]
    idx = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (idx // 2)) / dim)
    return np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))


# (layer norm, kind, parameter prefix) of each sublayer of a layer; see the module docstring
_SUBLAYERS = {
    "enc": (("ln1", "self", "attn"), ("ln2", "ff", "ff")),
    "dec": (("ln1", "self", "self"), ("ln2", "cross", "cross"), ("ln3", "ff", "ff")),
}


def param_count(config, vocab_size):
    """The number of values `param_layout` lays out, plus the position table,
    in closed form: the count of a model too large to build costs no layout."""
    layers, d, f, v = config.layers, config.model_dim, config.ff_dim, vocab_size
    attn, ff, norms = 4 * d * d + 4 * d, 2 * d * f + f + d, 10 * d
    return layers * (3 * attn + 2 * ff + norms) + 4 * d + 2 * v * d + v + config.max_len * d


def check_fits(config, vocab_size):
    """Raise MemoryError, naming the fields that set the size, when the
    parameters and the position table need more than the machine's memory."""
    need = param_count(config, vocab_size) * np.dtype(DTYPE).itemsize
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise MemoryError(
            f"layers {config.layers}, model_dim {config.model_dim}, ff_dim {config.ff_dim}, "
            f"max_len {config.max_len} and vocabulary size {vocab_size} need {_gib(need)} GiB, "
            f"more than the {_gib(memory)} GiB of memory"
        )


def _gib(nbytes):
    # Decimal, since a float cannot hold every int a config value can be
    return f"{Decimal(nbytes) / 2**30:.4g}"


def param_layout(config, vocab_size):
    """Every parameter as (name, shape, init), in initialization order.

    init is "normal" (the embedding), "xavier" (weight matrices), "ones" or
    "zeros". It is the one definition of the model's parameters: the
    initializer draws from it, checkpoints are checked against it, and it
    lays the parameters out in one flat vector (`FlatViews`). A model no
    memory holds fails `check_fits` first, before its layout is built.
    """
    check_fits(config, vocab_size)
    d, f, v = config.model_dim, config.ff_dim, vocab_size
    layout = [("embed", (v, d), "normal")]

    def attn(prefix):
        layout.extend((f"{prefix}.{w}", (d, d), "xavier") for w in ("wq", "wk", "wv", "wo"))
        layout.extend((f"{prefix}.{b}", (d,), "zeros") for b in ("bq", "bk", "bv", "bo"))

    def ln(prefix):
        layout.extend([(f"{prefix}.g", (d,), "ones"), (f"{prefix}.b", (d,), "zeros")])

    def ff(prefix):
        layout.extend([(f"{prefix}.w1", (d, f), "xavier"), (f"{prefix}.b1", (f,), "zeros")])
        layout.extend([(f"{prefix}.w2", (f, d), "xavier"), (f"{prefix}.b2", (d,), "zeros")])

    for side, sublayers in _SUBLAYERS.items():
        for i in range(config.layers):
            for norm, kind, name in sublayers:
                ln(f"{side}{i}.{norm}")
                (ff if kind == "ff" else attn)(f"{side}{i}.{name}")
        ln(f"{side}.ln")
    layout.extend([("out.w", (d, v), "xavier"), ("out.b", (v,), "zeros")])
    return layout


class FlatViews(dict):
    """Name -> view, in the parameter's shape, of one flat float64 `vector`.

    The parameters of a `param_layout` lie back to back in `vector`, in
    layout order, so one operation on `vector` (the Adam update, gradient
    clipping, a snapshot copy) acts on every parameter. Without a vector, an
    uninitialized one is made, for a caller that writes every view.
    """

    def __init__(self, layout, vector=None):
        super().__init__()
        sizes = [math.prod(shape) for _, shape, _ in layout]
        self.vector = np.empty(sum(sizes), dtype=DTYPE) if vector is None else vector
        start = 0
        for (name, shape, _), size in zip(layout, sizes):
            self[name] = self.vector[start : start + size].reshape(shape)
            start += size


class Worker(ThreadPoolExecutor):
    """An executor of one thread whose calls run in a copy of the submitting
    thread's context, which carries the caller's np.errstate."""

    def __init__(self):
        super().__init__(max_workers=1)

    def submit(self, fn, /, *args):
        return super().submit(contextvars.copy_context().run, fn, *args)


def run_pair(pool, first, second):
    """(first(), second()): second on the pool's worker while first runs here,
    or after first without a pool. The worker's call has ended when this
    returns or raises; first's error wins, as it would raise first in order."""
    if pool is None:
        return first(), second()
    later = pool.submit(second)
    try:
        done = first()
    finally:
        wait([later])
    return done, later.result()


def halves(pool, fn, *vectors):
    """fn(*vectors) for flat vectors of one length, elementwise: with a pool,
    fn runs on the first half of each vector here and on the second half on
    the pool's worker; without one, once on the whole vectors. An elementwise
    fn gives the same bits either way."""
    if pool is None:
        fn(*vectors)
        return
    mid = len(vectors[0]) // 2
    run_pair(pool, lambda: fn(*(v[:mid] for v in vectors)), lambda: fn(*(v[mid:] for v in vectors)))


# --- primitive layers: each fwd returns (out, cache), bwd consumes it -------
#
# A backward takes (N, d) rows, writes its parameters' gradients into `grads`
# (a FlatViews whose embed view is zeroed, see _backward) and returns the
# gradient of its input. Every parameter but the shared embedding feeds
# exactly one layer, so each other gradient view is written once, whole,
# with out=.


def _linear_fwd(x, params, prefix, suffix=""):
    """x @ w + b with w, b = params[f"{prefix}.w{suffix}"], params[f"{prefix}.b{suffix}"]."""
    w = params[f"{prefix}.w{suffix}"]
    return x @ w + params[f"{prefix}.b{suffix}"], (x, w, prefix, suffix)


def _linear_bwd(dy, cache, grads):
    x, w, prefix, suffix = cache
    np.matmul(x.T, dy, out=grads[f"{prefix}.w{suffix}"])
    dy.sum(axis=0, out=grads[f"{prefix}.b{suffix}"])
    return dy @ w.T


def _ln_fwd(x, params, prefix):
    """Layer norm with gain params[f"{prefix}.g"] and bias params[f"{prefix}.b"]."""
    g = params[f"{prefix}.g"]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * g + params[f"{prefix}.b"], (xhat, inv, g, prefix)


def _ln_bwd(dy, cache, grads):
    xhat, inv, g, prefix = cache
    (dy * xhat).sum(axis=0, out=grads[f"{prefix}.g"])
    dy.sum(axis=0, out=grads[f"{prefix}.b"])
    dxhat = dy * g
    return inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )


def masked_softmax(scores, bias):
    """Softmax over the last axis after adding an additive mask bias."""
    s = scores + bias
    s = s - s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_bwd(da, a):
    return (da - (da * a).sum(axis=-1, keepdims=True)) * a


def _dropout_fwd(x, p, keep, rows):
    """Dropout with `keep`, a (B, T, d) mask of the padded layout drawn by
    `Transformer._dropout_masks` (None: no dropout), gathered at the kept rows.

    The cache holds the gathered boolean mask and the scale, an eighth of the
    float mask's size; the backward multiplies by the same values.
    """
    if keep is None:
        return x, None
    keep, scale = rows.gather(keep), 1.0 / (1.0 - p)
    return x * (keep * scale), (keep, scale)


def _width(keep):
    """One past the last column of a (B, T) mask that holds a True; at least 1."""
    columns = np.flatnonzero(keep.any(axis=0))
    return int(columns[-1]) + 1 if len(columns) else 1


def _dropout_bwd(dy, cache):
    if cache is None:
        return dy
    keep, scale = cache
    return dy * (keep * scale)


def _split_heads(x, heads):
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _attention(qh, kh, vh, bias):
    """Scaled dot-product attention over split heads: (weights, scale, merged context)."""
    scale = 1.0 / math.sqrt(qh.shape[-1])
    attn = masked_softmax((qh @ kh.transpose(0, 1, 3, 2)) * scale, bias)
    return attn, scale, _merge_heads(attn @ vh)


def _attn_fwd(params, prefix, xq, xkv, bias, heads, q_rows, kv_rows):
    """Attention of queries xq over keys/values xkv, each in the layout of its rows.

    The projections run on the rows; the heads are split, and the scores taken,
    in the padded (B, T, d) layout, where a position that is not kept is zero.
    """
    q, cq = _linear_fwd(xq, params, prefix, "q")
    k, ck = _linear_fwd(xkv, params, prefix, "k")
    v, cv = _linear_fwd(xkv, params, prefix, "v")
    qh = _split_heads(q_rows.scatter(q), heads)
    kh = _split_heads(kv_rows.scatter(k), heads)
    vh = _split_heads(kv_rows.scatter(v), heads)
    attn, scale, ctx = _attention(qh, kh, vh, bias)
    out, co = _linear_fwd(q_rows.gather(ctx), params, prefix, "o")
    return out, (cq, ck, cv, co, qh, kh, vh, attn, scale, q_rows, kv_rows)


def _attn_bwd(dout, cache, grads, heads):
    cq, ck, cv, co, qh, kh, vh, attn, scale, q_rows, kv_rows = cache
    dctx_h = _split_heads(q_rows.scatter(_linear_bwd(dout, co, grads)), heads)
    dattn = dctx_h @ vh.transpose(0, 1, 3, 2)
    dvh = attn.transpose(0, 1, 3, 2) @ dctx_h
    dscores = _softmax_bwd(dattn, attn) * scale
    dqh = dscores @ kh
    dkh = dscores.transpose(0, 1, 3, 2) @ qh
    dxq = _linear_bwd(q_rows.gather(_merge_heads(dqh)), cq, grads)
    dxk = _linear_bwd(kv_rows.gather(_merge_heads(dkh)), ck, grads)
    dxv = _linear_bwd(kv_rows.gather(_merge_heads(dvh)), cv, grads)
    return dxq, dxk + dxv


def _ff_fwd(params, prefix, x):
    h, c1 = _linear_fwd(x, params, prefix, "1")
    r = np.maximum(h, 0.0, out=h)
    y, c2 = _linear_fwd(r, params, prefix, "2")
    return y, (c1, c2, r)


def _ff_bwd(dy, cache, grads):
    c1, c2, r = cache
    dh = _linear_bwd(dy, c2, grads) * (r > 0.0)
    return _linear_bwd(dh, c1, grads)


class _Rows:
    """The positions of a (B, T) batch that the row-wise layers run on: the
    True cells of the (B, T) mask `keep`.

    Activations are (N, d) matrices with one row per kept position, in
    row-major order. Attention needs the padded (B, T, d) layout: `scatter`
    puts the rows into it, with zeros at the positions not kept, and `gather`
    takes them back out.
    """

    def __init__(self, keep):
        self.shape = keep.shape
        self.index = np.flatnonzero(keep)

    def gather(self, x):
        """The kept rows of a (B, T, ...) array."""
        return x.reshape((-1,) + x.shape[2:])[self.index]

    def scatter(self, x):
        """The (B, T, d) array with the rows of x at the kept positions."""
        d = x.shape[-1]
        out = np.zeros(self.shape + (d,), dtype=x.dtype)
        out.reshape(-1, d)[self.index] = x.reshape(-1, d)
        return out

    def positions(self):
        """The position in its sentence of every row."""
        return self.index % self.shape[1]


class DecodeState:
    """Per-layer key/value caches of one incremental decode.

    Made by `Transformer.start_decode` and advanced by
    `Transformer.decode_step`. Every array has one row per hypothesis:
    `cross` holds each decoder layer's cross-attention keys and values of the
    encoder memory; `keys`/`values` hold each layer's self-attention keys and
    values in buffers of max_len positions, of which the first `length` are
    filled; `key_bias` masks the pad tokens among those positions, as
    `Transformer._tgt_bias` does.
    """

    def __init__(self, cross, src_bias, keys, values, key_bias):
        self.cross = cross
        self.src_bias = src_bias
        self.keys = keys
        self.values = values
        self.key_bias = key_bias
        self.length = 0

    def reorder(self, rows):
        """Keep the hypotheses at `rows` (indices into the current rows), in that order.

        Only the first `length` positions of the self-attention buffers are
        copied; keeping every row in place copies nothing.
        """
        if len(rows) == len(self.src_bias) and (rows == np.arange(len(rows))).all():
            return

        def prefix(buffer, axis):
            # a new max_len buffer whose first `length` positions along axis are filled
            filled = (slice(None),) * axis + (slice(0, self.length),)
            out = np.empty((len(rows),) + buffer.shape[1:], dtype=buffer.dtype)
            out[filled] = buffer[(rows,) + filled[1:]]
            return out

        self.cross = [(k[rows], v[rows]) for k, v in self.cross]
        self.keys = [prefix(k, 2) for k in self.keys]
        self.values = [prefix(v, 2) for v in self.values]
        self.src_bias, self.key_bias = self.src_bias[rows], prefix(self.key_bias, 3)


class Transformer:
    """Parameter container plus forward/backward over padded id batches."""

    def __init__(self, config, vocab_size, pad_id=0, params=None, rng=None):
        config.validate()
        self.config = config
        self.vocab_size = vocab_size
        self.pad_id = pad_id
        self.layout = param_layout(config, vocab_size)
        self.pos = sinusoid_positions(config.max_len, config.model_dim)
        if params is not None:
            self.params = params
        else:
            if rng is None:
                rng = np.random.default_rng(config.seed)
            self.params = self._init_params(rng)

    # -- initialization ------------------------------------------------------

    def _init_params(self, rng):
        """Fresh parameters: `FlatViews` of one vector, each view drawn or
        filled in layout order."""
        d = self.config.model_dim
        params = FlatViews(self.layout)
        for name, shape, init in self.layout:
            if init == "normal":
                params[name][...] = rng.normal(0.0, 1.0 / math.sqrt(d), size=shape)
            elif init == "xavier":
                limit = math.sqrt(6.0 / (shape[0] + shape[1]))
                params[name][...] = rng.uniform(-limit, limit, size=shape)
            else:
                params[name].fill(1.0 if init == "ones" else 0.0)
        return params

    # -- masks ---------------------------------------------------------------

    def _src_bias(self, src):
        nonpad = src != self.pad_id
        return np.where(nonpad[:, None, None, :], 0.0, NEG)

    def _tgt_bias(self, tgt_in):
        t = tgt_in.shape[1]
        causal = np.tril(np.ones((t, t), dtype=bool))
        nonpad = tgt_in != self.pad_id
        allowed = causal[None, None, :, :] & nonpad[:, None, None, :]
        return np.where(allowed, 0.0, NEG)

    def _embed_fwd(self, ids, positions):
        """Scaled token embeddings of ids plus the codes of their positions (broadcastable)."""
        scale = math.sqrt(self.config.model_dim)
        return self.params["embed"][ids] * scale + self.pos[positions]

    def _embed_bwd(self, grads, ids, dx, rows):
        scale = math.sqrt(self.config.model_dim)
        kernels.scatter_add_rows(grads["embed"], rows.gather(ids).astype(np.int64), dx * scale)

    # -- encoder / decoder stacks --------------------------------------------
    #
    # Each pass holds its activations as one row per position its `_Rows` keeps.

    def _stack(self, side, x, attend, keeps=(), rows=None, keep_caches=True):
        """The `_SUBLAYERS` loop of side "enc" or "dec" over the embedded rows x:
        (output rows, sublayer caches, final layer norm cache). attend(kind, i,
        prefix, h) runs layer i's attention sublayer on the layer-normed rows h,
        giving (y, cache); keeps holds the dropout masks after the embedding's
        (none: no dropout), gathered at `rows`. Without keep_caches, a pass
        that runs no backward frees each sublayer's cache as it goes, and the
        list of sublayer caches stays empty."""
        p, c = self.params, self.config
        keeps = iter(keeps)
        caches = []
        for i in range(c.layers):
            for norm, kind, name in _SUBLAYERS[side]:
                h, cln = _ln_fwd(x, p, f"{side}{i}.{norm}")
                prefix = f"{side}{i}.{name}"
                y, csub = _ff_fwd(p, prefix, h) if kind == "ff" else attend(kind, i, prefix, h)
                y, cdrop = _dropout_fwd(y, c.dropout, next(keeps, None), rows)
                x = x + y
                if keep_caches:
                    caches.append((kind, cln, csub, cdrop))
        out, cln_final = _ln_fwd(x, p, f"{side}.ln")
        return out, caches, cln_final

    def _stack_fwd(
        self, side, ids, rows, masks, self_bias, memory=None, src_bias=None, src_rows=None,
        keep_caches=True,
    ):
        """`_stack` over the positions of ids that `rows` keeps: (output rows,
        cache). masks holds the side's dropout masks in the order they apply
        (None: no dropout). The decoder's memory holds one row per source
        position that `src_rows` keeps."""
        p, c = self.params, self.config
        keeps = iter(masks or ())
        x = self._embed_fwd(rows.gather(ids), rows.positions())
        x, drop0 = _dropout_fwd(x, c.dropout, next(keeps, None), rows)

        def attend(kind, i, prefix, h):
            if kind == "self":
                return _attn_fwd(p, prefix, h, h, self_bias, c.heads, rows, rows)
            return _attn_fwd(p, prefix, h, memory, src_bias, c.heads, rows, src_rows)

        out, caches, cln_final = self._stack(side, x, attend, keeps, rows, keep_caches)
        return out, (drop0, caches, cln_final)

    def _stack_bwd(self, dout, ids, rows, cache, grads):
        """The backward of `_stack_fwd`: returns the gradient of the decoder's memory,
        None for the encoder."""
        drop0, caches, cln_final = cache
        dx = _ln_bwd(dout, cln_final, grads)
        dmemory = None
        for kind, cln, csub, cdrop in reversed(caches):
            dy = _dropout_bwd(dx, cdrop)
            if kind == "ff":
                dh = _ff_bwd(dy, csub, grads)
            else:
                dh, dkv = _attn_bwd(dy, csub, grads, self.config.heads)
                if kind == "self":
                    dh = dh + dkv
                else:
                    dmemory = dkv if dmemory is None else dmemory + dkv
            dx = dx + _ln_bwd(dh, cln, grads)
        self._embed_bwd(grads, ids, _dropout_bwd(dx, drop0), rows)
        return dmemory

    def _dropout_masks(self, rng, src_shape, tgt_shape):
        """Every dropout keep mask of one training pass, or None without rng or
        dropout: (the encoder's, the decoder's), each a list in the order the
        stack applies them, at the padded (B, S, d) and (B, T, d) shapes.

        They are drawn in that order, encoder first, so a batch takes the same
        draws from rng however `_forward_backward` shards it.
        """
        c = self.config
        if rng is None or c.dropout <= 0.0:
            return None

        def draw(side, shape):
            count = 1 + c.layers * len(_SUBLAYERS[side])
            return [rng.random(shape + (c.model_dim,)) >= c.dropout for _ in range(count)]

        return draw("enc", src_shape), draw("dec", tgt_shape)

    def _forward(self, src, tgt_in, tgt_out, masks, pack=True, keep_caches=True):
        """The pass training and validation share: (logits, gold ids, cache).

        masks are `_dropout_masks` for these shapes, or None. Without
        keep_caches (validation), the cache serves no backward. With pack, the
        row-wise layers run on the non-pad positions only: the source's, and
        the target's where tgt_in or tgt_out is not pad. logits then has one
        row per such target position and gold holds their tgt_out ids.
        Without pack, every position is kept: tests use that pass as the
        reference the packed one must match.
        """
        pad = self.pad_id
        if pack:
            src_rows, rows = _Rows(src != pad), _Rows((tgt_in != pad) | (tgt_out != pad))
        else:
            src_rows = _Rows(np.ones_like(src, dtype=bool))
            rows = _Rows(np.ones_like(tgt_in, dtype=bool))
        enc_masks, dec_masks = masks or (None, None)
        src_bias = self._src_bias(src)
        memory, enc_cache = self._stack_fwd(
            "enc", src, src_rows, enc_masks, src_bias, keep_caches=keep_caches
        )
        dec_out, dec_cache = self._stack_fwd(
            "dec", tgt_in, rows, dec_masks, self._tgt_bias(tgt_in), memory, src_bias, src_rows,
            keep_caches=keep_caches,
        )
        logits, clogits = _linear_fwd(dec_out, self.params, "out")
        gold = rows.gather(tgt_out).astype(np.int64)
        cache = (src, tgt_in, src_rows, rows, enc_cache, dec_cache, clogits)
        return logits, gold, cache

    def _backward(self, dlogits, cache, grads):
        """The parameter gradients, from the gradient of `_forward`'s logits,
        written into the `FlatViews` grads, whatever it held: the embedding's
        view, which both sides add into, is zeroed first, and every other view
        is overwritten whole. Returns grads."""
        src, tgt_in, src_rows, rows, enc_cache, dec_cache, clogits = cache
        grads["embed"].fill(0.0)
        ddec = _linear_bwd(dlogits, clogits, grads)
        dmemory = self._stack_bwd(ddec, tgt_in, rows, dec_cache, grads)
        self._stack_bwd(dmemory, src, src_rows, enc_cache, grads)
        return grads

    # -- public entry points ---------------------------------------------------

    def forward_backward(self, src, tgt_in, tgt_out, rng=None, pool=None):
        """One training step's loss, token count and parameter gradients.

        rng enables dropout (training mode); pass None for a deterministic
        evaluation pass. Loss is the mean label-smoothed cross entropy over
        non-pad target positions. The gradients are a `FlatViews`, one view
        per parameter name, every one written, over a vector that this call
        allocates and no later call touches.

        Where `splits_batches`, a batch of two or more sentences is split
        into two shards, the second of which runs on the pool's worker
        thread when a pool is given (see `_forward_backward`).
        """
        shards = 2 if len(src) >= 2 and splits_batches(self.config) else 1
        return self._forward_backward(src, tgt_in, tgt_out, rng, shards, pool)

    def _forward_backward(self, src, tgt_in, tgt_out, rng, shards, pool=None):
        """`forward_backward` over `shards` contiguous sentence shards of the batch.

        Every dropout mask is drawn first, at the whole batch's shapes, and
        sliced per shard. Each shard drops its trailing all-pad columns and
        runs `_forward` and `_backward` into a gradient vector of its own,
        with its logits' gradient divided by the whole batch's token count;
        the vectors and the loss sums are then added in shard order. shards
        is 1 or 2. Shard 0 runs on the calling thread; shard 1 runs on the
        pool's worker when there is one (numpy releases the GIL in GEMMs,
        ufunc loops and `take`), else after shard 0, and the vectors are
        added half on each thread (`halves`). Either way each shard's
        arithmetic is the same, so the result does not depend on the CPU
        count. One shard is the whole batch as is, since a batch `make_batch`
        pads has no all-pad column. Each shard's gradient vector is
        allocated uninitialized: `_backward` writes every view.
        """
        pad = self.pad_id
        count = int(np.count_nonzero(tgt_out != pad))
        if not count:
            raise ValueError("batch contains no non-pad target tokens")
        masks = self._dropout_masks(rng, src.shape, tgt_in.shape)
        bounds = [len(src) * k // shards for k in range(shards + 1)]

        def shard(k):
            lo, hi = bounds[k], bounds[k + 1]
            s = _width(src[lo:hi] != pad)
            t = _width((tgt_in[lo:hi] != pad) | (tgt_out[lo:hi] != pad))
            if masks is not None:
                enc, dec = masks
                part = [m[lo:hi, :s] for m in enc], [m[lo:hi, :t] for m in dec]
            else:
                part = None
            logits, gold, cache = self._forward(
                src[lo:hi, :s], tgt_in[lo:hi, :t], tgt_out[lo:hi, :t], part
            )
            loss_sum, _, dlogits = kernels.xent_loss_grad(
                logits, gold, pad, self.config.label_smoothing
            )
            del logits  # freed before the backward
            dlogits /= count
            return loss_sum, self._backward(dlogits, cache, FlatViews(self.layout))

        if shards == 1:
            loss_sum, grads = shard(0)
        else:
            (loss_sum, grads), (part_sum, part_grads) = run_pair(
                pool, lambda: shard(0), lambda: shard(1)
            )
            loss_sum += part_sum
            # grads += part_grads
            halves(pool, np.add, grads.vector, part_grads.vector, grads.vector)
        return loss_sum / count, count, grads

    def loss_on(self, src, tgt_in, tgt_out):
        """Evaluation loss (sum, token count) without dropout."""
        logits, gold, _ = self._forward(src, tgt_in, tgt_out, None, keep_caches=False)
        return kernels.xent_loss(logits, gold, self.pad_id, self.config.label_smoothing)

    def encode(self, src):
        """The encoder memory of a padded source batch, (B, S, d) with zero rows
        at pad positions, and its attention bias."""
        rows, src_bias = _Rows(src != self.pad_id), self._src_bias(src)
        memory, _ = self._stack_fwd("enc", src, rows, None, src_bias, keep_caches=False)
        return rows.scatter(memory), src_bias

    def start_decode(self, src):
        """Encode a padded source batch and return an empty `DecodeState`.

        Each decoder layer's cross-attention keys and values of the encoder
        memory are computed here, once for the whole decode.
        """
        p, c = self.params, self.config
        memory, src_bias = self.encode(src)
        cross = [
            tuple(
                _split_heads(_linear_fwd(memory, p, f"dec{i}.cross", k)[0], c.heads) for k in "kv"
            )
            for i in range(c.layers)
        ]
        shape = (src.shape[0], c.heads, c.max_len, c.model_dim // c.heads)
        return DecodeState(
            cross,
            src_bias,
            [np.zeros(shape, dtype=DTYPE) for _ in range(c.layers)],
            [np.zeros(shape, dtype=DTYPE) for _ in range(c.layers)],
            np.full((src.shape[0], 1, 1, c.max_len), NEG),
        )

    def decode_step(self, ids, state):
        """Feed token `ids[r]` to row r at the next position; (B, V) next-token logits.

        Equals the last row of the training decoder run over the whole prefix
        without dropout; a pad token stays a masked key at every later step.
        """
        p, c = self.params, self.config
        t = state.length
        if t >= c.max_len:
            raise ValueError(f"decode_step past max_len={c.max_len}")
        ids = np.asarray(ids, dtype=np.int64)
        state.key_bias[:, 0, 0, t] = np.where(ids != self.pad_id, 0.0, NEG)
        state.length = t + 1
        key_bias = state.key_bias[..., : t + 1]
        rows = len(ids)

        def proj(h, prefix, name):
            # one GEMM over all rows, split as `_split_heads` splits one position
            return _linear_fwd(h, p, prefix, name)[0].reshape(rows, c.heads, 1, -1)

        def attend(kind, i, prefix, h):
            if kind == "self":
                # this position's keys and values join the cache before its query
                keys, values = state.keys[i], state.values[i]
                keys[:, :, t : t + 1] = proj(h, prefix, "k")
                values[:, :, t : t + 1] = proj(h, prefix, "v")
                kv, bias = (keys[:, :, : t + 1], values[:, :, : t + 1]), key_bias
            else:
                kv, bias = state.cross[i], state.src_bias
            ctx = _attention(proj(h, prefix, "q"), *kv, bias)[2].reshape(rows, -1)
            return _linear_fwd(ctx, p, prefix, "o")[0], None

        # the step's activations stay (rows, d) from the embedding to the logits
        out, _, _ = self._stack("dec", self._embed_fwd(ids, t), attend, keep_caches=False)
        return out @ p["out.w"] + p["out.b"]
