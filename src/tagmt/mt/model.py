"""Compact pre-norm encoder-decoder transformer in numpy.

Forward and backward passes are written by hand so analytic gradients can be
checked against finite differences. Matrix products go through numpy/BLAS;
the softmax/cross-entropy head, embedding scatter-add and Adam update are
the numpy kernels in kernels.py. Everything runs in float64 for
reproducibility and gradient-check headroom.

`param_layout` defines the parameters, and `FlatViews` lays them out back to
back in one flat vector with a named view per parameter. `forward_backward`
writes every gradient through such views into one zeroed vector, and
training holds the parameters the same way, so clipping and Adam act on one
vector per step. A model built from a plain name -> array dict (a loaded
checkpoint) uses it as is, with no copy.

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

Decoding is incremental: `Transformer.start_decode` encodes a source batch
and computes each decoder layer's cross-attention keys and values once, and
`Transformer.decode_step` feeds one token per row, appends its self-attention
keys and values to a per-layer cache (`DecodeState`) and returns the
next-token logits, so a step costs the same at every position. A step holds
its activations as one (rows, d) matrix: each projection is one GEMM.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from ..errors import ConfigError
from . import kernels

DTYPE = np.float64
NEG = -1e9
LN_EPS = 1e-5


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

    def validate(self, min_steps=1):
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.model_dim < 1 or self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim ({self.model_dim}) must be positive and divisible "
                f"by heads ({self.heads})"
            )
        if self.ff_dim < 1:
            raise ConfigError(f"ff_dim must be >= 1, got {self.ff_dim}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(
                f"label_smoothing must be in [0, 1), got {self.label_smoothing}"
            )
        if self.max_steps < min_steps:
            raise ConfigError(
                f"max_steps must be >= {min_steps}, got {self.max_steps}"
            )
        if self.validation_interval < 1:
            raise ConfigError(
                f"validation_interval must be >= 1, got {self.validation_interval}"
            )
        if self.max_steps >= 1 and self.validation_interval > self.max_steps:
            raise ConfigError(
                f"validation_interval ({self.validation_interval}) must not "
                f"exceed max_steps ({self.max_steps})"
            )
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.warmup_steps < 1:
            raise ConfigError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if self.grad_clip <= 0:
            raise ConfigError(f"grad_clip must be > 0, got {self.grad_clip}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_len < 2:
            raise ConfigError(f"max_len must be >= 2, got {self.max_len}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if not 0.0 < self.synth_fit_threshold <= 1.0:
            raise ConfigError(
                f"synth_fit_threshold must be in (0, 1], got {self.synth_fit_threshold}"
            )
        return self

    ARCHITECTURE_FIELDS = ("layers", "heads", "model_dim", "ff_dim", "max_len")

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
        """The config `to_dict` gave, each value checked against the type that
        `config.KEYS` parses its field as (the seed: the [experiment] seed's)."""
        from ..config import KEYS  # tagmt.config imports this module

        if not isinstance(data, dict):
            raise ConfigError("config is not a JSON object")
        kinds = {attr: kind for (sec, _), (attr, kind) in KEYS.items() if sec == "translator"}
        kinds["seed"] = KEYS["experiment", "seed"][1]
        unknown = set(data) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            # bool is no int here; an int is a valid float
            if type(value) is not kinds[name] and (kinds[name], type(value)) != (float, int):
                raise ConfigError(
                    f"config field {name!r} expects {kinds[name].__name__}, got {value!r}"
                )
        return cls(**data).validate(min_steps=0)


def sinusoid_positions(max_len, dim):
    pos = np.arange(max_len, dtype=DTYPE)[:, None]
    idx = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (idx // 2)) / dim)
    return np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))


def param_layout(config, vocab_size):
    """Every parameter as (name, shape, init), in initialization order.

    init is "normal" (the embedding), "xavier" (weight matrices), "ones" or
    "zeros". It is the one definition of the model's parameters: the
    initializer draws from it, checkpoints are checked against it, and it
    lays the parameters out in one flat vector (`FlatViews`).
    """
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

    for i in range(config.layers):
        ln(f"enc{i}.ln1")
        attn(f"enc{i}.attn")
        ln(f"enc{i}.ln2")
        ff(f"enc{i}.ff")
    ln("enc.ln")
    for i in range(config.layers):
        ln(f"dec{i}.ln1")
        attn(f"dec{i}.self")
        ln(f"dec{i}.ln2")
        attn(f"dec{i}.cross")
        ln(f"dec{i}.ln3")
        ff(f"dec{i}.ff")
    ln("dec.ln")
    layout.extend([("out.w", (d, v), "xavier"), ("out.b", (v,), "zeros")])
    return layout


class FlatViews(dict):
    """Name -> view, in the parameter's shape, of one flat float64 `vector`.

    The parameters of a `param_layout` lie back to back in `vector`, in
    layout order, so one operation on `vector` (the Adam update, gradient
    clipping, a snapshot copy) acts on every parameter. Without a vector, a
    zeroed one is made.
    """

    def __init__(self, layout, vector=None):
        super().__init__()
        sizes = [math.prod(shape) for _, shape, _ in layout]
        self.vector = np.zeros(sum(sizes), dtype=DTYPE) if vector is None else vector
        start = 0
        for (name, shape, _), size in zip(layout, sizes):
            self[name] = self.vector[start : start + size].reshape(shape)
            start += size


# --- primitive layers: each fwd returns (out, cache), bwd consumes it -------
#
# A backward writes its parameters' gradients into `grads` (a FlatViews of
# zeros, see forward_backward) and returns the gradient of its input. Every
# parameter but the shared embedding feeds exactly one layer, so each
# gradient view is written once.


def _linear_fwd(x, params, prefix, suffix=""):
    """x @ w + b with w, b = params[f"{prefix}.w{suffix}"], params[f"{prefix}.b{suffix}"]."""
    w = params[f"{prefix}.w{suffix}"]
    return x @ w + params[f"{prefix}.b{suffix}"], (x, w, prefix, suffix)


def _linear_bwd(dy, cache, grads):
    x, w, prefix, suffix = cache
    flat_x = x.reshape(-1, x.shape[-1])
    flat_dy = dy.reshape(-1, dy.shape[-1])
    np.matmul(flat_x.T, flat_dy, out=grads[f"{prefix}.w{suffix}"])
    flat_dy.sum(axis=0, out=grads[f"{prefix}.b{suffix}"])
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
    flat_dy = dy.reshape(-1, dy.shape[-1])
    flat_xhat = xhat.reshape(-1, xhat.shape[-1])
    (flat_dy * flat_xhat).sum(axis=0, out=grads[f"{prefix}.g"])
    flat_dy.sum(axis=0, out=grads[f"{prefix}.b"])
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


def _dropout_fwd(x, p, rng, rows):
    """The mask is drawn for the padded (B, T, d) layout and then gathered, so
    the draws do not depend on which positions `rows` keeps."""
    if rng is None or p <= 0.0:
        return x, None
    keep = rows.gather(rng.random(rows.shape + x.shape[-1:]) >= p)
    mask = keep.astype(DTYPE) / (1.0 - p)
    return x * mask, mask


def _dropout_bwd(dy, mask):
    return dy if mask is None else dy * mask


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


def _head_proj(params, prefix, name, x, heads):
    """One attention input projection ('q', 'k' or 'v'), split into heads."""
    return _split_heads(_linear_fwd(x, params, prefix, name)[0], heads)


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
    r = np.maximum(h, 0.0)
    y, c2 = _linear_fwd(r, params, prefix, "2")
    return y, (c1, c2, h)


def _ff_bwd(dy, cache, grads):
    c1, c2, h = cache
    dh = _linear_bwd(dy, c2, grads) * (h > 0.0)
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
        config.validate(min_steps=0)
        self.config = config
        self.vocab_size = vocab_size
        self.pad_id = pad_id
        self.pos = sinusoid_positions(config.max_len, config.model_dim)
        self.layout = param_layout(config, vocab_size)
        if params is not None:
            self.params = params
        else:
            if rng is None:
                rng = np.random.default_rng(config.seed)
            self.params = self._init_params(rng)

    # -- initialization ------------------------------------------------------

    def _init_params(self, rng):
        d = self.config.model_dim
        params = {}
        for name, shape, init in self.layout:
            if init == "normal":
                params[name] = rng.normal(0.0, 1.0 / math.sqrt(d), size=shape).astype(DTYPE)
            elif init == "xavier":
                limit = math.sqrt(6.0 / (shape[0] + shape[1]))
                params[name] = rng.uniform(-limit, limit, size=shape).astype(DTYPE)
            else:
                params[name] = (np.ones if init == "ones" else np.zeros)(shape, dtype=DTYPE)
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

    def _encoder_fwd(self, src, rng, rows):
        p, c = self.params, self.config
        bias = self._src_bias(src)
        x = self._embed_fwd(rows.gather(src), rows.positions())
        x, drop0 = _dropout_fwd(x, c.dropout, rng, rows)
        layer_caches = []
        for i in range(c.layers):
            h1, cln1 = _ln_fwd(x, p, f"enc{i}.ln1")
            a, cattn = _attn_fwd(p, f"enc{i}.attn", h1, h1, bias, c.heads, rows, rows)
            a, cd1 = _dropout_fwd(a, c.dropout, rng, rows)
            x = x + a
            h2, cln2 = _ln_fwd(x, p, f"enc{i}.ln2")
            ff, cff = _ff_fwd(p, f"enc{i}.ff", h2)
            ff, cd2 = _dropout_fwd(ff, c.dropout, rng, rows)
            x = x + ff
            layer_caches.append((cln1, cattn, cd1, cln2, cff, cd2))
        memory, cln_final = _ln_fwd(x, p, "enc.ln")
        cache = (drop0, layer_caches, cln_final)
        return memory, bias, cache

    def _encoder_bwd(self, dmemory, src, rows, cache, grads):
        drop0, layer_caches, cln_final = cache
        dx = _ln_bwd(dmemory, cln_final, grads)
        for i in reversed(range(self.config.layers)):
            cln1, cattn, cd1, cln2, cff, cd2 = layer_caches[i]
            dh2 = _ff_bwd(_dropout_bwd(dx, cd2), cff, grads)
            dx = dx + _ln_bwd(dh2, cln2, grads)
            dq, dkv = _attn_bwd(_dropout_bwd(dx, cd1), cattn, grads, self.config.heads)
            dx = dx + _ln_bwd(dq + dkv, cln1, grads)
        dx = _dropout_bwd(dx, drop0)
        self._embed_bwd(grads, src, dx, rows)

    def _decoder_fwd(self, tgt_in, memory, src_bias, rng, rows, src_rows):
        """The decoder over the positions of tgt_in that `rows` keeps; memory holds one
        row per source position that `src_rows` keeps."""
        p, c = self.params, self.config
        self_bias = self._tgt_bias(tgt_in)
        x = self._embed_fwd(rows.gather(tgt_in), rows.positions())
        x, drop0 = _dropout_fwd(x, c.dropout, rng, rows)
        layer_caches = []
        for i in range(c.layers):
            h1, cln1 = _ln_fwd(x, p, f"dec{i}.ln1")
            a, cself = _attn_fwd(p, f"dec{i}.self", h1, h1, self_bias, c.heads, rows, rows)
            a, cd1 = _dropout_fwd(a, c.dropout, rng, rows)
            x = x + a
            h2, cln2 = _ln_fwd(x, p, f"dec{i}.ln2")
            a, ccross = _attn_fwd(
                p, f"dec{i}.cross", h2, memory, src_bias, c.heads, rows, src_rows
            )
            a, cd2 = _dropout_fwd(a, c.dropout, rng, rows)
            x = x + a
            h3, cln3 = _ln_fwd(x, p, f"dec{i}.ln3")
            ff, cff = _ff_fwd(p, f"dec{i}.ff", h3)
            ff, cd3 = _dropout_fwd(ff, c.dropout, rng, rows)
            x = x + ff
            layer_caches.append((cln1, cself, cd1, cln2, ccross, cd2, cln3, cff, cd3))
        out, cln_final = _ln_fwd(x, p, "dec.ln")
        cache = (drop0, layer_caches, cln_final)
        return out, cache

    def _decoder_bwd(self, dout, tgt_in, rows, cache, grads):
        """Returns the gradient flowing into the encoder memory."""
        heads = self.config.heads
        drop0, layer_caches, cln_final = cache
        dx = _ln_bwd(dout, cln_final, grads)
        dmemory = None
        for i in reversed(range(self.config.layers)):
            cln1, cself, cd1, cln2, ccross, cd2, cln3, cff, cd3 = layer_caches[i]
            dh3 = _ff_bwd(_dropout_bwd(dx, cd3), cff, grads)
            dx = dx + _ln_bwd(dh3, cln3, grads)
            dq, dmem = _attn_bwd(_dropout_bwd(dx, cd2), ccross, grads, heads)
            dmemory = dmem if dmemory is None else dmemory + dmem
            dx = dx + _ln_bwd(dq, cln2, grads)
            dq, dkv = _attn_bwd(_dropout_bwd(dx, cd1), cself, grads, heads)
            dx = dx + _ln_bwd(dq + dkv, cln1, grads)
        dx = _dropout_bwd(dx, drop0)
        self._embed_bwd(grads, tgt_in, dx, rows)
        return dmemory

    def _forward(self, src, tgt_in, tgt_out, rng, pack=True):
        """The pass training and validation share: (logits, gold ids, cache).

        With pack, the row-wise layers run on the non-pad positions only: the
        source's, and the target's where tgt_in or tgt_out is not pad. logits
        then has one row per such target position and gold holds their tgt_out
        ids. Without pack, every position is kept.
        """
        pad = self.pad_id
        if pack:
            src_rows, rows = _Rows(src != pad), _Rows((tgt_in != pad) | (tgt_out != pad))
        else:
            src_rows = _Rows(np.ones_like(src, dtype=bool))
            rows = _Rows(np.ones_like(tgt_in, dtype=bool))
        memory, src_bias, enc_cache = self._encoder_fwd(src, rng, src_rows)
        dec_out, dec_cache = self._decoder_fwd(tgt_in, memory, src_bias, rng, rows, src_rows)
        logits, clogits = _linear_fwd(dec_out, self.params, "out")
        gold = rows.gather(tgt_out).astype(np.int64)
        cache = (src, tgt_in, src_rows, rows, enc_cache, dec_cache, clogits)
        return logits, gold, cache

    def _backward(self, dlogits, cache):
        """The parameter gradients, from the gradient of `_forward`'s logits."""
        src, tgt_in, src_rows, rows, enc_cache, dec_cache, clogits = cache
        grads = FlatViews(self.layout)
        ddec = _linear_bwd(dlogits, clogits, grads)
        dmemory = self._decoder_bwd(ddec, tgt_in, rows, dec_cache, grads)
        self._encoder_bwd(dmemory, src, src_rows, enc_cache, grads)
        return grads

    # -- public entry points ---------------------------------------------------

    def forward_backward(self, src, tgt_in, tgt_out, rng=None):
        """One training step's loss, token count and parameter gradients.

        rng enables dropout (training mode); pass None for a deterministic
        evaluation pass. Loss is the mean label-smoothed cross entropy over
        non-pad target positions. The gradients are a `FlatViews` of a new
        flat vector: one view per parameter name, every one written.
        """
        if not (tgt_out != self.pad_id).any():
            raise ValueError("batch contains no non-pad target tokens")
        logits, gold, cache = self._forward(src, tgt_in, tgt_out, rng)
        loss_sum, count, dlogits = kernels.xent_loss_grad(
            logits, gold, self.pad_id, self.config.label_smoothing
        )
        dlogits /= count
        return loss_sum / count, count, self._backward(dlogits, cache)

    def loss_on(self, src, tgt_in, tgt_out):
        """Evaluation loss (sum, token count) without dropout."""
        logits, gold, _ = self._forward(src, tgt_in, tgt_out, None)
        return kernels.xent_loss(logits, gold, self.pad_id, self.config.label_smoothing)

    def encode(self, src):
        """The encoder memory of a padded source batch, (B, S, d) with zero rows
        at pad positions, and its attention bias."""
        rows = _Rows(src != self.pad_id)
        memory, src_bias, _ = self._encoder_fwd(src, None, rows)
        return rows.scatter(memory), src_bias

    def start_decode(self, src):
        """Encode a padded source batch and return an empty `DecodeState`.

        Each decoder layer's cross-attention keys and values of the encoder
        memory are computed here, once for the whole decode.
        """
        p, c = self.params, self.config
        memory, src_bias = self.encode(src)
        cross = [
            tuple(_head_proj(p, f"dec{i}.cross", name, memory, c.heads) for name in "kv")
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

        def attend(prefix, qh, kh, vh, bias):
            ctx = _attention(qh, kh, vh, bias)[2].reshape(rows, -1)
            return _linear_fwd(ctx, p, prefix, "o")[0]

        # the step's activations stay (rows, d) from the embedding to the logits
        x = self._embed_fwd(ids, t)
        for i in range(c.layers):
            sa, ca = f"dec{i}.self", f"dec{i}.cross"
            h1, _ = _ln_fwd(x, p, f"dec{i}.ln1")
            keys, values = state.keys[i], state.values[i]
            keys[:, :, t : t + 1] = proj(h1, sa, "k")
            values[:, :, t : t + 1] = proj(h1, sa, "v")
            qh = proj(h1, sa, "q")
            x = x + attend(sa, qh, keys[:, :, : t + 1], values[:, :, : t + 1], key_bias)
            h2, _ = _ln_fwd(x, p, f"dec{i}.ln2")
            x = x + attend(ca, proj(h2, ca, "q"), *state.cross[i], state.src_bias)
            h3, _ = _ln_fwd(x, p, f"dec{i}.ln3")
            x = x + _ff_fwd(p, f"dec{i}.ff", h3)[0]
        out, _ = _ln_fwd(x, p, "dec.ln")
        return out @ p["out.w"] + p["out.b"]
