"""Training and checkpointing for the numpy transformer.

Adam with warmup + inverse-sqrt decay, global-norm gradient clipping, and
best-validation checkpoint selection. Training holds the parameters, the
gradient, the Adam moments and the best-validation snapshot as flat vectors
laid out by `model.param_layout` (`model.FlatViews`), so a step is one norm
reduction, at most one in-place scale and one Adam update over the flat
vectors. A single numpy Generator seeded from the config drives init, batch
shuffling and dropout, so the whole loss trace is reproducible bit for bit
given (seed, config, data), at the one BLAS thread `forking` pins and on any
CPU count, also where `Transformer.forward_backward` splits a step into two
sentence shards (`model.splits_batches`). There, when the process may use
two CPUs, `train` opens one `model.Worker` for the whole call, which runs
the second shard, half of the scale and of Adam (`model.halves`,
elementwise, so the same bits) and every other validation batch; no thread
outlives the call. A step keeps nothing for the next: its gradient vectors
are freed once Adam has used them. A checkpoint file still stores one
`param:<name>` array per parameter.
"""

import json
import zipfile
from contextlib import nullcontext

import numpy as np

from .. import forking
from ..errors import ConfigError, DataError, Divergence
from ..fileio import atomic_write
from . import kernels
from .model import (
    DTYPE, FlatViews, ModelConfig, Transformer, Worker, halves, param_layout, run_pair,
    splits_batches,
)
from .vocab import Vocab, pad_rows, vocab_from_pairs

CHECKPOINT_FORMAT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9


class Checkpoint:
    """Self-describing bundle of config, vocabulary and trained weights."""

    def __init__(self, config, params, vocab, training_meta=None):
        self.config = config
        self.params = params
        self.vocab = vocab
        self.training_meta = training_meta or {}

    def build_model(self):
        return Transformer(
            self.config, len(self.vocab), pad_id=self.vocab.pad_id, params=self.params
        )

    def save(self, path):
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": self.config.to_dict(),
            "vocab_tokens": list(self.vocab.tokens),
            "training_meta": self.training_meta,
        }
        arrays = {f"param:{name}": arr for name, arr in self.params.items()}
        with atomic_write(path, mode="wb") as out:
            np.savez(out, meta=json.dumps(meta), **arrays)

    @classmethod
    def load(cls, path):
        """Read a checkpoint, or raise ConfigError naming the path when the file
        is not an .npz archive whose `meta` entry is a JSON object with
        config, vocab_tokens and training_meta, when its format version is not
        this one, when a config value has the wrong type or is invalid, when
        vocab_tokens is not a valid vocabulary or training_meta not an
        object, when its parameter names and shapes are not those its config
        and vocabulary imply, or when a parameter is not float64 or holds a
        NaN or infinity."""

        def invalid(problem):
            return ConfigError(f"checkpoint {path}: {problem}")

        try:
            with np.load(path, allow_pickle=False) as data:
                raw_meta = str(data["meta"])
                params = {
                    key[len("param:") :]: np.array(data[key])
                    for key in data.files
                    if key.startswith("param:")
                }
        except KeyError:
            raise invalid("no 'meta' entry") from None
        # a plain .npy file loads as an array, which is no context manager
        except (AttributeError, EOFError, TypeError, ValueError, zipfile.BadZipFile):
            raise invalid("not an .npz archive") from None
        try:
            meta = json.loads(raw_meta)
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            raise invalid("'meta' entry is not a JSON object")
        version = meta.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise invalid(f"format_version {version!r}, expected {CHECKPOINT_FORMAT_VERSION}")
        for key in ("config", "vocab_tokens", "training_meta"):
            if key not in meta:
                raise invalid(f"meta has no {key!r}")
        try:
            config = ModelConfig.from_dict(meta["config"])
        except ConfigError as err:
            raise invalid(err) from None
        tokens = meta["vocab_tokens"]
        if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
            raise invalid("'vocab_tokens' is not a list of strings")
        try:
            vocab = Vocab(tokens=tuple(tokens))
        except ValueError as err:
            raise invalid(err) from None
        if not isinstance(meta["training_meta"], dict):
            raise invalid("'training_meta' is not a JSON object")
        expected = {name: shape for name, shape, _ in param_layout(config, len(vocab))}
        for name in sorted(expected.keys() | params.keys()):
            if name not in params:
                problem = "is missing"
            elif name not in expected:
                problem = "is not a parameter of this model"
            elif params[name].shape != expected[name]:
                problem = f"has shape {params[name].shape}, expected {expected[name]}"
            elif params[name].dtype != DTYPE:
                problem = f"has dtype {params[name].dtype}, expected {np.dtype(DTYPE)}"
            elif not np.isfinite(params[name]).all():
                problem = "has a value that is not finite"
            else:
                continue
            raise invalid(f"parameter {name!r} {problem}")
        return cls(config=config, params=params, vocab=vocab, training_meta=meta["training_meta"])


def learning_rate_at(step, config):
    """Linear warmup to the peak rate, then inverse-sqrt decay."""
    warm = config.warmup_steps
    return config.learning_rate * min(step / warm, (warm / step) ** 0.5)


def encode_pairs(pairs, vocab, config, kind="training"):
    """Tokenize and id-encode the (source, target) string pairs of the
    ``kind`` set, which an error names.

    The source gets a trailing eos; bos/eos framing for the target happens at
    batch time. Sequences longer than config.max_len are a hard error since
    the position table cannot represent them.
    """
    eos = vocab.eos_id
    encoded = []
    for i, (src, tgt) in enumerate(pairs):
        src_ids = vocab.encode(src) + [eos]
        tgt_ids = vocab.encode(tgt)
        if len(src_ids) > config.max_len or len(tgt_ids) + 1 > config.max_len:
            raise ConfigError(
                f"{kind} pair {i} exceeds max_len={config.max_len} "
                f"(source {len(src_ids)}, target {len(tgt_ids) + 1} tokens)"
            )
        encoded.append((np.array(src_ids, dtype=np.int64), np.array(tgt_ids, dtype=np.int64)))
    return encoded


def make_batch(encoded, indices, vocab):
    """The (src, tgt_in, tgt_out) batch of encoded pairs at indices: tgt_in is
    bos + target, tgt_out target + eos, each side padded."""
    chosen = [encoded[i] for i in indices]
    src = pad_rows([s for s, _ in chosen], vocab.pad_id)
    tgt_in = pad_rows([[vocab.bos_id, *t] for _, t in chosen], vocab.pad_id)
    tgt_out = pad_rows([[*t, vocab.eos_id] for _, t in chosen], vocab.pad_id)
    return src, tgt_in, tgt_out


def _clip_grads(grad, clip, pool=None):
    """Scale the flat gradient in place to global norm `clip` when its norm is
    above it; return the norm before clipping. With a pool, the scale runs
    half on each thread (`model.halves`).

    einsum sums in its own fixed order, on one thread; BLAS ddot would split
    the sum by the BLAS thread count and make the trace depend on it.
    """
    norm = float(np.einsum("i,i->", grad, grad)) ** 0.5
    if norm > clip:
        scale = clip / norm
        halves(pool, lambda part: np.multiply(part, scale, out=part), grad)
    return norm


def evaluate_loss(model, encoded, vocab, batch_size, pool=None):
    """Mean per-token loss over a dataset, deterministic order, no dropout.

    The batches run two at a time (`model.run_pair`): with a pool, the
    second of each two on its worker. The sums are added in batch order
    either way, and a failing batch raises as the first to fail in that
    order would.
    """
    starts = range(0, len(encoded), batch_size)

    def loss_at(start):
        idx = range(start, min(start + batch_size, len(encoded)))
        return model.loss_on(*make_batch(encoded, idx, vocab))

    sums = []
    for k in range(0, len(starts), 2):
        if k + 1 < len(starts):
            first, second = starts[k], starts[k + 1]
            sums.extend(run_pair(pool, lambda: loss_at(first), lambda: loss_at(second)))
        else:
            sums.append(loss_at(starts[k]))
    total, count = 0.0, 0
    for loss_sum, n in sums:
        total += loss_sum
        count += n
    return total / max(count, 1)


def _batches(n, batch_size, rng):
    """Index batches over n pairs without end: each pass draws a fresh
    permutation when its first batch is asked for."""
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


def train(
    config,
    training_pairs,
    validation_pairs=(),
    vocab=None,
    log=None,
):
    """Optimize a transformer on (source, target) string pairs.

    Runs at most config.max_steps Adam steps, evaluates validation loss every
    config.validation_interval steps and returns the best-validation
    checkpoint (the final parameters when no validation pairs are given).
    With config.patience > 0, training stops early once that many
    consecutive validations pass without a new best loss.
    """
    config.validate()
    if not training_pairs:
        raise DataError("no training pairs")
    if vocab is None:
        vocab = vocab_from_pairs(training_pairs)
    encoded_train = encode_pairs(training_pairs, vocab, config)
    encoded_valid = encode_pairs(validation_pairs, vocab, config, "validation")

    rng = np.random.default_rng(config.seed)
    model = Transformer(config, len(vocab), pad_id=vocab.pad_id, rng=rng)
    flat = model.params.vector
    adam_m = np.zeros_like(flat)
    adam_v = np.zeros_like(flat)

    train_trace = []
    val_trace = []
    best_flat = None
    stopped_early = False
    batches = _batches(len(encoded_train), config.batch_size, rng)

    def update(step, idx, pool):
        """One Adam step on the batch idx; returns its loss."""
        src, tgt_in, tgt_out = make_batch(encoded_train, idx, vocab)
        loss, _, grads = model.forward_backward(src, tgt_in, tgt_out, rng=rng, pool=pool)
        if not np.isfinite(loss):
            raise Divergence(step, loss)
        _clip_grads(grads.vector, config.grad_clip, pool)
        lr = learning_rate_at(step, config)

        def adam(p, g, m, v):
            kernels.adam_update(p, g, m, v, lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, step)

        halves(pool, adam, flat, grads.vector, adam_m, adam_v)
        return loss

    two_threads = splits_batches(config) and forking.two_cpus()
    with Worker() if two_threads else nullcontext() as pool:
        for step, idx in zip(range(1, config.max_steps + 1), batches):
            loss = update(step, idx, pool)
            train_trace.append(float(loss))
            if step % config.validation_interval:
                continue
            line = f"step {step}: train {loss:.4f}"
            if encoded_valid:
                vloss = float(evaluate_loss(model, encoded_valid, vocab, config.batch_size, pool))
                line += f" valid {vloss:.4f}"
                val_trace.append([step, vloss])
                best_step = min(val_trace, key=lambda entry: entry[1])[0]  # the first minimum
                if best_step == step:
                    best_flat = flat.copy()
                stale_validations = (step - best_step) // config.validation_interval
                stopped_early = 0 < config.patience <= stale_validations
            if log is not None:
                log(line)
            if stopped_early:
                break

    final_params = model.params if best_flat is None else FlatViews(model.layout, best_flat)
    best_step, best_val_loss = min(val_trace, key=lambda entry: entry[1], default=(step, None))
    meta = {
        "steps": step,
        "best_step": best_step,
        "best_val_loss": best_val_loss,
        "final_val_loss": val_trace[-1][1] if val_trace else None,
        "stopped_early": stopped_early,
        "train_loss_trace": train_trace,
        "val_loss_trace": val_trace,
        "backend": kernels.BACKEND,
    }
    return Checkpoint(config=config, params=final_params, vocab=vocab, training_meta=meta)

