"""Training, fine-tuning and checkpointing for the numpy transformer.

Adam with warmup + inverse-sqrt decay, global-norm gradient clipping, and
best-validation checkpoint selection. Training holds the parameters, the
gradient, the Adam moments and the best-validation snapshot as flat vectors
laid out by `model.param_layout` (`model.FlatViews`), so a step is one norm
reduction, at most one in-place scale and one `kernels.adam_update` call. A
single numpy Generator seeded from the config drives init, batch shuffling
and dropout, so the whole loss trace is reproducible bit for bit given
(seed, config, data) and the BLAS thread count. A checkpoint file still stores one `param:<name>`
array per parameter.
"""

import json
import zipfile

import numpy as np

from ..errors import ArchitectureMismatch, ConfigError, Divergence, EmptyCorpus
from ..fileio import atomic_write
from . import kernels
from .model import DTYPE, FlatViews, ModelConfig, Transformer, param_layout
from .vocab import Vocab, vocab_from_pairs

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
        object, or when its parameter names and shapes are not those its
        config and vocabulary imply."""

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
            else:
                continue
            raise invalid(f"parameter {name!r} {problem}")
        return cls(config=config, params=params, vocab=vocab, training_meta=meta["training_meta"])


def learning_rate_at(step, config):
    """Linear warmup to the peak rate, then inverse-sqrt decay."""
    warm = config.warmup_steps
    return config.learning_rate * min(step / warm, (warm / step) ** 0.5)


def encode_pairs(pairs, vocab, config):
    """Tokenize and id-encode (source, target) string pairs.

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
                f"pair {i} exceeds max_len={config.max_len} "
                f"(source {len(src_ids)}, target {len(tgt_ids) + 1} tokens)"
            )
        encoded.append((np.array(src_ids, dtype=np.int64), np.array(tgt_ids, dtype=np.int64)))
    return encoded


def make_batch(encoded, indices, vocab):
    pad, bos, eos = vocab.pad_id, vocab.bos_id, vocab.eos_id
    chosen = [encoded[i] for i in indices]
    s_max = max(len(s) for s, _ in chosen)
    t_max = max(len(t) for _, t in chosen) + 1
    b = len(chosen)
    src = np.full((b, s_max), pad, dtype=np.int64)
    tgt_in = np.full((b, t_max), pad, dtype=np.int64)
    tgt_out = np.full((b, t_max), pad, dtype=np.int64)
    for row, (s, t) in enumerate(chosen):
        src[row, : len(s)] = s
        tgt_in[row, 0] = bos
        tgt_in[row, 1 : len(t) + 1] = t
        tgt_out[row, : len(t)] = t
        tgt_out[row, len(t)] = eos
    return src, tgt_in, tgt_out


def _clip_grads(grad, clip):
    """Scale the flat gradient in place to global norm `clip` when its norm is
    above it; return the norm before clipping.

    einsum sums in its own fixed order; BLAS ddot would split the sum by the
    BLAS thread count and make the trace depend on it.
    """
    norm = float(np.einsum("i,i->", grad, grad)) ** 0.5
    if norm > clip:
        grad *= clip / norm
    return norm


def evaluate_loss(model, encoded, vocab, batch_size):
    """Mean per-token loss over a dataset, deterministic order, no dropout."""
    total, count = 0.0, 0
    for start in range(0, len(encoded), batch_size):
        idx = range(start, min(start + batch_size, len(encoded)))
        src, tgt_in, tgt_out = make_batch(encoded, idx, vocab)
        loss_sum, n = model.loss_on(src, tgt_in, tgt_out)
        total += loss_sum
        count += n
    return total / max(count, 1)


def train(
    config,
    training_pairs,
    validation_pairs=(),
    vocab=None,
    init_params=None,
    log=None,
):
    """Optimize a transformer on (source, target) string pairs.

    Runs at most config.max_steps Adam steps, evaluates validation loss every
    config.validation_interval steps and returns the best-validation
    checkpoint (the final parameters when no validation pairs are given).
    With config.patience > 0, training stops early once that many
    consecutive validations pass without a new best loss.
    """
    config.validate(min_steps=1)
    if not training_pairs:
        raise EmptyCorpus("no training pairs")
    if vocab is None:
        vocab = vocab_from_pairs(training_pairs)
    encoded_train = encode_pairs(training_pairs, vocab, config)
    encoded_valid = encode_pairs(validation_pairs, vocab, config)

    rng = np.random.default_rng(config.seed)
    model = Transformer(config, len(vocab), pad_id=vocab.pad_id, params=init_params, rng=rng)
    # From here on the parameters are views of one flat vector, which Adam
    # updates in one call and the best-validation snapshot copies whole.
    layout = model.layout
    model.params = FlatViews(
        layout, np.concatenate([model.params[name].ravel() for name, _, _ in layout], dtype=DTYPE)
    )
    flat = model.params.vector
    adam_m = np.zeros_like(flat)
    adam_v = np.zeros_like(flat)

    train_trace = []
    val_trace = []
    best_loss = None
    best_flat = None
    best_step = None
    stale_validations = 0
    stopped_early = False
    step = 0
    n = len(encoded_train)

    while step < config.max_steps and not stopped_early:
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            if step >= config.max_steps or stopped_early:
                break
            step += 1
            idx = order[start : start + config.batch_size]
            src, tgt_in, tgt_out = make_batch(encoded_train, idx, vocab)
            loss, _, grads = model.forward_backward(src, tgt_in, tgt_out, rng=rng)
            if not np.isfinite(loss):
                raise Divergence(step, loss)
            _clip_grads(grads.vector, config.grad_clip)
            lr = learning_rate_at(step, config)
            kernels.adam_update(
                flat, grads.vector, adam_m, adam_v, lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, step
            )
            train_trace.append(float(loss))
            if step % config.validation_interval == 0 and encoded_valid:
                vloss = evaluate_loss(model, encoded_valid, vocab, config.batch_size)
                val_trace.append([step, float(vloss)])
                if best_loss is None or vloss < best_loss:
                    best_loss = float(vloss)
                    best_step = step
                    best_flat = flat.copy()
                    stale_validations = 0
                else:
                    stale_validations += 1
                    if config.patience and stale_validations >= config.patience:
                        stopped_early = True
                if log is not None:
                    log(f"step {step}: train {loss:.4f} valid {vloss:.4f}")
            elif log is not None and step % config.validation_interval == 0:
                log(f"step {step}: train {loss:.4f}")

    final_params = model.params if best_flat is None else FlatViews(layout, best_flat)
    meta = {
        "steps": step,
        "best_step": best_step if best_step is not None else step,
        "best_val_loss": best_loss,
        "final_val_loss": val_trace[-1][1] if val_trace else None,
        "stopped_early": stopped_early,
        "train_loss_trace": train_trace,
        "val_loss_trace": val_trace,
        "backend": kernels.BACKEND,
    }
    return Checkpoint(config=config, params=final_params, vocab=vocab, training_meta=meta)


def fine_tune(base, config_overrides, training_pairs, validation_pairs=(), log=None):
    """Continue optimizing a checkpoint on new data.

    Overrides may adjust schedule parameters but not the architecture. A
    max_steps of 0 is allowed and returns a copy of the base parameters
    unchanged. The base vocabulary is reused; out-of-vocabulary tokens in the
    new data fall back to unk.
    """
    overrides = dict(config_overrides or {})
    for name in ModelConfig.ARCHITECTURE_FIELDS:
        if name in overrides and overrides[name] != getattr(base.config, name):
            raise ArchitectureMismatch(name, getattr(base.config, name), overrides[name])
    config = base.config.override(**overrides)
    config.validate(min_steps=0)
    if not training_pairs:
        raise EmptyCorpus("no fine-tuning pairs")
    if config.max_steps == 0:
        params = {k: v.copy() for k, v in base.params.items()}
        meta = dict(base.training_meta)
        meta.update({"steps": 0, "fine_tuned_from_steps": base.training_meta.get("steps")})
        return Checkpoint(config=config, params=params, vocab=base.vocab, training_meta=meta)
    ckpt = train(
        config,
        training_pairs,
        validation_pairs,
        vocab=base.vocab,
        init_params=base.params,
        log=log,
    )
    ckpt.training_meta["fine_tuned_from_steps"] = base.training_meta.get("steps")
    return ckpt
