import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagmt.errors import ConfigError
from tagmt.mt.model import ModelConfig, Transformer, _Rows, masked_softmax, sinusoid_positions
from tagmt.mt.model import FlatViews, param_count, param_layout

MICRO = ModelConfig(
    layers=2,
    heads=2,
    model_dim=16,
    ff_dim=24,
    dropout=0.0,
    label_smoothing=0.1,
    max_len=8,
    max_steps=10,
    validation_interval=5,
)


def micro_model(seed=42, vocab_size=13, model_dim=16):
    config = replace(MICRO, model_dim=model_dim)
    return Transformer(config, vocab_size, pad_id=0, rng=np.random.default_rng(seed))


def micro_batch():
    src = np.array([[5, 6, 7, 2, 0], [4, 4, 2, 0, 0]])
    tgt_in = np.array([[1, 8, 9, 10], [1, 11, 0, 0]])
    tgt_out = np.array([[8, 9, 10, 2], [11, 2, 0, 0]])
    return src, tgt_in, tgt_out


def relative_gradient_errors(model, batch, n_coords, seed=0, h=1e-5):
    src, tgt_in, tgt_out = batch
    _, _, grads = model.forward_backward(src, tgt_in, tgt_out)

    def loss_at():
        loss, _, _ = model.forward_backward(src, tgt_in, tgt_out)
        return loss

    rng = np.random.default_rng(seed)
    names = sorted(model.params)
    errors = []
    for _ in range(n_coords):
        name = names[rng.integers(len(names))]
        flat = model.params[name].ravel()
        i = int(rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + h
        up = loss_at()
        flat[i] = orig - h
        down = loss_at()
        flat[i] = orig
        numeric = (up - down) / (2 * h)
        analytic = grads[name].ravel()[i]
        errors.append(abs(numeric - analytic) / max(1e-6, abs(numeric), abs(analytic)))
    return errors


def test_gradient_check_micro_model():
    errors = relative_gradient_errors(micro_model(), micro_batch(), n_coords=60)
    assert len(errors) == 60
    assert max(errors) < 1e-3


def test_gradients_cover_every_parameter():
    model = micro_model()
    _, _, grads = model.forward_backward(*micro_batch())
    assert set(grads) == set(model.params)
    for name, g in grads.items():
        assert g.shape == model.params[name].shape
        assert np.isfinite(g).all(), name


@settings(max_examples=60, deadline=None)
@given(
    layers=st.integers(1, 4),
    heads=st.integers(1, 4),
    head_dim=st.integers(1, 8),
    ff_dim=st.integers(1, 40),
    max_len=st.integers(2, 30),
    vocab_size=st.integers(1, 50),
)
def test_param_count_is_the_layout_sum(layers, heads, head_dim, ff_dim, max_len, vocab_size):
    config = ModelConfig(layers=layers, heads=heads, model_dim=heads * head_dim, ff_dim=ff_dim,
                         max_len=max_len)
    layout = param_layout(config, vocab_size)
    values = sum(math.prod(shape) for _, shape, _ in layout) + max_len * config.model_dim
    assert param_count(config, vocab_size) == values


def test_fresh_parameters_are_the_draws_in_layout_order():
    """A new model's parameters are views of one flat vector holding, back to
    back, what drawing each parameter on its own in layout order gives."""
    model = micro_model(seed=7)
    rng = np.random.default_rng(7)
    expected = []
    for name, shape, init in model.layout:
        if init == "normal":
            expected.append(rng.normal(0.0, 1.0 / math.sqrt(MICRO.model_dim), size=shape))
        elif init == "xavier":
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            expected.append(rng.uniform(-limit, limit, size=shape))
        else:
            expected.append((np.ones if init == "ones" else np.zeros)(shape))
    assert isinstance(model.params, FlatViews)
    assert list(model.params) == [name for name, _, _ in model.layout]
    flat = np.concatenate([value.ravel() for value in expected])
    assert model.params.vector.tobytes() == flat.tobytes()


def test_param_layout_pinned():
    # The layout order fixes the initializer's rng draws and the flat vector
    # Adam updates, so reordering it would change every loss trace.
    d, f, v = MICRO.model_dim, MICRO.ff_dim, 13

    def ln(p):
        return [(f"{p}.g", (d,), "ones"), (f"{p}.b", (d,), "zeros")]

    def attn(p):
        weights = [(f"{p}.w{x}", (d, d), "xavier") for x in "qkvo"]
        return weights + [(f"{p}.b{x}", (d,), "zeros") for x in "qkvo"]

    def ff(p):
        return [(f"{p}.w1", (d, f), "xavier"), (f"{p}.b1", (f,), "zeros"),
                (f"{p}.w2", (f, d), "xavier"), (f"{p}.b2", (d,), "zeros")]

    expected = [("embed", (v, d), "normal")]
    expected += ln("enc0.ln1") + attn("enc0.attn") + ln("enc0.ln2") + ff("enc0.ff")
    expected += ln("enc1.ln1") + attn("enc1.attn") + ln("enc1.ln2") + ff("enc1.ff")
    expected += ln("enc.ln")
    expected += ln("dec0.ln1") + attn("dec0.self") + ln("dec0.ln2") + attn("dec0.cross")
    expected += ln("dec0.ln3") + ff("dec0.ff")
    expected += ln("dec1.ln1") + attn("dec1.self") + ln("dec1.ln2") + attn("dec1.cross")
    expected += ln("dec1.ln3") + ff("dec1.ff")
    expected += ln("dec.ln") + [("out.w", (d, v), "xavier"), ("out.b", (v,), "zeros")]
    layout = param_layout(MICRO, v)
    assert layout == expected and len(layout) == 91
    names = [name for name, _, _ in layout]

    def span(prefix):
        at = [i for i, name in enumerate(names) if name.startswith(prefix)]
        return min(at), max(at)

    assert span("enc1.")[1] < span("enc.ln.")[0] <= span("enc.ln.")[1] < span("dec0.")[0]


def test_masked_softmax_rows_normalized():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(3, 2, 5, 7)) * 5
    mask = rng.random((3, 1, 1, 7)) < 0.5
    mask[..., 0] = True  # keep at least one key visible
    bias = np.where(mask, 0.0, -1e9)
    attn = masked_softmax(scores, bias)
    assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-5)
    assert attn[~np.broadcast_to(mask, attn.shape)].max() < 1e-20


def test_model_output_distributions_normalized():
    model = micro_model()
    src, tgt_in, _ = micro_batch()
    state = model.start_decode(src)
    for t in range(tgt_in.shape[1]):
        logits = model.decode_step(tgt_in[:, t], state)
        assert logits.shape == (2, 13)
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-5)


def full_prefix_logits(model, src, tgt_in):
    """Oracle: the training decoder over the whole prefix, (B, T, V) logits."""
    memory, src_bias = model.encode(src)
    every, src_every = _Rows(np.ones_like(tgt_in, dtype=bool)), _Rows(np.ones_like(src, dtype=bool))
    dec_out, _ = model._stack_fwd(
        "dec", tgt_in, every, None, model._tgt_bias(tgt_in), memory, src_bias, src_every
    )
    return every.scatter(dec_out @ model.params["out.w"] + model.params["out.b"])


# Sources and prefixes of up to three rows. pad_id (0) inside row 1's prefix
# must stay a masked key at every later step.
STEP_SRC = np.array([[5, 6, 7, 2, 0], [4, 4, 2, 0, 0], [9, 3, 12, 8, 2]])
STEP_TGT = np.array(
    [[1, 8, 9, 10, 3, 4, 5, 6], [1, 11, 0, 7, 0, 12, 9, 2], [1, 3, 3, 4, 9, 8, 7, 6]]
)


# the micro model at two rows under three seeds, then 1-3 rows at d=32 and d=128
DECODE_CASES = [pytest.param(seed, 16, 2, id=str(seed)) for seed in (0, 1, 2)] + [
    pytest.param(0, d, rows, id=f"d{d}-rows{rows}") for d in (32, 128) for rows in (1, 2, 3)
]


@pytest.mark.parametrize("seed, model_dim, rows", DECODE_CASES)
def test_decode_step_matches_full_prefix_decoder(seed, model_dim, rows):
    model = micro_model(seed, model_dim=model_dim)
    src, tgt = STEP_SRC[:rows], STEP_TGT[:rows]
    state = model.start_decode(src)
    for t in range(tgt.shape[1]):
        step = model.decode_step(tgt[:, t], state)
        full = full_prefix_logits(model, src, tgt[:, : t + 1])[:, -1]
        np.testing.assert_allclose(step, full, rtol=0, atol=1e-10)
    with pytest.raises(ValueError, match="max_len"):
        model.decode_step(tgt[:, -1], state)


@pytest.mark.parametrize("model_dim", [16, 128])
def test_decode_step_alone_equals_in_batch(model_dim):
    # Batching changes the GEMMs' row count, and with it the last bits of
    # their rows, so a sentence's logits alone and in a batch are only close.
    model = micro_model(4, model_dim=model_dim)
    alone, batch = model.start_decode(STEP_SRC[:1]), model.start_decode(STEP_SRC)
    for t in range(STEP_TGT.shape[1]):
        one = model.decode_step(STEP_TGT[:1, t], alone)
        three = model.decode_step(STEP_TGT[:, t], batch)
        np.testing.assert_allclose(one[0], three[0], rtol=0, atol=1e-12)


def test_decode_step_after_beam_reorder():
    # beam search keeps row 1 twice and row 0 once, in that order; swaps the
    # rows; keeps every row in place, which copies nothing; or drops a row
    for rows in ([1, 1, 0], [1, 0], [0, 1], [1]):
        model = micro_model(3)
        src = micro_batch()[0]
        tgt = np.array([[1, 8, 9], [1, 0, 11]])
        state = model.start_decode(src)
        for t in range(tgt.shape[1]):
            model.decode_step(tgt[:, t], state)
        keys = state.keys
        state.reorder(np.array(rows))
        assert (state.keys is keys) == (rows == [0, 1])
        src, tgt = src[rows], tgt[rows]
        for tokens in ([4, 5, 6], [7, 0, 12], [2, 9, 9]):
            tgt = np.concatenate([tgt, np.array(tokens[: len(rows)])[:, None]], axis=1)
            step = model.decode_step(tgt[:, -1], state)
            full = full_prefix_logits(model, src, tgt)[:, -1]
            np.testing.assert_allclose(step, full, rtol=0, atol=1e-10)


def test_forward_deterministic_without_dropout():
    model = micro_model()
    a = model.forward_backward(*micro_batch())
    b = model.forward_backward(*micro_batch())
    assert a[0] == b[0]


@pytest.mark.parametrize("tgt_in_pad", [False, True], ids=["bos-only", "all-pad"])
def test_all_pad_target_rejected_before_any_layer(monkeypatch, tgt_in_pad):
    from tagmt.mt import model as model_module

    def layer(*args):
        raise AssertionError("a layer ran")

    model = micro_model()
    src, tgt_in, tgt_out = micro_batch()
    monkeypatch.setattr(model, "_embed_fwd", layer)
    monkeypatch.setattr(model_module, "_ln_fwd", layer)
    monkeypatch.setattr(model_module, "_linear_fwd", layer)
    if tgt_in_pad:
        tgt_in = np.zeros_like(tgt_in)
    with pytest.raises(ValueError, match="^batch contains no non-pad target tokens$"):
        model.forward_backward(src, tgt_in, np.zeros_like(tgt_out))


def test_dropout_draws_change_loss_but_are_seed_deterministic():
    config = MICRO.override(dropout=0.2)
    batch = micro_batch()
    model = Transformer(config, 13, rng=np.random.default_rng(7))
    loss1 = model.forward_backward(*batch, rng=np.random.default_rng(3))[0]
    loss2 = model.forward_backward(*batch, rng=np.random.default_rng(3))[0]
    loss3 = model.forward_backward(*batch, rng=np.random.default_rng(4))[0]
    eval_loss = model.forward_backward(*batch, rng=None)[0]
    assert loss1 == loss2
    assert loss1 != loss3
    assert eval_loss != loss1


def test_sinusoid_positions_shape_and_range():
    table = sinusoid_positions(32, 16)
    assert table.shape == (32, 16)
    assert np.abs(table).max() <= 1.0


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ModelConfig(model_dim=30, heads=4).validate()
    with pytest.raises(ConfigError):
        ModelConfig(dropout=1.0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(max_steps=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(validation_interval=300, max_steps=200).validate()
    with pytest.raises(ConfigError):
        ModelConfig(label_smoothing=-0.1).validate()
    with pytest.raises(ConfigError):
        ModelConfig(synth_fit_threshold=0.0).validate()
    with pytest.raises(ConfigError):
        ModelConfig().override(nonsense=1)
    ModelConfig().validate()


def test_translate_accepts_tagged_and_untagged(copy_checkpoint):
    from tagmt.mt.decode import translate_corpus

    plain, tagged = translate_corpus(copy_checkpoint, ["t01 t02", "t01 t02 ## dog,cat"])
    assert isinstance(plain, str) and isinstance(tagged, str)
