from types import SimpleNamespace

import numpy as np
import pytest

from tagmt.mt.decode import _log_softmax, beam_decode, translate, translate_corpus
from tagmt.mt.model import ModelConfig
from tagmt.mt.train import Checkpoint, train
from tagmt.mt.vocab import vocab_from_pairs
from tagmt.toy import make_copy_task


def random_checkpoint(seed):
    """Untrained model: arbitrary but deterministic behaviour."""
    pairs = [("aa bb cc dd ee", "ff gg hh ii jj")]
    vocab = vocab_from_pairs(pairs)
    config = ModelConfig(
        layers=1, heads=2, model_dim=16, ff_dim=24, dropout=0.0,
        max_len=12, max_steps=1, validation_interval=1, seed=seed,
    )
    from tagmt.mt.model import Transformer

    model = Transformer(config, len(vocab), rng=np.random.default_rng(seed))
    return Checkpoint(config=config, params=model.params, vocab=vocab)


def test_beam_width_one_equals_greedy():
    for seed in range(6):
        ckpt = random_checkpoint(seed)
        for text in ("aa bb", "cc dd ee aa", "ee", "zz unk tokens"):
            greedy = translate(ckpt, text, decode="greedy")
            beam1 = translate(ckpt, text, decode="beam", beam_width=1)
            assert beam1 == greedy, (seed, text)


# Greedy and width-3 beam outputs of random_checkpoint(seed), recorded by a
# decoder that ran the training decoder over each whole prefix; the cached
# decoder must reproduce them exactly. Seed 0 emits <pad>, which must stay a
# masked key at later steps.
GOLDEN = [
    (0, 'aa bb', '<sep> <bos> <sep> <bos> <sep> <unk> ee <bos> <sep> <unk> jj', '<sep> <bos> <sep> <bos> <sep> <unk> ee <bos> <sep> <bos> <sep>'),
    (0, 'cc dd ee aa', '<sep> <bos> <sep> <unk> jj <pad>', '<sep> <bos> gg <bos> <sep> <bos> <sep> <bos> <sep> <bos> <sep>'),
    (0, 'ee', '<sep> <bos> gg <bos> <sep> <unk> ee cc <unk> jj', '<sep> <bos> gg <bos> gg <bos> <sep> <bos> gg'),
    (0, 'zz unk tokens', ',aa jj', '<sep> <bos> jj'),
    (1, 'aa bb', 'hh hh hh ee ## ee ## ee ## ee ee', 'hh ii ee ## <sep> ee gg ee gg ee ee'),
    (1, 'cc dd ee aa', 'hh hh hh ee ## hh ff ee ## ee,', 'hh hh hh hh ee ## hh ee ## ee ee'),
    (1, 'ee', 'hh hh hh hh bb bb bb bb ee ee ee', 'hh hh hh bb bb bb bb bb bb bb bb'),
    (1, 'zz unk tokens', 'hh hh hh hh hh hh hh hh hh ee ee', 'hh jj jj jj <sep>'),
    (2, 'aa bb', 'jj,hh hh hh hh hh hh hh hh hh', 'jj hh hh hh hh hh hh hh hh hh hh'),
    (2, 'cc dd ee aa', 'jj,<unk> hh hh hh hh hh hh hh hh', 'jj ee <unk> hh hh hh hh hh hh hh hh'),
    (2, 'ee', 'jj,cc bb bb bb <bos>,<unk> hh hh', 'jj,<unk> hh hh hh hh hh hh hh hh'),
    (2, 'zz unk tokens', 'jj hh hh hh hh hh hh hh hh hh hh', 'jj hh hh hh hh hh hh hh hh hh hh'),
    (3, 'aa bb', 'bb <bos> bb <bos> bb <bos> bb <bos> <bos> bb <bos>', 'bb <bos> bb <bos> bb <bos> bb <bos> <bos> bb <bos>'),
    (3, 'cc dd ee aa', 'bb dd aa jj gg dd dd dd <sep> <bos> dd', 'bb ee bb <sep> <bos> bb cc bb <sep> <bos> bb'),
    (3, 'ee', 'bb dd aa bb <sep> <bos> dd <sep> <bos> bb <sep>', 'bb ee bb <sep> <bos> dd <sep> <bos> dd <sep> <bos>'),
    (3, 'zz unk tokens', 'bb <bos> bb bb bb <bos> bb <bos> bb <bos> bb', 'bb <bos> bb <bos> bb cc bb <bos> bb <bos> bb'),
    (4, 'aa bb', 'ff <sep> cc ii ff <sep> cc <bos> ff <bos> ff', 'dd ii ee <bos> ff <bos> ff <bos> ff <bos> ff'),
    (4, 'cc dd ee aa', 'dd ii bb ii ff <sep> <sep> <sep> <sep> <sep> <sep>', 'bb bb ii bb ii ff <sep> <sep> <sep> <sep> <sep>'),
    (4, 'ee', 'bb bb ii hh ii ff <sep> <sep> <sep> <sep> <sep>', 'bb bb ii hh <sep> <sep> <sep> <sep> <sep> <sep> <sep>'),
    (4, 'zz unk tokens', 'bb ii bb ii ii ii bb ii bb ii ii', 'bb ii bb ii bb ii bb ii bb ii ii'),
    (5, 'aa bb', 'ee ee ee ee ee ee ee ee ee ee ee', 'ee ee ee ee ee ee ee ee ee ee ee'),
    (5, 'cc dd ee aa', 'ee ee ee ee ee ee ee ee ee ee ee', 'ee ee ee ee ee ee ee ee ee ee ee'),
    (5, 'ee', 'ee ee ee ee ee ee ee ee ee ee ee', 'ee ee ee ee ee ee ee ee ee ee ee'),
    (5, 'zz unk tokens', 'bb aa bb aa bb aa bb aa bb aa bb', 'bb aa bb aa bb aa bb aa bb aa bb'),
]


@pytest.mark.parametrize("seed, text, greedy, beam", GOLDEN)
def test_golden_hypotheses(seed, text, greedy, beam):
    ckpt = random_checkpoint(seed)
    assert translate(ckpt, text, decode="greedy") == greedy
    assert translate(ckpt, text, decode="beam", beam_width=3) == beam


class TableModel:
    """Stub decoder: step t's logits for last token i are table[t, i] in every row."""

    def __init__(self, table):
        self.table = table

    def start_decode(self, src):
        return SimpleNamespace(length=0, reorder=lambda rows: None)

    def decode_step(self, ids, state):
        state.length += 1
        return self.table[state.length - 1, ids]


def reference_beam(table, bos, eos, width):
    """Beam search over (score, row, token) tuples sorted in Python."""
    active, finished = [(0.0, [bos])], []
    for t in range(table.shape[0]):
        if not active:
            break
        logp = _log_softmax(table[t, [ids[-1] for _, ids in active]])
        candidates = [
            (score + float(logp[row, tok]), row, tok, ids)
            for row, (score, ids) in enumerate(active)
            for tok in range(logp.shape[1])
        ]
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        active = []
        for score, _, tok, ids in candidates[:width]:
            if tok == eos:
                finished.append((score, ids[1:]))
            else:
                active.append((score, ids + [tok]))
    pool = finished + [(score, ids[1:]) for score, ids in active]
    pool.sort(key=lambda c: (-c[0], len(c[1]), c[1]))
    return pool[0][1]


@pytest.mark.parametrize("seed", range(40))
def test_beam_tie_break_matches_reference(seed):
    # logits drawn from {0, 1, 2}: most candidates tie, within and across rows
    rng = np.random.default_rng(seed)
    steps, vocab_size = int(rng.integers(1, 7)), int(rng.integers(3, 9))
    table = rng.integers(0, 3, size=(steps, vocab_size, vocab_size)).astype(float)
    vocab = SimpleNamespace(bos_id=1, eos_id=2)
    width = int(rng.integers(1, 6))
    got = beam_decode(TableModel(table), [3], vocab, steps + 1, width)
    assert got == reference_beam(table, 1, 2, width)


def test_empty_source_no_crash():
    ckpt = random_checkpoint(0)
    out = translate(ckpt, "")
    assert isinstance(out, str)


def test_translate_deterministic():
    ckpt = random_checkpoint(3)
    assert translate(ckpt, "aa bb cc") == translate(ckpt, "aa bb cc")


def test_unknown_tokens_fall_back_to_unk():
    ckpt = random_checkpoint(1)
    out = translate(ckpt, "completely novel words")
    assert isinstance(out, str)


def test_copy_task_translation(copy_checkpoint):
    assert translate(copy_checkpoint, "t01 t02 t03") == "t01 t02 t03"


def test_beam_matches_greedy_on_confident_model(copy_checkpoint):
    text = "t04 t09 t11 t17"
    assert translate(copy_checkpoint, text, decode="beam", beam_width=4) == translate(
        copy_checkpoint, text
    )


def test_translate_corpus_matches_single(copy_checkpoint):
    sources = [s for s, _ in make_copy_task(20, seed=33)]
    batched = translate_corpus(copy_checkpoint, sources)
    single = [translate(copy_checkpoint, s) for s in sources]
    assert batched == single


def test_translate_corpus_beam_path(copy_checkpoint):
    sources = ["t01 t02", "t05 t06 t07"]
    out = translate_corpus(copy_checkpoint, sources, decode="beam", beam_width=2)
    assert out == sources  # copy model reproduces inputs


def test_overlong_source_truncated_not_crashing(copy_checkpoint):
    long_text = " ".join(["t01"] * 100)
    out = translate(copy_checkpoint, long_text)
    assert isinstance(out, str)


def test_bad_decode_mode(copy_checkpoint):
    with pytest.raises(ValueError):
        translate(copy_checkpoint, "t01", decode="sampling")
    with pytest.raises(ValueError):
        translate(copy_checkpoint, "t01", decode="beam", beam_width=0)
