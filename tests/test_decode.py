import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counting_forks
from tagmt import forking
from tagmt.errors import ConfigError
from tagmt.mt import decode as decode_module
from tagmt.mt.decode import _encode_source, _log_softmax, beam_search, translate_corpus
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
            greedy = translate_corpus(ckpt, [text], decode="greedy")[0]
            beam1 = translate_corpus(ckpt, [text], decode="beam", beam_width=1)[0]
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
    assert translate_corpus(ckpt, [text], decode="greedy")[0] == greedy
    assert translate_corpus(ckpt, [text], decode="beam", beam_width=3)[0] == beam


class TableState:
    """The sentence of every row, reordered with the rows."""

    def __init__(self, sentence):
        self.sentence = sentence
        self.length = 0

    def reorder(self, rows):
        self.sentence = self.sentence[rows]


class TableModel:
    """Stub decoder over a batch of sentences, one table each.

    Source row s is sentence s; at step t the logits of a row of sentence s
    whose last token is i are tables[s][t, i].
    """

    def __init__(self, tables):
        self.tables = tables
        self.rows = []  # rows fed at each step

    def start_decode(self, src):
        return TableState(np.arange(len(src)))

    def decode_step(self, ids, state):
        state.length += 1
        self.rows.append(len(ids))
        return np.stack(
            [self.tables[s][state.length - 1, i] for s, i in zip(state.sentence, ids)]
        )


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
    # up to two more sentences with their own tables share the search
    more = rng.integers(0, 3, size=(int(rng.integers(0, 3)), steps, vocab_size, vocab_size))
    tables = [table, *more.astype(float)]
    src = np.full((len(tables), 1), 3)
    got = beam_search(TableModel(tables), src, vocab, steps + 1, width)
    assert got == [reference_beam(t, 1, 2, width) for t in tables]


def test_finished_sentences_leave_the_batch():
    # sentence 0 always prefers eos (2), sentence 1 never does
    tables = np.zeros((2, 3, 4, 4))
    tables[0, :, :, 2] = tables[1, :, :, 3] = 1.0
    model, vocab = TableModel(tables), SimpleNamespace(bos_id=1, eos_id=2)
    assert beam_search(model, np.zeros((2, 1)), vocab, 4, 1) == [[], [3, 3, 3]]
    assert model.rows == [2, 1, 1]


def test_empty_source_no_crash():
    ckpt = random_checkpoint(0)
    out = translate_corpus(ckpt, [""])[0]
    assert isinstance(out, str)


def test_translate_deterministic():
    ckpt = random_checkpoint(3)
    assert translate_corpus(ckpt, ["aa bb cc"]) == translate_corpus(ckpt, ["aa bb cc"])


def test_unknown_tokens_fall_back_to_unk():
    ckpt = random_checkpoint(1)
    out = translate_corpus(ckpt, ["completely novel words"])[0]
    assert isinstance(out, str)


def test_copy_task_translation(copy_checkpoint):
    assert translate_corpus(copy_checkpoint, ["t01 t02 t03"]) == ["t01 t02 t03"]


def test_beam_matches_greedy_on_confident_model(copy_checkpoint):
    text = "t04 t09 t11 t17"
    beam = translate_corpus(copy_checkpoint, [text], decode="beam", beam_width=4)
    assert beam == translate_corpus(copy_checkpoint, [text])


def test_translate_corpus_matches_single(copy_checkpoint):
    sources = [s for s, _ in make_copy_task(20, seed=33)]
    batched = translate_corpus(copy_checkpoint, sources)
    single = [translate_corpus(copy_checkpoint, [s])[0] for s in sources]
    assert batched == single


def test_translate_corpus_beam_path(copy_checkpoint):
    sources = ["t01 t02", "t05 t06 t07"]
    out = translate_corpus(copy_checkpoint, sources, decode="beam", beam_width=2)
    assert out == sources  # copy model reproduces inputs


def test_overlong_source_truncated_not_crashing(copy_checkpoint):
    long_text = " ".join(["t01"] * 100)
    out = translate_corpus(copy_checkpoint, [long_text])[0]
    assert isinstance(out, str)


def test_bad_decode_mode(copy_checkpoint):
    with pytest.raises(ConfigError):
        translate_corpus(copy_checkpoint, ["t01"], decode="sampling")
    with pytest.raises(ConfigError):
        translate_corpus(copy_checkpoint, ["t01"], decode="beam", beam_width=0)
    with pytest.raises(ConfigError):
        translate_corpus(copy_checkpoint, ["t01"], max_len=1)


def greedy_reference(model, src, vocab, max_len):
    """Greedy search as a plain argmax over `decode_step`, the whole batch in lockstep."""
    eos = vocab.eos_id
    b = src.shape[0]
    state = model.start_decode(src)
    nxt = np.full(b, vocab.bos_id, dtype=np.int64)
    done = np.zeros(b, dtype=bool)
    tokens = np.full((b, max_len - 1), eos, dtype=np.int64)
    for step in range(max_len - 1):
        nxt = model.decode_step(nxt, state).argmax(axis=1)
        nxt[done] = eos
        tokens[:, step] = nxt
        done |= nxt == eos
        if done.all():
            break
    ended = tokens == eos
    lengths = np.where(ended.any(axis=1), ended.argmax(axis=1), tokens.shape[1])
    return [row[:n].tolist() for row, n in zip(tokens, lengths)]


WORDS = ["aa", "bb", "cc", "dd", "ee", "ff", "zz"]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    sources=st.lists(
        st.lists(st.sampled_from(WORDS), max_size=14).map(" ".join), min_size=1, max_size=5
    ),
    width=st.integers(1, 4),
    max_len=st.integers(2, 12),
)
def test_batched_search_properties(seed, sources, width, max_len):
    ckpt = random_checkpoint(seed)
    model, vocab = ckpt.build_model(), ckpt.vocab
    beam = dict(decode="beam", beam_width=width, max_len=max_len)
    # a batch gives every source the hypothesis it gets alone
    batched = translate_corpus(ckpt, sources, **beam)
    assert batched == [translate_corpus(ckpt, [text], **beam)[0] for text in sources]
    # width 1 is greedy: the plain argmax loop over the same padded batch
    encoded = [_encode_source(vocab, text, max_len) for text in sources]
    src = np.full((len(encoded), max(map(len, encoded))), vocab.pad_id, dtype=np.int64)
    for row, ids in enumerate(encoded):
        src[row, : len(ids)] = ids
    greedy = greedy_reference(model, src, vocab, max_len)
    assert beam_search(model, src, vocab, max_len, 1) == greedy
    assert translate_corpus(ckpt, sources, max_len=max_len) == [vocab.decode(g) for g in greedy]


def random_wide_checkpoint(model_dim):
    """An untrained model at model_dim over a 32-token vocabulary, and 60
    copy-task sources. OpenBLAS gives a GEMM row the same bits at any row
    count where the output width is a multiple of 8, so at d=32 and d=128
    with V=32 a hypothesis does not depend on the batch it is decoded in."""
    pairs = make_copy_task(60, seed=4, vocab_size=25, min_len=2, max_len=9)
    vocab = vocab_from_pairs(pairs)
    assert len(vocab) == 32
    config = ModelConfig(
        layers=1, heads=2, model_dim=model_dim, ff_dim=2 * model_dim, dropout=0.0,
        max_len=10, max_steps=1, validation_interval=1, seed=model_dim,
    )
    from tagmt.mt.model import Transformer

    model = Transformer(config, len(vocab), rng=np.random.default_rng(model_dim))
    return Checkpoint(config=config, params=model.params, vocab=vocab), [src for src, _ in pairs]


@pytest.mark.parametrize("model_dim", [32, 128])
@pytest.mark.parametrize("decode", ["greedy", "beam"])
def test_forked_decode_equals_in_place(monkeypatch, model_dim, decode):
    ckpt, sources = random_wide_checkpoint(model_dim)
    monkeypatch.setattr(decode_module, "FORK_MIN_WORK", 0)
    for n in (2, 3, 35, 36):  # beam width 4 decodes 16 sources a batch: 35 and 36 take two a half
        with monkeypatch.context() as patch:
            forks = counting_forks(patch, 1, 1)
            in_place = translate_corpus(ckpt, sources[:n], decode=decode, beam_width=4)
            assert not forks
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            forked = translate_corpus(ckpt, sources[:n], decode=decode, beam_width=4)
            assert len(forks) == 1
        assert forked == in_place, n


@pytest.mark.parametrize(
    "n, decode, max_len, forks",
    [
        (3, "beam", None, 0),  # 3 x 2 x 12 = 72 row-positions
        (4, "beam", None, 1),  # 4 x 2 x 12 = 96
        (4, "beam", 6, 0),  # the max_len asked for counts
        (4, "beam", 100, 1),  # capped at the checkpoint's 12
        (8, "greedy", None, 1),  # 8 x 1 x 12 = 96
        (1, "beam", None, 0),  # one source is never split, whatever its work
    ],
)
def test_decode_forks_from_fork_min_work(monkeypatch, n, decode, max_len, forks):
    calls = counting_forks(monkeypatch, 2, 1)
    monkeypatch.setattr(decode_module, "FORK_MIN_WORK", 96)
    width = 2 if n > 1 else 8
    translate_corpus(random_checkpoint(0), ["aa bb"] * n, decode=decode, beam_width=width, max_len=max_len)
    assert len(calls) == forks


@pytest.mark.parametrize(
    "kwargs",
    [dict(decode="sampling"), dict(decode="beam", beam_width=0), dict(max_len=1)],
    ids=["mode", "width", "max-len"],
)
def test_bad_decode_arguments_raise_before_forking(monkeypatch, kwargs):
    forks = counting_forks(monkeypatch, 2, 1)
    monkeypatch.setattr(decode_module, "FORK_MIN_WORK", 0)
    with pytest.raises(ConfigError):
        translate_corpus(random_checkpoint(0), ["aa bb"] * 4, **kwargs)
    assert not forks


def test_decode_inside_alongside_does_not_fork(monkeypatch):
    ckpt, sources = random_wide_checkpoint(32)
    forks = counting_forks(monkeypatch, 2, 1)
    monkeypatch.setattr(decode_module, "FORK_MIN_WORK", 0)
    want = translate_corpus(ckpt, sources)
    assert len(forks) == 1

    def in_child():
        # the child's copy of forks holds the parent's two calls; a fork here would add one
        return translate_corpus(ckpt, sources), len(forks)

    with forking.alongside(in_child) as child:
        here = translate_corpus(ckpt, sources)  # while the child runs
    assert len(forks) == 2
    assert child.value == (want, 2)
    assert here == want
