import math
import random

import pytest

from tagmt.errors import ConfigError, EmptyCorpus, LengthMismatch
from tagmt.evaluation import bleu_from_texts, corpus_bleu


def oracle_bleu(hyps, refs, max_order=4, smooth="none"):
    """Independent brute-force BLEU: list scans, no shared code with the
    implementation under test. Written first; its values are frozen below."""
    match = [0] * max_order
    total = [0] * max_order
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    for h, r in zip(hyps, refs):
        for n in range(1, max_order + 1):
            grams = [tuple(h[i : i + n]) for i in range(len(h) - n + 1)]
            rgrams = [tuple(r[i : i + n]) for i in range(len(r) - n + 1)]
            total[n - 1] += len(grams)
            for g in set(grams):
                match[n - 1] += min(grams.count(g), rgrams.count(g))
    ps = []
    for n in range(max_order):
        m, t = match[n], total[n]
        if smooth == "add1" and n >= 1:
            m, t = m + 1, t + 1
        ps.append(m / t if t else 0.0)
    bp = 1.0 if hyp_len >= ref_len or hyp_len == 0 else math.exp(1 - ref_len / hyp_len)
    if any(p == 0 for p in ps):
        return 0.0
    return 100.0 * bp * math.exp(sum(math.log(p) for p in ps) / max_order)


def random_corpus(rng, max_sentences=8, vocab=10, max_len=12):
    n = rng.randint(1, max_sentences)
    hyps, refs = [], []
    for _ in range(n):
        hyps.append([f"w{rng.randint(0, vocab - 1)}" for _ in range(rng.randint(0, max_len))])
        refs.append([f"w{rng.randint(0, vocab - 1)}" for _ in range(rng.randint(1, max_len))])
    return hyps, refs


def test_identity_scores_100():
    hyps = [["a", "b", "c", "d"], ["x", "y", "z", "w", "v"]]
    score = corpus_bleu(hyps, [list(h) for h in hyps])
    assert score.score == 100.0
    assert score.brevity_penalty == 1.0
    assert score.ngram_precisions == (1.0, 1.0, 1.0, 1.0)


def test_zero_overlap_scores_zero():
    score = corpus_bleu([["a", "b", "c", "d", "e"]], [["v", "w", "x", "y", "z"]])
    assert score.score == 0.0


def test_short_hypothesis_derived_case():
    # hyp "the cat sat" vs ref "the cat sat down": no 4-grams exist in the
    # hypothesis, so the unsmoothed score is 0; add-one smoothing rescues the
    # higher orders. Values frozen from the oracle above.
    hyp = [["the", "cat", "sat"]]
    ref = [["the", "cat", "sat", "down"]]
    plain = corpus_bleu(hyp, ref)
    assert plain.score == oracle_bleu(hyp, ref) == 0.0
    assert plain.ngram_precisions == (1.0, 1.0, 1.0, 0.0)
    assert math.isclose(plain.brevity_penalty, 0.7165313105737893, rel_tol=1e-12)
    smoothed = corpus_bleu(hyp, ref, smooth="add1")
    assert math.isclose(smoothed.score, oracle_bleu(hyp, ref, smooth="add1"), rel_tol=1e-9)
    assert math.isclose(smoothed.score, 71.65313105737893, rel_tol=1e-9)


def test_longer_derived_case():
    hyp = [["the", "cat", "sat", "on", "mat"]]
    ref = [["the", "cat", "sat", "on", "the", "mat"]]
    score = corpus_bleu(hyp, ref)
    assert math.isclose(score.score, oracle_bleu(hyp, ref), rel_tol=1e-9)
    assert math.isclose(score.score, 57.89300674674097, rel_tol=1e-9)
    assert score.ngram_precisions == (1.0, 0.75, 2 / 3, 0.5)
    assert math.isclose(score.brevity_penalty, 0.8187307530779819, rel_tol=1e-12)
    assert (score.hyp_length, score.ref_length) == (5, 6)


@pytest.mark.parametrize("smooth", ["none", "add1"])
def test_matches_oracle_on_random_corpora(smooth):
    rng = random.Random(2024)
    for _ in range(60):
        hyps, refs = random_corpus(rng)
        got = corpus_bleu(hyps, refs, smooth=smooth).score
        want = oracle_bleu(hyps, refs, smooth=smooth)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6)


def test_permutation_invariance():
    rng = random.Random(5)
    hyps, refs = random_corpus(rng, max_sentences=6)
    base = corpus_bleu(hyps, refs).score
    order = list(range(len(hyps)))
    for _ in range(5):
        rng.shuffle(order)
        score = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order]).score
        assert math.isclose(score, base, rel_tol=1e-12)


def test_score_bounds_and_perfect_iff_equal():
    rng = random.Random(9)
    for _ in range(100):
        hyps, refs = random_corpus(rng)
        score = corpus_bleu(hyps, refs).score
        assert 0.0 <= score <= 100.0
        if score == 100.0:
            assert hyps == refs


def test_errors():
    with pytest.raises(LengthMismatch):
        corpus_bleu([["a"]], [])
    with pytest.raises(EmptyCorpus):
        corpus_bleu([], [])
    with pytest.raises(ConfigError):
        corpus_bleu([["a"]], [["a"]], smooth="bad")


def test_empty_hypothesis_is_total():
    score = corpus_bleu([[]], [["a", "b"]])
    assert score.score == 0.0
    assert score.hyp_length == 0


def test_bleu_from_texts_whitespace():
    score = bleu_from_texts(["a b c d"], ["a b c d"])
    assert score.score == 100.0
