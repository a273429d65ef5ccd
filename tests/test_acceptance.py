"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with:  pytest tests/test_acceptance.py -v -s
The two experiment criteria train several small models; the whole module
stays well inside its stated runtime budgets on a 2-core CPU box.
"""

import glob
import math
import os
import random
import time

import pytest

from conftest import fixture_path
from tagmt.corpus import parse_bitext, parse_vg_corpus, read_pairs_tsv
from tagmt.evaluation import bleu_from_texts, corpus_bleu, read_scores_tsv, report_delta
from tagmt.fileio import read_lines
from tagmt.mt.decode import translate_corpus
from tagmt.mt.model import ModelConfig
from tagmt.mt.train import train
from tagmt.synth import build_synth_pairs, enrich_corpus, train_synthesizer
from tagmt.tagging import parse_tagged, render_tagged, select_tags
from tagmt.toy import (
    OBJECT_WORDS,
    PERSON_WORDS,
    TAG_LABELS,
    make_disambiguation_examples,
    true_tags,
)
from toy_helpers import ambiguous_accuracy, examples_to_tagged, examples_to_text_pairs

pytestmark = pytest.mark.acceptance

EXPERIMENT_CONFIG = ModelConfig(
    layers=2,
    heads=4,
    model_dim=64,
    ff_dim=128,
    dropout=0.0,
    label_smoothing=0.1,
    max_steps=700,
    validation_interval=100,
    learning_rate=3e-3,
    warmup_steps=50,
    batch_size=32,
    max_len=48,
    seed=11,
)


class budget:
    """Assert the block finishes inside its runtime budget and report."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, (
            f"{self.name}: {elapsed:.1f}s exceeded the {self.seconds}s budget"
        )
        print(f"ACCEPTANCE PASS [{self.name}] ({elapsed:.1f}s / {self.seconds}s)")
        return False


GOLDEN_RENDER_CASES = [
    ("a man riding a horse", ["person", "horse"], "a man riding a horse ## person,horse"),
    ("a man", [], "a man"),
    ("a dog", ["dog"], "a dog ## dog"),
    ("two cats sleep", ["cat", "couch"], "two cats sleep ## cat,couch"),
    ("traffic on the road", ["traffic light", "car"], "traffic on the road ## traffic light,car"),
    ("एक आदमी घोड़े पर", ["person", "horse"], "एक आदमी घोड़े पर ## person,horse"),
    ("snack time", ["hot dog"], "snack time ## hot dog"),
    ("c## glued", ["dog"], "c## glued ## dog"),
    ("ends with ##x", ["cat"], "ends with ##x ## cat"),
    ("a, b and c", ["apple"], "a, b and c ## apple"),
    ("ten tags here", list("abcdefghij"), "ten tags here ## a,b,c,d,e,f,g,h,i,j"),
    ("punctuation!", ["stop sign"], "punctuation! ## stop sign"),
    ("x", ["bench"], "x ## bench"),
    ("kite high above", ["kite", "person", "bird"], "kite high above ## kite,person,bird"),
    ("empty again", [], "empty again"),
    ("long    spaces", ["tv"], "long    spaces ## tv"),
    ("numbers 1 2 3", ["clock"], "numbers 1 2 3 ## clock"),
    ("mixed केस words", ["book"], "mixed केस words ## book"),
    ("one two three four five six", ["car", "bus"], "one two three four five six ## car,bus"),
    ("teddy time", ["teddy bear", "bed"], "teddy time ## teddy bear,bed"),
]


def test_criterion_1_protocol_exactness():
    with budget("1 protocol exactness", 5):
        for text, labels, want in GOLDEN_RENDER_CASES:
            rendered = render_tagged(text, labels)
            assert rendered == want
            assert parse_tagged(rendered) == (text, labels)
        rng = random.Random(101)
        words = ["a", "man", "dog", "नदी", "x#", "#y", "cat,", "red", "12"]
        labels_pool = ["person", "dog", "cat", "traffic light", "bench", "kite", "tv"]
        failures = 0
        for _ in range(10_000):
            text = " ".join(rng.choices(words, k=rng.randint(1, 9)))
            tags = rng.sample(labels_pool, k=rng.randint(0, 7))
            rendered = render_tagged(text, tags)
            if tags:
                assert rendered == f"{text} ## " + ",".join(tags)
            else:
                assert rendered == text
            if parse_tagged(rendered) != (text, tags):
                failures += 1
        assert failures == 0


def test_criterion_2_selection_oracle():
    def oracle(detections, k):
        best = {}
        for label, confidence in detections:
            best[label] = max(best.get(label, -1.0), confidence)
        return [label for label, _ in sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:k]]

    with budget("2 selection oracle", 5):
        rng = random.Random(202)
        labels = [f"lab{i}" for i in range(18)]
        sub_10_seen = 0
        for _ in range(10_000):
            n = rng.randint(0, 24)
            detections = [(rng.choice(labels), round(rng.random(), 3)) for _ in range(n)]
            k = rng.choice([1, 3, 10, 10, 10, 12])
            got = select_tags(detections, k=k)
            want = oracle(detections, k)
            assert got == want
            if k == 10 and len({label for label, _ in detections}) < 10:
                sub_10_seen += 1
                assert len(got) == len({label for label, _ in detections})
        assert sub_10_seen > 100


def test_criterion_3_bleu_oracle_equivalence():
    from test_bleu import oracle_bleu, random_corpus

    with budget("3 BLEU oracle equivalence", 10):
        rng = random.Random(303)
        for _ in range(200):
            hyps, refs = random_corpus(rng, max_sentences=8, vocab=10, max_len=12)
            got = corpus_bleu(hyps, refs).score
            want = oracle_bleu(hyps, refs)
            assert math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-6)
        identical = [["a", "b", "c", "d"], ["q", "r", "s", "t", "u"]]
        assert corpus_bleu(identical, [list(h) for h in identical]).score == 100.0
        assert corpus_bleu([["a", "b", "c", "d"]], [["w", "x", "y", "z"]]).score == 0.0


def test_criterion_4_gradient_check():
    from test_model import micro_batch, micro_model, relative_gradient_errors

    with budget("4 gradient check", 60):
        errors = relative_gradient_errors(micro_model(), micro_batch(), n_coords=60)
        assert len(errors) >= 50
        assert max(errors) < 1e-3


def test_criterion_5_copy_task_end_to_end():
    config = EXPERIMENT_CONFIG.override(max_len=16, seed=3)
    train_pairs = read_pairs_tsv(fixture_path("copy_task", "train.tsv"))
    valid_pairs = read_pairs_tsv(fixture_path("copy_task", "valid.tsv"))
    test_pairs = read_pairs_tsv(fixture_path("copy_task", "test.tsv"))
    assert len(train_pairs) == 1000
    with budget("5 copy-task training", 600):
        first = train(config, train_pairs, valid_pairs)
        second = train(config, train_pairs, valid_pairs)
        assert (
            first.training_meta["train_loss_trace"]
            == second.training_meta["train_loss_trace"]
        ), "same seed must reproduce the loss trace bitwise"
        assert first.training_meta["val_loss_trace"] == second.training_meta["val_loss_trace"]
        hyps = translate_corpus(first, [src for src, _ in test_pairs])
        bleu = bleu_from_texts(hyps, [tgt for _, tgt in test_pairs])
        assert bleu.score >= 90.0, f"held-out copy BLEU {bleu.score:.1f} < 90"


def test_criterion_6_disambiguation_experiment():
    train_ex = make_disambiguation_examples(800, seed=41, id_prefix="tr")
    valid_ex = make_disambiguation_examples(100, seed=42, id_prefix="va")
    test_ex = make_disambiguation_examples(300, seed=43, id_prefix="te")

    with budget("6 disambiguation experiment", 1200):
        text_ckpt = train(
            EXPERIMENT_CONFIG, examples_to_text_pairs(train_ex), examples_to_text_pairs(valid_ex)
        )
        mm_ckpt = train(EXPERIMENT_CONFIG, examples_to_tagged(train_ex), examples_to_tagged(valid_ex))
        text_hyp = translate_corpus(text_ckpt, [e.source for e in test_ex])
        mm_hyp = translate_corpus(mm_ckpt, [s for s, _ in examples_to_tagged(test_ex)])
        references = [e.target for e in test_ex]
        text_acc = ambiguous_accuracy(test_ex, text_hyp)
        mm_acc = ambiguous_accuracy(test_ex, mm_hyp)
        text_bleu = bleu_from_texts(text_hyp, references).score
        mm_bleu = bleu_from_texts(mm_hyp, references).score
        assert text_acc < 0.70, f"text-only system should sit near the 50% ceiling, got {text_acc:.3f}"
        assert (mm_acc - text_acc) >= 0.30, (
            f"ambiguous-token accuracy gap {100 * (mm_acc - text_acc):.1f} pts < 30"
        )
        assert mm_bleu > text_bleu, f"multimodal {mm_bleu:.1f} must beat text-only {text_bleu:.1f}"
        print(
            f"    disambiguation: accuracy {100 * text_acc:.1f}% -> {100 * mm_acc:.1f}%, "
            f"BLEU {text_bleu:.1f} -> {mm_bleu:.1f}"
        )


def test_criterion_7_synthetic_feature_pipeline():
    core_pool = tuple(w for w in OBJECT_WORDS if w not in ("boat", "chair")) + PERSON_WORDS
    natural = make_disambiguation_examples(400, seed=51, nouns=core_pool, id_prefix="na")
    bitext_ex = make_disambiguation_examples(600, seed=52, id_prefix="bi")
    test_ex = make_disambiguation_examples(300, seed=53, id_prefix="ts")
    valid_ex = make_disambiguation_examples(80, seed=54, id_prefix="va")
    held_ex = make_disambiguation_examples(100, seed=55, nouns=core_pool, id_prefix="he")

    with budget("7 synthetic-feature pipeline", 1800):
        synth_ckpt = train_synthesizer(
            build_synth_pairs(examples_to_tagged(natural)),
            EXPERIMENT_CONFIG.override(seed=17),
        )
        fit = synth_ckpt.training_meta["synth_fit"]
        assert fit >= 0.90, f"synthesizer held-out exact match {fit:.3f} < 0.90"

        held_bitext = parse_bitext([e.source for e in held_ex], [e.target for e in held_ex])
        held_enriched = enrich_corpus(held_bitext, synth_ckpt, vocabulary=list(TAG_LABELS))
        recovered = sum(
            set(parse_tagged(source)[1]) == set(true_tags(ex.source, ex.target))
            for (source, _), ex in zip(held_enriched, held_ex)
        )
        assert recovered >= 90, f"held-out tag sets recovered exactly: {recovered}/100 < 90"

        bitext = parse_bitext([e.source for e in bitext_ex], [e.target for e in bitext_ex])
        enriched = enrich_corpus(bitext, synth_ckpt, vocabulary=list(TAG_LABELS))
        assert len(enriched) == len(bitext_ex)

        translator_config = EXPERIMENT_CONFIG.override(seed=19)
        natural_pairs = examples_to_tagged(natural)
        valid_pairs = examples_to_tagged(valid_ex)
        natural_only = train(translator_config, natural_pairs, valid_pairs)
        with_enriched = train(translator_config, natural_pairs + enriched, valid_pairs)
        test_sources = [s for s, _ in examples_to_tagged(test_ex)]
        references = [e.target for e in test_ex]
        bleu_natural = bleu_from_texts(
            translate_corpus(natural_only, test_sources), references
        ).score
        bleu_enriched = bleu_from_texts(
            translate_corpus(with_enriched, test_sources), references
        ).score
        assert bleu_enriched >= bleu_natural, (
            f"natural+enriched {bleu_enriched:.1f} < natural-only {bleu_natural:.1f}"
        )
        print(
            f"    synth fit {fit:.2f}, tag recovery {recovered}/100, "
            f"BLEU natural-only {bleu_natural:.1f} vs +enriched {bleu_enriched:.1f}"
        )


def test_criterion_8_report_fidelity(tmp_path):
    from tagmt.cli import main

    with budget("8 report fidelity", 5):
        out = tmp_path / "report.tsv"
        code = main(
            [
                "eval",
                "report",
                "--text-only",
                fixture_path("wat2022_text_only.tsv"),
                "--multimodal",
                fixture_path("wat2022_multimodal.tsv"),
                "--format",
                "tsv",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        rendered = {}
        for line in read_lines(str(out))[1:]:
            if line.startswith("#"):
                continue
            task, _, _, delta = line.split("\t")
            rendered[task] = delta
        assert rendered["EN-BN E-Test"] == "+1.1"
        assert rendered["EN-ML E-Test"] == "+10.2"
        # exact arithmetic: 20.4 - 14.6 = 5.8; the quoted +5.7 is a rounding
        # artifact and this report intentionally does not reproduce it
        assert rendered["EN-ML C-Test"] == "+5.8"
        assert rendered["EN-ML C-Test"] != "+5.7"
        text = read_scores_tsv(read_lines(fixture_path("wat2022_text_only.tsv")))
        mm = read_scores_tsv(read_lines(fixture_path("wat2022_multimodal.tsv")))
        deltas = [round(r.delta, 1) for r in report_delta(text, mm).rows if r.task.endswith("E-Test")]
        assert min(deltas) == 1.1 and max(deltas) == 10.2


HVG_PATTERNS = {
    "train": ("*train*", 28930),
    "dtest": ("*dev*", 998),
    "etest": ("*test*", 1595),
    "ctest": ("*challenge*", 1400),
}


def _find_hvg_file(directory, split):
    pattern, _ = HVG_PATTERNS[split]
    matches = sorted(glob.glob(os.path.join(directory, pattern)))
    if split == "etest":
        matches = [m for m in matches if "dev" not in m and "challenge" not in m and "train" not in m]
    return matches[0] if matches else None


def test_criterion_9_hvg_sentence_counts():
    directory = os.environ.get("TAGMT_HVG_DIR")
    if not directory or not os.path.isdir(directory):
        pytest.skip("TAGMT_HVG_DIR not set; real HVG data is an optional external download")
    with budget("9 HVG sentence counts", 60):
        for split, (_, expected) in HVG_PATTERNS.items():
            path = _find_hvg_file(directory, split)
            assert path is not None, f"no HVG file for split {split} in {directory}"
            rows = parse_vg_corpus(read_lines(path))
            assert len(rows) == expected, (
                f"{split}: {len(rows)} records, expected {expected}"
            )
