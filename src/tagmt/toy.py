"""Deterministic toy corpora for tests, benchmarks and bundled fixtures.

Two generators live here:

* a copy task (target equals source) for smoke-testing the trainer, and
* a disambiguation world: cipher translation (each word maps to its
  uppercase form) with one ambiguous noun, "bat", whose correct translation
  (BATWING vs BATCLUB) is decided only by the image tags, never by the
  sentence. Tags follow a fixed rule, so the rule itself doubles as the
  oracle for the tag synthesizer.
"""

from dataclasses import dataclass

import numpy as np

OBJECT_WORDS = ("dog", "cat", "horse", "car", "bench", "tree", "ball", "bird", "boat", "chair")
PERSON_WORDS = ("man", "woman", "boy", "girl")
VERBS = ("sees", "chases", "carries", "watches", "holds")
ADJECTIVES = ("big", "small", "red", "blue", "old", "young")

AMBIGUOUS_WORD = "bat"
SENSE_ANIMAL = "animal"
SENSE_CLUB = "club"
SENSE_TARGET = {SENSE_ANIMAL: "BATWING", SENSE_CLUB: "BATCLUB"}
SENSE_TAG = {SENSE_ANIMAL: "winged_animal", SENSE_CLUB: "sports_gear"}

TAG_LABELS = tuple(sorted(OBJECT_WORDS + ("person",) + tuple(SENSE_TAG.values())))
# fixed per-label confidences make top-k selection order a global label priority
TAG_CONFIDENCE = {label: round(0.95 - 0.015 * i, 4) for i, label in enumerate(TAG_LABELS)}


@dataclass(frozen=True)
class ToyExample:
    source: str
    target: str
    tags: tuple[str, ...]
    image_id: str
    sense: str | None = None


def word_tag(word):
    if word in OBJECT_WORDS:
        return word
    if word in PERSON_WORDS:
        return "person"
    return None


def true_tags(source, target):
    """The tag rule: object/person tags for nouns in the source, plus the
    sense tag read off the target side for the ambiguous word. Returned in
    confidence order (the selection order a detector run would produce)."""
    labels = set()
    source_words = source.split()
    for word in source_words:
        tag = word_tag(word)
        if tag is not None:
            labels.add(tag)
    if AMBIGUOUS_WORD in source_words:
        target_words = target.split()
        if SENSE_TARGET[SENSE_ANIMAL] in target_words:
            labels.add(SENSE_TAG[SENSE_ANIMAL])
        elif SENSE_TARGET[SENSE_CLUB] in target_words:
            labels.add(SENSE_TAG[SENSE_CLUB])
    return tuple(sorted(labels, key=lambda l: (-TAG_CONFIDENCE[l], l)))


def _translate_word(word, sense):
    if word == AMBIGUOUS_WORD:
        return SENSE_TARGET[sense]
    return word.upper()


def make_disambiguation_examples(
    n,
    seed=13,
    nouns=None,
    id_prefix="img",
    id_start=0,
):
    """Generate n examples, half of them ambiguous in expectation; senses of
    ambiguous sentences alternate exactly.

    ``nouns`` restricts the unambiguous noun pool (useful for building a
    corpus with deliberate coverage gaps); the default pool is all object
    and person words.
    """
    rng = np.random.default_rng(seed)
    pool = tuple(nouns) if nouns is not None else OBJECT_WORDS + PERSON_WORDS
    examples = []
    sense_counter = 0
    for i in range(n):
        template = int(rng.integers(0, 4))
        slots = (2, 2, 2, 3)[template]
        chosen = list(rng.choice(len(pool), size=slots, replace=False))
        words = [pool[j] for j in chosen]
        sense = None
        if rng.random() < 0.5:
            sense = SENSE_ANIMAL if sense_counter % 2 == 0 else SENSE_CLUB
            sense_counter += 1
            words[int(rng.integers(0, slots))] = AMBIGUOUS_WORD
        if template == 0:
            verb = VERBS[int(rng.integers(0, len(VERBS)))]
            src = f"the {words[0]} {verb} the {words[1]}"
        elif template == 1:
            verb = VERBS[int(rng.integers(0, len(VERBS)))]
            adj = ADJECTIVES[int(rng.integers(0, len(ADJECTIVES)))]
            src = f"a {adj} {words[0]} {verb} a {words[1]}"
        elif template == 2:
            src = f"the {words[0]} is near the {words[1]}"
        else:
            src = f"a {words[0]} and a {words[1]} are by the {words[2]}"
        tgt = " ".join(_translate_word(w, sense) for w in src.split())
        image_id = f"{id_prefix}{id_start + i:05d}"
        examples.append(
            ToyExample(
                source=src,
                target=tgt,
                tags=true_tags(src, tgt),
                image_id=image_id,
                sense=sense,
            )
        )
    return examples


def examples_to_vg(examples, split_label=None):
    """The seven-field VG rows `corpus.write_vg_corpus` writes, one per
    example, each with its own made-up region. ``split_label`` is unused;
    ``perf/workloads.py`` still passes it."""
    return [
        (ex.image_id, 10 + i % 37, 5 + i % 23, 64, 48, ex.source, ex.target)
        for i, ex in enumerate(examples)
    ]


def examples_to_detections(examples):
    """image_id -> detector output, ``(label, confidence)`` pairs, implementing
    the tag rule."""
    by_image = {}
    for ex in examples:
        by_image[ex.image_id] = [(label, TAG_CONFIDENCE[label]) for label in ex.tags]
    return by_image


def make_copy_task(n, seed=7, vocab_size=30, min_len=3, max_len=8):
    """Random token sequences with target == source."""
    rng = np.random.default_rng(seed)
    tokens = [f"t{i:02d}" for i in range(vocab_size)]
    pairs = []
    for _ in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        seq = " ".join(tokens[int(j)] for j in rng.integers(0, vocab_size, size=length))
        pairs.append((seq, seq))
    return pairs
