"""Helpers over the toy disambiguation world that only the tests use."""

from tagmt.tagging import render_tagged
from tagmt.toy import SENSE_ANIMAL, SENSE_CLUB, SENSE_TARGET


def examples_to_tagged(examples):
    return [(render_tagged(ex.source, ex.tags), ex.target) for ex in examples]


def examples_to_text_pairs(examples):
    return [(ex.source, ex.target) for ex in examples]


def ambiguous_accuracy(examples, hypotheses):
    """Fraction of ambiguous examples whose hypothesis contains the correct
    sense translation and not the wrong one."""
    total = 0
    correct = 0
    for ex, hyp in zip(examples, hypotheses):
        if ex.sense is None:
            continue
        total += 1
        want = SENSE_TARGET[ex.sense]
        other = SENSE_TARGET[SENSE_CLUB if ex.sense == SENSE_ANIMAL else SENSE_ANIMAL]
        words = hyp.split()
        if want in words and other not in words:
            correct += 1
    if total == 0:
        raise ValueError("no ambiguous examples to score")
    return correct / total
