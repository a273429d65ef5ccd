#!/usr/bin/env python3
"""Regenerate the bundled fixture data deterministically.

fixtures/toy.cfg is written by hand; this script makes the data files that
config names, the copy task and the published WAT2022 score tables.

Run from the repository root:  python3 scripts/make_fixtures.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tagmt.corpus import write_pairs_tsv, write_vg_corpus
from tagmt.fileio import write_lines
from tagmt.tagging import write_detections_file
from tagmt.toy import (
    TAG_LABELS,
    examples_to_detections,
    examples_to_vg,
    make_copy_task,
    make_disambiguation_examples,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

WAT2022_TEXT_ONLY = [
    ("EN-HI E-Test", "36.2"),
    ("EN-HI C-Test", "29.6"),
    ("EN-ML E-Test", "30.8"),
    ("EN-ML C-Test", "14.6"),
    ("EN-BN E-Test", "41"),
    ("EN-BN C-Test", "22.6"),
]
WAT2022_MULTIMODAL = [
    ("EN-HI E-Test", "42"),
    ("EN-HI C-Test", "39.1"),
    ("EN-ML E-Test", "41"),
    ("EN-ML C-Test", "20.4"),
    ("EN-BN E-Test", "42.1"),
    ("EN-BN C-Test", "28.7"),
]


def main():
    copy_dir = os.path.join(FIXTURES, "copy_task")
    pairs = make_copy_task(1300, seed=7)
    write_pairs_tsv(pairs[:1000], os.path.join(copy_dir, "train.tsv"))
    write_pairs_tsv(pairs[1000:1100], os.path.join(copy_dir, "valid.tsv"))
    write_pairs_tsv(pairs[1100:1300], os.path.join(copy_dir, "test.tsv"))
    print(f"copy task: 1000/100/200 pairs in {copy_dir}")

    dis_dir = os.path.join(FIXTURES, "disambig")
    train = make_disambiguation_examples(200, seed=11, id_start=0)
    valid = make_disambiguation_examples(50, seed=12, id_start=10_000)
    test = make_disambiguation_examples(100, seed=14, id_start=20_000)
    extra = make_disambiguation_examples(100, seed=15, id_start=30_000)
    write_vg_corpus(examples_to_vg(train), os.path.join(dis_dir, "train.tsv"))
    write_vg_corpus(examples_to_vg(valid), os.path.join(dis_dir, "valid.tsv"))
    write_vg_corpus(examples_to_vg(test), os.path.join(dis_dir, "test.tsv"))
    detections = {}
    for examples in (train, valid, test):
        detections.update(examples_to_detections(examples))
    write_detections_file(detections, os.path.join(dis_dir, "detections.tsv"))
    write_lines(TAG_LABELS, os.path.join(dis_dir, "tag_vocab.txt"))
    write_lines((ex.source for ex in extra), os.path.join(dis_dir, "extra.src"))
    write_lines((ex.target for ex in extra), os.path.join(dis_dir, "extra.tgt"))
    print(f"disambiguation world: 200/50/100 VG records + 100 bitext lines in {dis_dir}")

    write_pairs_tsv(WAT2022_TEXT_ONLY, os.path.join(FIXTURES, "wat2022_text_only.tsv"))
    write_pairs_tsv(WAT2022_MULTIMODAL, os.path.join(FIXTURES, "wat2022_multimodal.tsv"))
    print(f"published scores in {FIXTURES}")


if __name__ == "__main__":
    main()
