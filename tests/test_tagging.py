import os
import random
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagmt.corpus import parse_vg_corpus
from tagmt.errors import ConfigError, DataError, MalformedLine, SeparatorCollision, UnknownImage
from tagmt.tagging import (
    load_tag_vocabulary,
    make_detector,
    parse_tagged,
    read_detections_file,
    render_tagged,
    select_tags,
    stub_detections,
    tag_corpus,
    write_detections_file,
)

COCO = load_tag_vocabulary()


def brute_force_select(detections, k):
    """Independent oracle: dedup by max confidence, sort, slice."""
    best = {}
    for label, confidence in detections:
        best[label] = max(best.get(label, -1.0), confidence)
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def best_confidence(detections):
    """Each label's maximum confidence."""
    return dict(sorted(detections, key=lambda det: det[1]))


# -- selection ----------------------------------------------------------------


def test_select_top_10_of_12_distinct():
    dets = [(f"l{i:02d}", 0.05 + 0.07 * i) for i in range(12)]
    random.Random(1).shuffle(dets)
    labels = select_tags(dets, k=10)
    assert len(labels) == 10
    assert labels == [f"l{11 - i:02d}" for i in range(10)]
    confs = [best_confidence(dets)[label] for label in labels]
    assert confs == sorted(confs, reverse=True)


def test_select_keeps_all_when_fewer_than_k():
    dets = [("a", 0.3), ("b", 0.9), ("c", 0.5), ("d", 0.1)]
    assert select_tags(dets, k=10) == ["b", "c", "a", "d"]


def test_select_empty():
    assert select_tags([], k=10) == []


def test_select_dedup_and_tie_break():
    dets = [("dog", 0.8), ("dog", 0.6), ("cat", 0.8)]
    labels = select_tags(dets, k=10)
    assert [(label, best_confidence(dets)[label]) for label in labels] == [("cat", 0.8), ("dog", 0.8)]


def test_select_matches_brute_force_oracle():
    rng = random.Random(42)
    labels = [f"t{i}" for i in range(15)]
    for _ in range(500):
        dets = [(rng.choice(labels), round(rng.random(), 3)) for _ in range(rng.randint(0, 25))]
        k = rng.randint(1, 12)
        got = [(label, best_confidence(dets)[label]) for label in select_tags(dets, k=k)]
        assert got == brute_force_select(dets, k)


def test_select_idempotent():
    rng = random.Random(5)
    for _ in range(50):
        dets = [(f"x{rng.randint(0, 8)}", rng.random()) for _ in range(15)]
        once = select_tags(dets, k=6)
        twice = select_tags([(label, best_confidence(dets)[label]) for label in once], k=6)
        assert twice == once


def test_select_rejects_bad_confidence():
    with pytest.raises(DataError, match=r"^confidence 1\.5 outside \[0, 1\]$"):
        select_tags([("a", 1.5)])
    with pytest.raises(DataError, match=r"^confidence -0\.1 outside \[0, 1\]$"):
        select_tags([("a", -0.1)])


def test_select_rejects_bad_k():
    with pytest.raises(ConfigError):
        select_tags([], k=0)


# -- separator protocol -------------------------------------------------------


def test_render_with_tags():
    assert (
        render_tagged("a man riding a horse", ["person", "horse"])
        == "a man riding a horse ## person,horse"
    )


def test_render_empty_tags():
    assert render_tagged("a man", []) == "a man"


def test_render_separator_collision():
    with pytest.raises(SeparatorCollision):
        render_tagged("x ## y", ["dog"])


def test_render_allows_hash_inside_words():
    assert render_tagged("c## and ##x", ["dog"]) == "c## and ##x ## dog"


def test_render_rejects_tabs():
    with pytest.raises(DataError):
        render_tagged("a\tb", ["dog"])


def test_parse_tagged_inverse():
    assert parse_tagged("a man riding a horse ## person,horse") == (
        "a man riding a horse",
        ["person", "horse"],
    )


def test_parse_tagged_no_separator():
    assert parse_tagged("a man") == ("a man", [])


def test_parse_tagged_last_separator_rule():
    rendered = "a ## b ## cat"
    assert parse_tagged(rendered) == ("a ## b", ["cat"])
    # enumeration oracle: labels may never contain the separator token, so of
    # all candidate split points only the last yields a legal label side
    tokens = rendered.split()
    legal = []
    for i, tok in enumerate(tokens):
        if tok == "##" and "##" not in tokens[i + 1 :]:
            legal.append((" ".join(tokens[:i]), " ".join(tokens[i + 1 :]).split(",")))
    assert legal == [("a ## b", ["cat"])]


def test_render_parse_round_trip_random():
    rng = random.Random(7)
    words = ["a", "man", "dog##", "x", "##y", "नदी", "red"]
    labels = ["person", "dog", "traffic light", "bench"]
    for _ in range(1000):
        text = " ".join(rng.choices(words, k=rng.randint(1, 8)))
        tags = rng.sample(labels, k=rng.randint(0, len(labels)))
        rendered = render_tagged(text, tags)
        assert parse_tagged(rendered) == (text, tags)


# -- detectors ----------------------------------------------------------------


def test_stub_detector_deterministic():
    a = make_detector(COCO, seed=3)
    b = make_detector(list(COCO), seed=3)
    for image_id in ("42", "za", ""):
        assert a(image_id) == b(image_id) == stub_detections(image_id, COCO, 3)
        assert a(image_id) == a(image_id)
    assert make_detector(COCO, seed=4)("42") != a("42")
    # the sha256 of "<seed>:<image_id>" picks the labels and confidences
    assert a("42") == [("surfboard", 0.9333333333333333), ("chair", 0.5725490196078431)]


def test_stub_detector_ranges():
    vocab = set(COCO)
    sizes = set()
    for i in range(200):
        dets = stub_detections(f"img{i}", COCO, 0)
        sizes.add(len(dets))
        for label, confidence in dets:
            assert 0.0 <= confidence <= 1.0
            assert label in vocab
    assert min(sizes) >= 0 and max(sizes) <= 12
    assert len(sizes) > 3


def test_file_detector_reads_and_errors(tmp_path):
    path = tmp_path / "det.tsv"
    write_detections_file(
        {
            "42": [("person", 0.95), ("dog", 0.9)],
            "43": [("traffic light", 0.5)],
            "44": [],
        },
        path,
    )
    det = make_detector(COCO, detections=path)
    assert det("42") == [("person", 0.95), ("dog", 0.9)]
    assert det("43") == [("traffic light", 0.5)]
    assert det("44") == []
    assert det("45") is None


def test_file_detector_rejects_unknown_label(tmp_path):
    path = tmp_path / "det.tsv"
    path.write_text("42\tnotalabel 0.5\n", encoding="utf-8")
    with pytest.raises(MalformedLine, match=r"^line 1: label 'notalabel' is not in the tag vocabulary$"):
        read_detections_file(path, COCO)


def test_file_detector_malformed(tmp_path):
    path = tmp_path / "det.tsv"
    path.write_text("42\tperson zero\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        read_detections_file(path, COCO)


@given(
    st.dictionaries(
        st.text("abcxyz0123_-.", min_size=1, max_size=8),
        st.lists(st.tuples(st.sampled_from(COCO), st.integers(0, 10_000).map(lambda n: n / 10_000)),
                 max_size=5),
        max_size=6,
    )
)
def test_read_detections_file_inverts_write(by_image):
    """Labels of the vocabulary, multi-word ones included, and confidences
    of four decimals survive a write and a read."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "det.tsv")
        write_detections_file(by_image, path)
        assert read_detections_file(path, COCO) == by_image


# -- tag_corpus ---------------------------------------------------------------


def test_tag_corpus_preserves_order_and_targets():
    lines = [f"im{i}\t1\t1\t4\t4\tsrc {i}\ttgt {i}" for i in range(3)]
    corpus = parse_vg_corpus(lines)
    pairs = tag_corpus(corpus, make_detector(COCO, seed=1), k=5)
    assert len(pairs) == 3
    for i, (source, target) in enumerate(pairs):
        text, labels = parse_tagged(source)
        assert text == f"src {i}"
        assert target == f"tgt {i}"
        assert len(labels) <= 5


def test_tag_corpus_empty_image_id():
    assert tag_corpus([("", "a cat", "eine katze")], make_detector(COCO, seed=1)) == [("a cat", "eine katze")]


def test_tag_corpus_empty_corpus():
    assert tag_corpus([], make_detector(COCO, seed=1)) == []


def test_tag_corpus_attaches_record_index(tmp_path):
    path = tmp_path / "det.tsv"
    write_detections_file({"known": [("dog", 0.9)]}, path)
    det = make_detector(COCO, detections=path)
    corpus = parse_vg_corpus(
        ["known\t1\t1\t2\t2\ta\tb", "missing\t1\t1\t2\t2\tc\td"]
    )
    with pytest.raises(UnknownImage) as err:
        tag_corpus(corpus, det)
    assert err.value.record_index == 1
    assert "missing" in str(err.value)


def test_tag_corpus_detects_each_image_once_in_first_seen_order():
    lines = [f"{image}\t1\t1\t2\t2\tsrc {i}\ttgt {i}" for i, image in enumerate("bab")]
    corpus = parse_vg_corpus(lines + ["\t1\t1\t2\t2\tno image\tkein bild"])
    stub = make_detector(COCO, seed=1)
    detected = []

    def detector(image_id):
        detected.append(image_id)
        return stub(image_id)

    pairs = tag_corpus(corpus, detector, k=3)
    assert detected == ["b", "a"]
    assert pairs[-1] == ("no image", "kein bild")
    for (image_id, source, target), pair in zip(corpus, pairs):
        if image_id:
            assert pair == (render_tagged(source, select_tags(stub(image_id), k=3)), target)


def test_tag_corpus_first_bad_record_in_row_order_wins(tmp_path):
    path = tmp_path / "det.tsv"
    write_detections_file({"known": [("dog", 0.9)]}, path)
    corpus = parse_vg_corpus(["known\t1\t1\t2\t2\ta ## b\tc", "missing\t1\t1\t2\t2\td\te"])
    with pytest.raises(SeparatorCollision, match="record 0: a ## b"):
        tag_corpus(corpus, make_detector(COCO, detections=path))


# -- vocabulary ---------------------------------------------------------------


def test_default_vocabulary_is_coco80():
    labels = load_tag_vocabulary()
    assert len(labels) == 80
    assert "person" in labels and "toothbrush" in labels
    assert len(set(labels)) == 80


def test_custom_vocabulary(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("alpha\nbeta\n\n# comment\ngamma ray\n", encoding="utf-8")
    assert load_tag_vocabulary(path) == ["alpha", "beta", "gamma ray"]


def test_vocabulary_rejects_reserved_chars(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        load_tag_vocabulary(path)


def test_tagset_invariants_from_select():
    labels = select_tags([("b", 0.5), ("a", 0.5), ("b", 0.2)], k=10)
    assert labels == ["a", "b"]
    assert len(set(labels)) == len(labels)
