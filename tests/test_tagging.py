import random

import pytest

from tagmt.corpus import parse_bitext, parse_vg_corpus
from tagmt.errors import (
    ConfigError,
    DataError,
    InvalidConfidence,
    MalformedLine,
    SeparatorCollision,
    UnknownImage,
    UnknownLabel,
)
from tagmt.tagging import (
    FileDetector,
    StubDetector,
    TagRecord,
    TagSet,
    load_tag_vocabulary,
    make_detector,
    parse_tagged,
    render_tagged,
    select_corpus_tags,
    select_tags,
    tag_corpus,
    write_detections_file,
)


def brute_force_select(detections, k):
    """Independent oracle: dedup by max confidence, sort, slice."""
    best = {}
    for d in detections:
        best[d.label] = max(best.get(d.label, -1.0), d.confidence)
    ordered = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return [(label, conf) for label, conf in ordered]


# -- selection ----------------------------------------------------------------


def test_select_top_10_of_12_distinct():
    dets = [TagRecord(f"l{i:02d}", 0.05 + 0.07 * i) for i in range(12)]
    random.Random(1).shuffle(dets)
    ts = select_tags(dets, k=10)
    assert len(ts) == 10
    assert ts.labels == [f"l{11 - i:02d}" for i in range(10)]
    confs = [t.confidence for t in ts.tags]
    assert confs == sorted(confs, reverse=True)


def test_select_keeps_all_when_fewer_than_k():
    dets = [TagRecord("a", 0.3), TagRecord("b", 0.9), TagRecord("c", 0.5), TagRecord("d", 0.1)]
    ts = select_tags(dets, k=10)
    assert ts.labels == ["b", "c", "a", "d"]


def test_select_empty():
    assert select_tags([], k=10).labels == []


def test_select_dedup_and_tie_break():
    dets = [TagRecord("dog", 0.8), TagRecord("dog", 0.6), TagRecord("cat", 0.8)]
    ts = select_tags(dets, k=10)
    assert [(t.label, t.confidence) for t in ts.tags] == [("cat", 0.8), ("dog", 0.8)]


def test_select_matches_brute_force_oracle():
    rng = random.Random(42)
    labels = [f"t{i}" for i in range(15)]
    for _ in range(500):
        dets = [
            TagRecord(rng.choice(labels), round(rng.random(), 3))
            for _ in range(rng.randint(0, 25))
        ]
        k = rng.randint(1, 12)
        got = [(t.label, t.confidence) for t in select_tags(dets, k=k).tags]
        assert got == brute_force_select(dets, k)


def test_select_idempotent():
    rng = random.Random(5)
    for _ in range(50):
        dets = [TagRecord(f"x{rng.randint(0, 8)}", rng.random()) for _ in range(15)]
        once = select_tags(dets, k=6)
        twice = select_tags(list(once.tags), k=6)
        assert twice.tags == once.tags


def test_select_rejects_bad_confidence():
    with pytest.raises(InvalidConfidence):
        select_tags([TagRecord("a", 1.5)])
    with pytest.raises(InvalidConfidence):
        select_tags([TagRecord("a", -0.1)])


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
    a = StubDetector(seed=3)
    b = StubDetector(seed=3)
    for image_id in ("42", "za", ""):
        assert a.detect(image_id) == b.detect(image_id)
        assert a.detect(image_id) == a.detect(image_id)
    assert StubDetector(seed=4).detect("42") != a.detect("42")


def test_stub_detector_ranges():
    stub = StubDetector(seed=0)
    vocab = set(stub.vocabulary)
    sizes = set()
    for i in range(200):
        dets = stub.detect(f"img{i}")
        sizes.add(len(dets))
        for d in dets:
            assert 0.0 <= d.confidence <= 1.0
            assert d.label in vocab
    assert min(sizes) >= 0 and max(sizes) <= 12
    assert len(sizes) > 3


@pytest.mark.parametrize("backend", ["File", "", "files"])
def test_make_detector_rejects_unknown_backend(backend):
    with pytest.raises(ConfigError, match=rf"^backend must be 'stub' or 'file', got {backend!r}$"):
        make_detector(backend)


def test_file_detector_reads_and_errors(tmp_path):
    path = tmp_path / "det.tsv"
    write_detections_file(
        {
            "42": [TagRecord("person", 0.95), TagRecord("dog", 0.9)],
            "43": [TagRecord("traffic light", 0.5)],
            "44": [],
        },
        path,
    )
    det = FileDetector(path)
    assert det.detect("42") == [TagRecord("person", 0.95), TagRecord("dog", 0.9)]
    assert det.detect("43") == [TagRecord("traffic light", 0.5)]
    assert det.detect("44") == []
    with pytest.raises(UnknownImage):
        det.detect("45")


def test_file_detector_rejects_unknown_label(tmp_path):
    path = tmp_path / "det.tsv"
    path.write_text("42\tnotalabel 0.5\n", encoding="utf-8")
    with pytest.raises(UnknownLabel):
        FileDetector(path)


def test_file_detector_malformed(tmp_path):
    path = tmp_path / "det.tsv"
    path.write_text("42\tperson zero\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        FileDetector(path)


# -- tag_corpus ---------------------------------------------------------------


def test_tag_corpus_preserves_order_and_targets():
    lines = [f"im{i}\t1\t1\t4\t4\tsrc {i}\ttgt {i}" for i in range(3)]
    corpus = parse_vg_corpus(lines)
    pairs = tag_corpus(corpus, StubDetector(seed=1), k=5)
    assert len(pairs) == 3
    for i, (tagged, target) in enumerate(pairs):
        assert tagged.text == f"src {i}"
        assert target == f"tgt {i}"
        assert len(tagged.tags) <= 5


def test_tag_corpus_empty_image_id():
    corpus = parse_bitext(["a cat"], ["eine katze"])
    pairs = tag_corpus(corpus, StubDetector(seed=1))
    assert pairs[0][0].tags == ()
    assert pairs[0][0].rendered == "a cat"


def test_tag_corpus_empty_corpus():
    assert tag_corpus(parse_bitext([], []), StubDetector(seed=1)) == []


def test_tag_corpus_attaches_record_index(tmp_path):
    path = tmp_path / "det.tsv"
    write_detections_file({"known": [TagRecord("dog", 0.9)]}, path)
    det = FileDetector(path)
    corpus = parse_vg_corpus(
        ["known\t1\t1\t2\t2\ta\tb", "missing\t1\t1\t2\t2\tc\td"]
    )
    with pytest.raises(UnknownImage) as err:
        tag_corpus(corpus, det)
    assert err.value.record_index == 1
    assert "missing" in str(err.value)


def test_select_corpus_tags_one_per_image_in_first_seen_order():
    lines = [f"{image}\t1\t1\t2\t2\tsrc {i}\ttgt {i}" for i, image in enumerate("bab")]
    corpus = parse_vg_corpus(lines + ["\t1\t1\t2\t2\tno image\tkein bild"])
    detector = StubDetector(seed=1)
    tagsets = select_corpus_tags(corpus, detector, k=3)
    assert [ts.image_id for ts in tagsets] == ["b", "a"]
    for ts in tagsets:
        assert ts == select_tags(detector.detect(ts.image_id), k=3, image_id=ts.image_id)


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
    ts = select_tags([TagRecord("b", 0.5), TagRecord("a", 0.5), TagRecord("b", 0.2)], k=10)
    assert isinstance(ts, TagSet)
    assert ts.labels == ["a", "b"]
    assert len(set(ts.labels)) == len(ts.labels)
