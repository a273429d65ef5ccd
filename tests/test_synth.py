import random

import pytest

from tagmt.corpus import parse_bitext
from tagmt.errors import ConfigError, EmptyCorpus, SeparatorCollision
from tagmt.mt.model import ModelConfig
from tagmt.corpus import read_pairs_tsv, write_pairs_tsv
from tagmt.synth import build_synth_pairs, enrich_corpus, tags_from_decoded, train_synthesizer
from tagmt.tagging import TaggedSource

VOCAB = ["dog", "cat", "car", "person", "tree"]


def test_build_pairs_single_record():
    pairs = build_synth_pairs([(TaggedSource("a red car", ("car",)), "लाल कार")])
    assert pairs == [("a red car <sep> लाल कार", "car")]


def test_build_pairs_no_tags_empty_output():
    pairs = build_synth_pairs([(TaggedSource("a man", ()), "एक आदमी")])
    assert pairs[0][1] == ""


def test_build_pairs_empty():
    assert build_synth_pairs([]) == []


def test_build_pairs_separator_collision():
    with pytest.raises(SeparatorCollision):
        build_synth_pairs([(TaggedSource("x <sep> y", ()), "t")])
    with pytest.raises(SeparatorCollision):
        build_synth_pairs([(TaggedSource("x", ()), "t <sep> u")])


def test_build_pairs_inverse_consistent():
    rng = random.Random(11)
    words = ["a", "red", "car", "नदी", "dog"]
    tagged = []
    for _ in range(100):
        src = " ".join(rng.choices(words, k=rng.randint(1, 6)))
        tgt = " ".join(rng.choices(words, k=rng.randint(1, 6)))
        tags = tuple(rng.sample(VOCAB, k=rng.randint(0, 3)))
        tagged.append((TaggedSource(src, tags), tgt))
    for (input_text, _), (ts, tgt) in zip(build_synth_pairs(tagged), tagged):
        assert input_text == f"{ts.text} <sep> {tgt}"
        assert input_text.split(" <sep> ") == [ts.text, tgt]


def test_tags_from_decoded_dedup():
    assert tags_from_decoded("dog,dog,car", vocabulary=VOCAB) == ("dog", "car")


def test_tags_from_decoded_vocabulary_filter():
    assert tags_from_decoded("dog,notalabel", vocabulary=VOCAB) == ("dog",)


def test_tags_from_decoded_empty():
    assert tags_from_decoded("", vocabulary=VOCAB) == ()


@pytest.mark.parametrize("k", [0, -1])
def test_tags_from_decoded_rejects_k_below_one(k):
    with pytest.raises(ConfigError, match=rf"k must be >= 1, got {k}"):
        tags_from_decoded("dog,car", k=k, vocabulary=VOCAB)


def test_tags_from_decoded_fuzz_invariants():
    rng = random.Random(3)
    alphabet = VOCAB + ["", " ", "x", "##", "<sep>", ",", "dog dog", "zz"]
    for _ in range(500):
        raw = ",".join(rng.choices(alphabet, k=rng.randint(0, 12)))
        k = rng.randint(1, 5)
        labels = tags_from_decoded(raw, k=k, vocabulary=VOCAB)
        assert len(labels) <= k
        assert len(set(labels)) == len(labels)
        assert all(label in VOCAB for label in labels)


SYNTH_CONFIG = ModelConfig(
    layers=1,
    heads=2,
    model_dim=32,
    ff_dim=64,
    dropout=0.0,
    label_smoothing=0.0,
    max_steps=120,
    validation_interval=40,
    learning_rate=3e-3,
    warmup_steps=20,
    batch_size=8,
    max_len=24,
    seed=2,
)


@pytest.fixture(scope="module")
def memorize_checkpoint():
    pair = ("a dog runs <sep> EIN HUND", "dog")
    return train_synthesizer([pair] * 40, SYNTH_CONFIG)


def test_synthesizer_memorizes_single_pair(memorize_checkpoint):
    bitext = parse_bitext(["a dog runs"], ["EIN HUND"])
    [(tagged, _)] = enrich_corpus(bitext, memorize_checkpoint, vocabulary=VOCAB).pairs
    assert list(tagged.tags) == ["dog"]
    assert memorize_checkpoint.training_meta["synth_fit"] == 1.0


def test_train_synthesizer_empty_pairs():
    with pytest.raises(EmptyCorpus):
        train_synthesizer([], SYNTH_CONFIG)


def test_enrich_corpus_counts_and_targets(memorize_checkpoint):
    bitext = parse_bitext(
        ["a dog runs", "a dog runs", "a dog runs"],
        ["EIN HUND", "EIN HUND", "EIN HUND"],
    )
    enriched = enrich_corpus(bitext, memorize_checkpoint, vocabulary=VOCAB)
    assert len(enriched) == 3
    assert enriched.provenance == ["synthetic"] * 3
    for (tagged, target), rec in zip(enriched.pairs, bitext.records):
        assert target == rec.target_text
        assert tagged.text == rec.source_text
        assert tagged.tags == ("dog",)


@pytest.mark.parametrize("k", [0, -1])
def test_enrich_corpus_rejects_k_below_one_before_decoding(monkeypatch, k):
    def no_decode(*args, **kwargs):
        raise AssertionError("translate_corpus ran before k was checked")

    monkeypatch.setattr("tagmt.synth.translate_corpus", no_decode)
    bitext = parse_bitext(["a dog runs"], ["EIN HUND"])
    with pytest.raises(ConfigError, match=rf"k must be >= 1, got {k}"):
        enrich_corpus(bitext, checkpoint=None, k=k, vocabulary=VOCAB)


def test_enrich_empty_bitext(memorize_checkpoint):
    enriched = enrich_corpus(parse_bitext([], []), memorize_checkpoint, vocabulary=VOCAB)
    assert len(enriched) == 0


def test_synth_pairs_file_round_trip(tmp_path):
    pairs = [("a <sep> b", "dog,cat"), ("x y <sep> z", "")]
    path = tmp_path / "pairs.tsv"
    write_pairs_tsv(pairs, path)
    assert read_pairs_tsv(path) == pairs


def test_enriched_corpus_mixed_provenance(memorize_checkpoint):
    from tagmt.synth import EnrichedCorpus

    natural = [(TaggedSource("a dog runs", ("dog",)), "EIN HUND")] * 4
    bitext = parse_bitext(["a dog runs"] * 3, ["EIN HUND"] * 3)
    synthetic = enrich_corpus(bitext, memorize_checkpoint, vocabulary=VOCAB)
    combined = EnrichedCorpus(
        natural + synthetic.pairs, ["natural"] * len(natural) + synthetic.provenance
    )
    assert len(combined) == 7
    assert combined.provenance == ["natural"] * 4 + ["synthetic"] * 3


def test_enriched_corpus_file_round_trip(tmp_path, memorize_checkpoint):
    from tagmt.synth import read_enriched_corpus, write_enriched_corpus

    bitext = parse_bitext(["a dog runs"] * 2, ["EIN HUND"] * 2)
    enriched = enrich_corpus(bitext, memorize_checkpoint, vocabulary=VOCAB)
    path = tmp_path / "enriched.tsv"
    write_enriched_corpus(enriched, path)
    loaded = read_enriched_corpus(path)
    assert loaded.pairs == enriched.pairs
    assert loaded.provenance == enriched.provenance
