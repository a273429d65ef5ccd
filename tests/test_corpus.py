import os
import random

import pytest

from tagmt.corpus import (
    Corpus,
    ParallelRecord,
    Region,
    corpus_stats,
    parse_bitext,
    parse_vg_corpus,
    read_pairs_tsv,
    serialize_vg_corpus,
    write_pairs_tsv,
)
from tagmt.errors import DataError, EmptyText, LengthMismatch, MalformedLine
from tagmt.fileio import atomic_write, read_lines, tsv_rows, write_lines


def test_parse_vg_single_line():
    corpus = parse_vg_corpus(["42\t10\t20\t50\t60\ta man\tएक आदमी"], "train")
    assert len(corpus) == 1
    rec = corpus.records[0]
    assert rec.image_id == "42"
    assert rec.region == Region(10, 20, 50, 60)
    assert rec.source_text == "a man"
    assert rec.target_text == "एक आदमी"
    assert corpus.split_label == "train"


def test_parse_vg_wrong_field_count():
    with pytest.raises(MalformedLine) as err:
        parse_vg_corpus(["42\t10\t20\t50"])
    assert err.value.line_number == 1


def test_parse_vg_empty_stream():
    assert len(parse_vg_corpus([])) == 0


def test_parse_vg_skips_blank_lines_but_counts_them():
    lines = ["", "42\t0\t0\t5\t5\ta\tb", "", "bad line"]
    with pytest.raises(MalformedLine) as err:
        parse_vg_corpus(lines)
    assert err.value.line_number == 4


def test_parse_vg_non_integer_geometry():
    with pytest.raises(MalformedLine):
        parse_vg_corpus(["42\t10\tx\t50\t60\ta\tb"])


def test_parse_vg_zero_size_region():
    with pytest.raises(MalformedLine):
        parse_vg_corpus(["42\t10\t20\t0\t60\ta\tb"])


def test_parse_vg_blank_text_fields():
    with pytest.raises(EmptyText) as err:
        parse_vg_corpus(["42\t1\t1\t5\t5\t   \ttgt"])
    assert err.value.line_number == 1
    with pytest.raises(EmptyText):
        parse_vg_corpus(["42\t1\t1\t5\t5\tsrc\t"])


def test_parse_vg_trims_outer_whitespace_only():
    corpus = parse_vg_corpus(["7\t1\t1\t2\t2\t  a  man \tतीन  लोग "])
    assert corpus.records[0].source_text == "a  man"
    assert corpus.records[0].target_text == "तीन  लोग"


def test_parse_serialize_round_trip_random():
    rng = random.Random(99)
    words = ["a", "man", "रथ", "नदी", "dog", "πλοίο", "x1"]
    lines = []
    for i in range(200):
        src = " ".join(rng.choices(words, k=rng.randint(1, 6)))
        tgt = " ".join(rng.choices(words, k=rng.randint(1, 6)))
        lines.append(
            f"im{i}\t{rng.randint(0, 99)}\t{rng.randint(0, 99)}"
            f"\t{rng.randint(1, 99)}\t{rng.randint(1, 99)}\t{src}\t{tgt}"
        )
    corpus = parse_vg_corpus(lines, "etest")
    again = parse_vg_corpus(serialize_vg_corpus(corpus), "etest")
    assert again.records == corpus.records
    assert serialize_vg_corpus(again) == lines


def test_serialize_requires_region():
    corpus = Corpus(records=[ParallelRecord(source_text="a", target_text="b")])
    with pytest.raises(DataError):
        serialize_vg_corpus(corpus)


def test_parse_bitext_pairs_lines():
    corpus = parse_bitext(["a dog"], ["एक कुत्ता"])
    assert len(corpus) == 1
    rec = corpus.records[0]
    assert (rec.source_text, rec.target_text) == ("a dog", "एक कुत्ता")
    assert rec.image_id == ""
    assert rec.region is None


def test_parse_bitext_length_mismatch():
    with pytest.raises(LengthMismatch) as err:
        parse_bitext(["a", "b"], ["x", "y", "z"])
    assert (err.value.n_source, err.value.n_target) == (2, 3)


@pytest.mark.parametrize("side", ["source", "target"])
def test_parse_bitext_rejects_tab_inside_sentence(side):
    lines = {"source": ["a", "", "b"], "target": ["x", "", "y"]}
    lines[side][2] = "b\tc"
    with pytest.raises(MalformedLine, match=rf"^line 3: {side} sentence contains a tab character$"):
        parse_bitext(lines["source"], lines["target"])


def test_parse_bitext_empty():
    assert len(parse_bitext([], [])) == 0


def test_parse_bitext_preserves_pairing():
    rng = random.Random(3)
    src = [f"s{i} {rng.randint(0, 9)}" for i in range(50)]
    tgt = [f"t{i}" for i in range(50)]
    corpus = parse_bitext(src, tgt)
    for i, rec in enumerate(corpus.records):
        assert rec.source_text == src[i]
        assert rec.target_text == tgt[i]


def test_corpus_stats_hand_counted():
    corpus = parse_bitext(["a b"], ["c"])
    stats = corpus_stats(corpus)
    assert (stats.sentence_count, stats.source_token_count, stats.target_token_count) == (1, 2, 1)


def test_corpus_stats_sentence_count_matches_len():
    rng = random.Random(17)
    for trial in range(20):
        n = rng.randint(0, 30)
        src = [f"w{rng.randint(0, 5)} y" for _ in range(n)]
        tgt = [f"z{i}" for i in range(n)]
        corpus = parse_bitext(src, tgt)
        assert corpus_stats(corpus).sentence_count == len(corpus.records) == n


def test_pairs_tsv_round_trip(tmp_path):
    path = tmp_path / "pairs.tsv"
    pairs = [("a b", "c d"), ("x", "y z")]
    write_pairs_tsv(pairs, path)
    assert read_pairs_tsv(path) == pairs


def test_pairs_tsv_bad_column_count(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\tc\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        read_pairs_tsv(path)
    assert err.value.line_number == 1


@pytest.mark.parametrize(
    "data, lines",
    [
        (b"", []),
        (b"a", ["a"]),
        (b"a\n", ["a"]),
        (b"a\n\n", ["a", ""]),
        (b"a\r\nb\rc\n", ["a", "b", "c"]),
        (b"a\r\r\nb\r", ["a", "", "b"]),
        (b"a\x0cb\x1cc\n", ["a\x0cb\x1cc"]),
        ("ü x\n".encode("utf-8"), ["ü x"]),
    ],
)
def test_read_lines_universal_newlines_only(tmp_path, data, lines):
    path = tmp_path / "lines.txt"
    path.write_bytes(data)
    assert read_lines(path) == lines
    with open(path, encoding="utf-8") as handle:
        assert [line.rstrip("\n") for line in handle] == lines


def test_read_lines_names_undecodable_byte(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok\r\xc3\xa9\r\nthird \xc3\n")
    with pytest.raises(MalformedLine) as err:
        read_lines(path)
    assert err.value.line_number == 3
    assert str(err.value) == f"line 3: {path} is not valid UTF-8"


def test_tsv_rows_counts_blank_lines_and_fields():
    rows = list(tsv_rows(["a\tb", "", "  ", "c\td\n"], 2))
    assert rows == [(1, ["a", "b"]), (4, ["c", "d"])]
    with pytest.raises(MalformedLine, match=r"^line 2: expected 2 tab-separated fields, got 3$"):
        list(tsv_rows(["a\tb", "a\tb\tc"], 2))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_honours_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_lines(["a"], tmp_path / "text.txt")
        with atomic_write(tmp_path / "blob.bin", "wb") as out:
            out.write(b"\x00")
    finally:
        os.umask(old)
    assert sorted(os.listdir(tmp_path)) == ["blob.bin", "text.txt"]
    for name in ("text.txt", "blob.bin"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == mode
