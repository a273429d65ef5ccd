import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagmt.corpus import (
    corpus_stats,
    load_bitext,
    load_vg_corpus,
    parse_bitext,
    parse_vg_corpus,
    read_pairs_tsv,
    write_pairs_tsv,
    write_vg_corpus,
)
from tagmt.errors import LengthMismatch, MalformedLine
from tagmt.fileio import atomic_write, read_lines, tsv_rows, write_lines


def test_parse_vg_single_line():
    assert parse_vg_corpus(["42\t10\t20\t50\t60\ta man\tएक आदमी"]) == [("42", "a man", "एक आदमी")]


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
    with pytest.raises(MalformedLine, match=r"^line 1: empty source field$"):
        parse_vg_corpus(["42\t1\t1\t5\t5\t   \ttgt"])
    with pytest.raises(MalformedLine, match=r"^line 1: empty target field$"):
        parse_vg_corpus(["42\t1\t1\t5\t5\tsrc\t"])


def test_parse_vg_trims_outer_whitespace_only():
    assert parse_vg_corpus(["7\t1\t1\t2\t2\t  a  man \tतीन  लोग "]) == [("7", "a  man", "तीन  लोग")]


# a field holds no tab or line end; a text field is not blank once trimmed
FIELD = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), max_size=12)
TEXT = FIELD.filter(str.strip)
VG_ROWS = st.lists(
    st.tuples(
        FIELD,
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.integers(1, 10_000),
        st.integers(1, 10_000),
        TEXT,
        TEXT,
    ),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(rows=VG_ROWS)
def test_write_then_load_vg_gives_each_row_text(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("vg") / "corpus.tsv"
    write_vg_corpus(rows, path)
    assert load_vg_corpus(path) == [
        (image_id.strip(), source.strip(), target.strip()) for image_id, *_, source, target in rows
    ]


def test_parse_bitext_pairs_lines():
    assert parse_bitext(["a dog"], ["एक कुत्ता"]) == [("a dog", "एक कुत्ता")]


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
    pairs = parse_bitext(src, tgt)
    for i, (source, target) in enumerate(pairs):
        assert source == src[i]
        assert target == tgt[i]


def test_corpus_stats_hand_counted():
    assert corpus_stats(parse_bitext(["a b"], ["c"])) == (1, 2, 1)


def test_corpus_stats_sentence_count_matches_len():
    rng = random.Random(17)
    for trial in range(20):
        n = rng.randint(0, 30)
        src = [f"w{rng.randint(0, 5)} y" for _ in range(n)]
        tgt = [f"z{i}" for i in range(n)]
        pairs = parse_bitext(src, tgt)
        assert corpus_stats(pairs)[0] == len(pairs) == n


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


def test_load_bitext_drops_a_leading_byte_order_mark(tmp_path):
    src, tgt = tmp_path / "x.src", tmp_path / "x.tgt"
    src.write_bytes("\ufeffthe cat\na dog\n".encode("utf-8"))
    tgt.write_bytes("\ufeffdie katze\nein hund\n".encode("utf-8"))
    assert load_bitext(src, tgt) == [("the cat", "die katze"), ("a dog", "ein hund")]


def test_read_lines_drops_one_leading_byte_order_mark_and_no_other(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes("\ufeff\ufeffa\n\ufeffb\n".encode("utf-8"))
    assert read_lines(path) == ["\ufeffa", "\ufeffb"]


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
