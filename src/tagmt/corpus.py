"""Parallel caption corpora: parsing, validation and statistics.

Two input layouts are supported:

* Visual-Genome style TSV, 7 tab-separated fields per line:
  ``image_id  x  y  width  height  source_text  target_text``
* plain bitext: two aligned text files, one sentence per line.

A corpus is the rows its file holds: a VG corpus is a list of
``(image_id, source, target)`` triples, whose region geometry is checked and
then dropped, and a bitext, like every two-column TSV, a list of
``(source, target)`` pairs. Parsing preserves row order exactly; order is the
alignment identity.
"""

from .errors import LengthMismatch, MalformedLine
from .fileio import read_lines, tsv_rows, write_lines


def parse_vg_corpus(lines):
    """Parse VG-style TSV lines into ``(image_id, source, target)`` triples.

    ``lines`` is any iterable of strings (an open file works). Empty lines are
    skipped; line numbers in errors are 1-based over all lines.

    Raises MalformedLine on wrong field count, bad geometry, or either text
    field blank after trimming.
    """
    rows = []
    for line_number, fields in tsv_rows(lines, 7):
        image_id = fields[0].strip()
        try:
            x, y, width, height = (int(v) for v in fields[1:5])
        except ValueError:
            raise MalformedLine(
                line_number, f"non-integer region geometry {fields[1:5]!r}"
            ) from None
        if x < 0 or y < 0 or width <= 0 or height <= 0:
            raise MalformedLine(
                line_number,
                f"region must have nonnegative origin and positive size, "
                f"got ({x}, {y}, {width}, {height})",
            )
        source_text = fields[5].strip()
        target_text = fields[6].strip()
        for side, text in (("source", source_text), ("target", target_text)):
            if not text:
                raise MalformedLine(line_number, f"empty {side} field")
        rows.append((image_id, source_text, target_text))
    return rows


def _sentences(lines, side):
    """The trimmed non-blank lines of one bitext side. A tab inside a
    sentence raises MalformedLine naming the side and its 1-based line,
    counted over all lines; a tab would break every TSV the sentence goes
    into."""
    sentences = []
    for line_number, line in enumerate(lines, start=1):
        text = line.strip()
        if "\t" in text:
            raise MalformedLine(line_number, f"{side} sentence contains a tab character")
        if text:
            sentences.append(text)
    return sentences


def parse_bitext(source_lines, target_lines):
    """Pair up two aligned streams of sentences into ``(source, target)`` pairs.

    Blank lines are dropped on each side before pairing; a count mismatch
    after that raises LengthMismatch.
    """
    src = _sentences(source_lines, "source")
    tgt = _sentences(target_lines, "target")
    if len(src) != len(tgt):
        raise LengthMismatch(len(src), len(tgt))
    return list(zip(src, tgt))


def corpus_stats(pairs):
    """(sentences, source tokens, target tokens) of ``(source, target)``
    pairs, tokens split on whitespace."""
    return (
        len(pairs),
        sum(len(source.split()) for source, _ in pairs),
        sum(len(target.split()) for _, target in pairs),
    )


def load_vg_corpus(path):
    return parse_vg_corpus(read_lines(path))


def load_bitext(source_path, target_path):
    return parse_bitext(read_lines(source_path), read_lines(target_path))


def write_vg_corpus(rows, path):
    """Write seven-field rows ``(image_id, x, y, width, height, source,
    target)`` as VG TSV lines."""
    write_lines(("\t".join(map(str, row)) for row in rows), path)


def read_pairs_tsv(path):
    """Read a two-column (source, target) TSV into a list of string pairs."""
    return [(fields[0], fields[1]) for _, fields in tsv_rows(read_lines(path), 2)]


def write_pairs_tsv(pairs, path):
    write_lines((f"{left}\t{right}" for left, right in pairs), path)
