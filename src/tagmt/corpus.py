"""Parallel caption corpora: parsing, validation, splitting and statistics.

Two input layouts are supported:

* Visual-Genome style TSV, 7 tab-separated fields per line:
  ``image_id  x  y  width  height  source_text  target_text``
* plain bitext: two aligned text files, one sentence per line.

Parsing preserves record order exactly; order is the alignment identity.
"""

from dataclasses import dataclass, field

from .errors import DataError, EmptyText, LengthMismatch, MalformedLine, check_choice
from .fileio import read_lines, tsv_rows, write_lines

SPLIT_LABELS = ("train", "dtest", "etest", "ctest", "unspecified")


@dataclass(frozen=True)
class Region:
    """Rectangular image region in pixels."""

    x: int
    y: int
    width: int
    height: int


@dataclass(frozen=True)
class ParallelRecord:
    """One aligned caption pair, optionally anchored to an image region."""

    source_text: str
    target_text: str
    image_id: str = ""
    region: Region | None = None


@dataclass
class Corpus:
    records: list[ParallelRecord] = field(default_factory=list)
    split_label: str = "unspecified"

    def __len__(self):
        return len(self.records)


@dataclass(frozen=True)
class CorpusStats:
    sentence_count: int
    source_token_count: int
    target_token_count: int


def parse_vg_corpus(lines, split_label="unspecified"):
    """Parse VG-style TSV lines into a Corpus.

    ``lines`` is any iterable of strings (an open file works). Empty lines are
    skipped; line numbers in errors are 1-based over all lines.

    Raises MalformedLine on wrong field count or bad geometry, EmptyText when
    either text field is blank after trimming.
    """
    check_choice("split", split_label, SPLIT_LABELS)
    records = []
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
        if not source_text:
            raise EmptyText(line_number, "source")
        if not target_text:
            raise EmptyText(line_number, "target")
        records.append(
            ParallelRecord(
                source_text=source_text,
                target_text=target_text,
                image_id=image_id,
                region=Region(x, y, width, height),
            )
        )
    return Corpus(records=records, split_label=split_label)


def serialize_vg_corpus(corpus):
    """Render a corpus back to VG TSV lines (inverse of parse_vg_corpus).

    Every record must carry an image_id and a region.
    """
    lines = []
    for i, rec in enumerate(corpus.records):
        if rec.region is None or not rec.image_id:
            raise DataError(f"record {i} lacks image_id or region; not representable as VG TSV")
        r = rec.region
        fields = (rec.image_id, r.x, r.y, r.width, r.height, rec.source_text, rec.target_text)
        lines.append("\t".join(map(str, fields)))
    return lines


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


def parse_bitext(source_lines, target_lines, split_label="unspecified"):
    """Pair up two aligned streams of sentences into a text-only Corpus.

    Blank lines are dropped on each side before pairing; a count mismatch
    after that raises LengthMismatch.
    """
    check_choice("split", split_label, SPLIT_LABELS)
    src = _sentences(source_lines, "source")
    tgt = _sentences(target_lines, "target")
    if len(src) != len(tgt):
        raise LengthMismatch(len(src), len(tgt))
    records = [ParallelRecord(source_text=s, target_text=t) for s, t in zip(src, tgt)]
    return Corpus(records=records, split_label=split_label)


def corpus_stats(corpus):
    """Sentence and whitespace-token counts for both sides of a corpus."""
    return CorpusStats(
        sentence_count=len(corpus.records),
        source_token_count=sum(len(rec.source_text.split()) for rec in corpus.records),
        target_token_count=sum(len(rec.target_text.split()) for rec in corpus.records),
    )


def load_vg_corpus(path, split_label="unspecified"):
    return parse_vg_corpus(read_lines(path), split_label)


def load_bitext(source_path, target_path, split_label="unspecified"):
    return parse_bitext(read_lines(source_path), read_lines(target_path), split_label)


def write_vg_corpus(corpus, path):
    write_lines(serialize_vg_corpus(corpus), path)


def read_pairs_tsv(path):
    """Read a two-column (source, target) TSV into a list of string pairs."""
    return [(fields[0], fields[1]) for _, fields in tsv_rows(read_lines(path), 2)]


def write_pairs_tsv(pairs, path):
    write_lines((f"{left}\t{right}" for left, right in pairs), path)
