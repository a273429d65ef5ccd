"""Corpus BLEU and side-by-side comparison reports.

BLEU here is the plain corpus metric: clipped n-gram precisions up to
order 4 aggregated over the corpus, geometric mean, brevity penalty
exp(1 - ref_len / hyp_len) when the hypothesis side is shorter. One
reference per hypothesis. No smoothing by default; an optional add-one
variant exists for tiny corpora (numerator and denominator of orders >= 2
each get +1). Tokenization is the caller's job and is expected to be plain
whitespace splitting on detokenized text.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import EmptyCorpus, LengthMismatch, MalformedLine, MissingBaseline, check_choice
from .fileio import atomic_write, tsv_rows

MAX_ORDER = 4
SMOOTHING = ("none", "add1")
REPORT_FORMATS = ("tsv", "table")


@dataclass(frozen=True)
class BleuScore:
    score: float
    ngram_precisions: tuple[float, ...]
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    def __str__(self):
        precisions = "/".join(f"{p:.3f}" for p in self.ngram_precisions)
        return (
            f"BLEU = {self.score:.1f} ({precisions}) "
            f"bp={self.brevity_penalty:.3f} hyp_len={self.hyp_length} "
            f"ref_len={self.ref_length}"
        )


def _ngram_counts(tokens, order):
    return Counter(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))


def corpus_bleu(hypotheses, references, smooth="none"):
    """Corpus-level BLEU over aligned token-sequence lists.

    Returns 0 when any counted order has zero matches (or zero hypothesis
    n-grams) unless add-one smoothing is enabled for orders >= 2.
    """
    check_choice("smooth", smooth, SMOOTHING)
    if len(hypotheses) != len(references):
        raise LengthMismatch(len(hypotheses), len(references))
    if not hypotheses:
        raise EmptyCorpus("cannot score an empty corpus")
    matches, totals = [0] * MAX_ORDER, [0] * MAX_ORDER
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            hyp_counts = _ngram_counts(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngram_counts(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            for gram, count in hyp_counts.items():
                matches[n - 1] += min(count, ref_counts.get(gram, 0))

    precisions = []
    for n in range(MAX_ORDER):
        m, t = matches[n], totals[n]
        if smooth == "add1" and n >= 1:
            m, t = m + 1, t + 1
        precisions.append(m / t if t > 0 else 0.0)

    bp = math.exp(1.0 - ref_len / hyp_len) if 0 < hyp_len < ref_len else 1.0

    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        log_mean = sum(math.log(p) for p in precisions) / MAX_ORDER
        score = 100.0 * bp * math.exp(log_mean)
    return BleuScore(
        score=score,
        ngram_precisions=tuple(precisions),
        brevity_penalty=bp,
        hyp_length=hyp_len,
        ref_length=ref_len,
    )


def bleu_from_texts(hypothesis_lines, reference_lines, smooth="none"):
    """BLEU over raw text lines, whitespace-tokenized."""
    return corpus_bleu(
        [line.split() for line in hypothesis_lines],
        [line.split() for line in reference_lines],
        smooth=smooth,
    )


@dataclass(frozen=True)
class ReportRow:
    task: str
    system_score: float
    baseline_score: float
    delta: float


@dataclass
class EvalReport:
    rows: list[ReportRow]
    metadata: dict = field(default_factory=dict)


def report_delta(text_only, multimodal, corpus_name="", split="", timestamp=None):
    """Build a comparison report: one row per multimodal task.

    Deltas are exact subtractions (multimodal minus text-only); rendering
    rounds to one decimal place but never re-rounds previously rounded
    inputs. Every multimodal task needs a text-only baseline; a missing one
    is named with its line when multimodal was read by `read_scores_tsv`.
    """
    rows = []
    for task, mm_score in multimodal.items():
        if task not in text_only:
            raise MissingBaseline(task, getattr(multimodal, "line_numbers", {}).get(task))
        system, baseline = float(mm_score), float(text_only[task])
        rows.append(ReportRow(task, system, baseline, system - baseline))
    metadata = {"bleu_tokenization": "whitespace"}
    if corpus_name:
        metadata["corpus"] = corpus_name
    if split:
        metadata["split"] = split
    if timestamp is not None:
        metadata["timestamp"] = timestamp
    return EvalReport(rows=rows, metadata=metadata)


def _cells(row):
    return (row.task, f"{row.system_score:.1f}", f"{row.baseline_score:.1f}", f"{row.delta:+.1f}")


def render_report_tsv(report):
    lines = ["task\tsystem\tbaseline\tdelta"]
    lines.extend("\t".join(_cells(row)) for row in report.rows)
    for key in sorted(report.metadata):
        lines.append(f"# {key}: {report.metadata[key]}")
    return "\n".join(lines) + "\n"


def render_report_table(report):
    header = ("Task", "System", "Baseline", "Delta")
    body = [_cells(row) for row in report.rows]
    widths = [
        max(len(header[col]), *(len(line[col]) for line in body)) if body else len(header[col])
        for col in range(4)
    ]
    def fmt_line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = [fmt_line(header), fmt_line(tuple("-" * w for w in widths))]
    lines.extend(fmt_line(line) for line in body)
    for key in sorted(report.metadata):
        lines.append(f"{key}: {report.metadata[key]}")
    return "\n".join(lines) + "\n"


def render_report(report, fmt):
    """The report in one of REPORT_FORMATS: "tsv" or the aligned "table"."""
    check_choice("fmt", fmt, REPORT_FORMATS)
    return render_report_tsv(report) if fmt == "tsv" else render_report_table(report)


def write_report(report, path, fmt="tsv"):
    rendered = render_report(report, fmt)
    with atomic_write(path) as out:
        out.write(rendered)


class Scores(dict):
    """An ordered task -> score map; `line_numbers` maps each task to its line."""

    def __init__(self):
        super().__init__()
        self.line_numbers = {}


def read_scores_tsv(lines):
    """Parse (task, score) TSV lines into a `Scores` map.

    ``#`` comment lines are skipped like blank ones. Scores must be finite
    and tasks unique.
    """
    scores = Scores()
    uncommented = ("" if line.lstrip().startswith("#") else line for line in lines)
    for line_number, (task, score) in tsv_rows(uncommented, 2):
        task = task.strip()
        try:
            value = float(score)
        except ValueError:
            raise MalformedLine(line_number, f"non-numeric score {score!r}") from None
        if not math.isfinite(value):
            raise MalformedLine(line_number, f"score {score.strip()!r} is not finite")
        if task in scores:
            raise MalformedLine(line_number, f"repeated task {task!r}")
        scores[task] = value
        scores.line_numbers[task] = line_number
    return scores
