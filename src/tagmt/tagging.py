"""Object tags as visual features: detection, top-k selection, and the
separator protocol fusing a tag list with a source sentence.

A tagged source renders as ``<text> ## <label1>,<label2>,...`` with a single
space on each side of ``##`` and no spaces around commas. An empty tag set
renders the bare sentence, so the model never sees a dangling separator.

Only `render_tagged` joins and only `parse_tagged` splits this form: a tagged
corpus is a list of ``(rendered source, target)`` string pairs, its TSV rows.
A detection is a ``(label, confidence)`` pair, and `select_tags` turns a list
of them into the labels of the top k.

A detector (`make_detector`) is a function from an image id to its
detections: the lookup of a detections file, or else `stub_detections`.

`tag_corpus` turns a VG corpus's ``(image_id, source, target)`` rows into
its tagged corpus; the pipeline's step 1 and ``tags extract`` both call it.
Labels from outside a detector come in as a detections file
(`write_detections_file`).
"""

import hashlib
from importlib import resources

from .errors import ConfigError, DataError, MalformedLine, SeparatorCollision, UnknownImage
from .fileio import read_lines, tsv_rows, write_lines

SEPARATOR = "##"
# the default of [tagging] k, and of every k argument
DEFAULT_TOP_K = 10


def load_tag_vocabulary(path=None):
    """Load a tag vocabulary, one label per line.

    With no path, the bundled 80 COCO object categories are returned. Labels
    may contain spaces (`_check_label`); a file must hold at least one.
    """
    if path is None:
        text = (
            resources.files("tagmt.data").joinpath("coco_categories.txt").read_text("utf-8")
        )
        lines = text.splitlines()
    else:
        lines = read_lines(path)
    labels = []
    seen = set()
    for line_number, line in enumerate(lines, start=1):
        label = line.strip()
        if not label or label.startswith("#"):
            continue
        _check_label(line_number, label)
        if label in seen:
            raise MalformedLine(line_number, f"duplicate label {label!r}")
        seen.add(label)
        labels.append(label)
    if not labels:
        raise DataError(f"tag vocabulary {path} holds no label")
    return labels


def _check_label(line_number, label):
    """Raise MalformedLine unless label is free of commas, tabs and the
    separator, which would break the tagged-source and TSV formats."""
    if "," in label or "\t" in label or SEPARATOR in label:
        raise MalformedLine(line_number, f"label {label!r} contains a reserved character")


def stub_detections(image_id, vocabulary, seed):
    """A deterministic detector stand-in: hash the image id into 0-12
    ``(label, confidence)`` pairs over vocabulary.

    Identical across runs and platforms for a given seed; duplicates are
    possible by design so downstream deduplication gets exercised.
    """
    digest = hashlib.sha256(f"{seed}:{image_id}".encode("utf-8")).digest()
    n = digest[0] % 13
    detections = []
    for i in range(n):
        label_byte = digest[1 + (2 * i) % 30]
        conf_byte = digest[2 + (2 * i) % 30]
        label = vocabulary[label_byte % len(vocabulary)]
        confidence = conf_byte / 255.0
        detections.append((label, confidence))
    return detections


def make_detector(vocabulary, seed=0, detections=None):
    """A function from an image id to its ``(label, confidence)`` list.

    With a ``detections`` file it gives the file's list, or None for an image
    the file does not list; without one, `stub_detections` at seed.
    """
    if detections is None:
        return lambda image_id: stub_detections(image_id, vocabulary, seed)
    return read_detections_file(detections, vocabulary).get


def read_detections_file(path, vocabulary):
    """Read a detections file into an image_id -> [(label, confidence), ...]
    mapping; the inverse of `write_detections_file`.

    One line per image: ``<image_id>\\t<label> <conf>[, <label> <conf>]...``.
    Labels must belong to vocabulary; multi-word labels are allowed (the
    confidence is the last whitespace field of each entry).
    """
    known_labels = set(vocabulary)
    by_image = {}
    for line_number, (image_id, entries) in tsv_rows(read_lines(path), 2):
        image_id = image_id.strip()
        if image_id in by_image:
            raise MalformedLine(line_number, f"repeated image id {image_id!r}")
        detections = []
        for entry in split_labels(entries):
            parts = entry.rsplit(" ", 1)
            if len(parts) != 2:
                raise MalformedLine(line_number, f"cannot split {entry!r} into label and confidence")
            label, conf_text = parts[0].strip(), parts[1]
            try:
                confidence = float(conf_text)
            except ValueError:
                raise MalformedLine(line_number, f"non-numeric confidence {conf_text!r}") from None
            if not 0.0 <= confidence <= 1.0:
                raise MalformedLine(line_number, f"confidence {confidence!r} outside [0, 1]")
            if label not in known_labels:
                raise MalformedLine(line_number, f"label {label!r} is not in the tag vocabulary")
            detections.append((label, confidence))
        by_image[image_id] = detections
    return by_image


def write_detections_file(by_image, path):
    """Write an image_id -> [(label, confidence), ...] map as a detections file."""
    write_lines(
        (f"{image_id}\t" + ", ".join(f"{label} {confidence:g}" for label, confidence in detections)
         for image_id, detections in by_image.items()),
        path,
    )


def check_k(k):
    """Raise ConfigError unless the top-k tag count k is at least 1."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def select_tags(detections, k=DEFAULT_TOP_K):
    """The labels of the top-k tags among ``(label, confidence)`` detections.

    Duplicate labels keep their maximum confidence; the labels are sorted by
    that confidence descending with ties broken by label ascending, then
    truncated to k. Fewer than k distinct labels are all kept.
    """
    check_k(k)
    best = {}
    for label, confidence in detections:
        if not 0.0 <= confidence <= 1.0:
            raise DataError(f"confidence {confidence!r} outside [0, 1]")
        if label not in best or confidence > best[label]:
            best[label] = confidence
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return [label for label, _ in ranked[:k]]


def check_untagged(index, source):
    """Raise SeparatorCollision naming record ``index`` if its source holds
    a standalone ``##``, which `render_tagged` would reject."""
    if SEPARATOR in source.split():
        raise SeparatorCollision(SEPARATOR, f"record {index}: {source}")


def render_tagged(text, labels):
    """Fuse a sentence with a list of labels under the separator protocol.

    Raises SeparatorCollision if the sentence already contains a standalone
    ``##`` token, DataError if it contains a tab (which would break TSV
    output).
    """
    if "\t" in text:
        raise DataError(f"text contains a tab character: {text!r}")
    if SEPARATOR in text.split():
        raise SeparatorCollision(SEPARATOR, text)
    if not labels:
        return text
    return f"{text} {SEPARATOR} " + ",".join(labels)


def parse_tagged(rendered):
    """Split a rendered tagged sentence back into (text, labels).

    The split happens on the last `` ## `` occurrence, so label lists may not
    themselves contain the separator; a sentence without a separator parses
    as (sentence, []).
    """
    idx = rendered.rfind(f" {SEPARATOR} ")
    if idx < 0:
        return rendered, []
    return rendered[:idx], split_labels(rendered[idx + len(SEPARATOR) + 2 :])


def split_labels(text):
    """Split a comma-joined label list, stripping each label and dropping
    empty ones: ``"dog, cat,,"`` gives ``["dog", "cat"]``."""
    return [label.strip() for label in text.split(",") if label.strip()]


def tag_corpus(rows, detector, k=DEFAULT_TOP_K):
    """Tag every ``(image_id, source, target)`` row of a VG corpus as a
    (rendered source, target) pair, preserving order and target texts.

    k is checked before anything is detected. Each distinct non-empty image
    is detected once, and its source is rendered with the labels of its
    top-k tags; a row with an empty image_id gets no tags. The first bad
    record in row order raises, with its index: SeparatorCollision for a
    source holding a standalone ``##``, UnknownImage for an image the
    detector has no detections for.
    """
    check_k(k)
    labels_by_image = {"": []}
    pairs = []
    for index, (image_id, source, target) in enumerate(rows):
        check_untagged(index, source)
        if image_id not in labels_by_image:
            detections = detector(image_id)
            if detections is None:
                raise UnknownImage(image_id, index)
            labels_by_image[image_id] = select_tags(detections, k=k)
        pairs.append((render_tagged(source, labels_by_image[image_id]), target))
    return pairs
