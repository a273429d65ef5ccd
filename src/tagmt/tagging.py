"""Object tags as visual features: detection backends, top-k selection, and
the separator protocol fusing a tag list with a source sentence.

A tagged source renders as ``<text> ## <label1>,<label2>,...`` with a single
space on each side of ``##`` and no spaces around commas. An empty tag set
renders the bare sentence, so the model never sees a dangling separator.

Only `render_tagged` joins and only `parse_tagged` splits this form: a tagged
corpus is a list of ``(rendered source, target)`` string pairs, its TSV rows.
A detection is a ``(label, confidence)`` pair, and `select_tags` turns a list
of them into the labels of the top k.

The pipeline and the ``tags`` subcommands share one function per step over a
VG corpus's ``(image_id, source, target)`` rows: `make_detector` builds the
backend, `select_corpus_tags` maps each distinct image to its labels (``tags
extract``), `inject_tags` fuses that image_id -> labels map into the rows
(``tags inject``), and `tag_corpus` composes the two.
"""

import hashlib
from importlib import resources

from .errors import (
    ConfigError, DataError, MalformedLine, SeparatorCollision, UnknownImage, check_choice
)
from .fileio import read_lines, tsv_rows, write_lines

SEPARATOR = "##"
BACKENDS = ("stub", "file")
# the defaults of [tagging]; DEFAULT_TOP_K is every k argument's too
DEFAULT_BACKEND, DEFAULT_TOP_K = "stub", 10


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


class StubDetector:
    """Deterministic detector stand-in: hashes the image id into 0-12
    (label, confidence) pairs over the configured vocabulary.

    Identical across runs and platforms for a given seed; duplicates are
    possible by design so downstream deduplication gets exercised.
    """

    def __init__(self, vocabulary=None, seed=0):
        self.vocabulary = list(vocabulary) if vocabulary is not None else load_tag_vocabulary()
        self.seed = int(seed)

    def detect(self, image_id):
        digest = hashlib.sha256(f"{self.seed}:{image_id}".encode("utf-8")).digest()
        n = digest[0] % 13
        detections = []
        for i in range(n):
            label_byte = digest[1 + (2 * i) % 30]
            conf_byte = digest[2 + (2 * i) % 30]
            label = self.vocabulary[label_byte % len(self.vocabulary)]
            confidence = conf_byte / 255.0
            detections.append((label, confidence))
        return detections


class FileDetector:
    """Precomputed detections read from a TSV file.

    One line per image: ``<image_id>\\t<label> <conf>[, <label> <conf>]...``.
    Labels must belong to the configured vocabulary; multi-word labels are
    allowed (the confidence is the last whitespace field of each entry).
    """

    def __init__(self, path, vocabulary=None):
        self.vocabulary = list(vocabulary) if vocabulary is not None else load_tag_vocabulary()
        self._by_image = _parse_detections_file(read_lines(path), set(self.vocabulary))

    def detect(self, image_id):
        try:
            return list(self._by_image[image_id])
        except KeyError:
            raise UnknownImage(image_id) from None


def check_backend(backend, detections):
    """ConfigError, led by the key, unless backend is one of BACKENDS and the
    'file' backend has a detections file."""
    check_choice("backend", backend, BACKENDS)
    if backend == "file" and not detections:
        raise ConfigError("backend 'file' needs a detections file")


def make_detector(backend, vocabulary=None, seed=0, detections=None):
    """Build the 'stub' or 'file' detection backend (`check_backend`).

    The file backend reads the detections TSV at ``detections``.
    """
    check_backend(backend, detections)
    if backend == "file":
        return FileDetector(detections, vocabulary=vocabulary)
    return StubDetector(vocabulary=vocabulary, seed=seed)


def _parse_detections_file(lines, known_labels):
    by_image = {}
    for line_number, (image_id, entries) in tsv_rows(lines, 2):
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
    """Write an image_id -> [(label, confidence), ...] mapping in FileDetector format."""
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


def select_corpus_tags(rows, detector_backend, k=DEFAULT_TOP_K):
    """Map each distinct non-empty image_id of ``(image_id, source, target)``
    rows to the labels of its top-k tags.

    k is checked before anything is detected. Images come in the order they
    first appear. A detection error is re-raised with the index of the record
    that first names the image.
    """
    check_k(k)
    labels_by_image = {}
    for index, (image_id, _, _) in enumerate(rows):
        if not image_id or image_id in labels_by_image:
            continue
        try:
            detections = detector_backend.detect(image_id)
        except UnknownImage as err:
            raise UnknownImage(err.image_id, record_index=index) from None
        labels_by_image[image_id] = select_tags(detections, k=k)
    return labels_by_image


def inject_tags(rows, labels_by_image):
    """Fuse an image_id -> labels map into ``(image_id, source, target)``
    rows as (rendered source, target) pairs, preserving order and target
    texts.

    Rows with an empty image_id get no tags. An image absent from the map
    raises UnknownImage, and a source containing a standalone ``##`` raises
    SeparatorCollision, each with the record index.
    """
    pairs = []
    for index, (image_id, source, target) in enumerate(rows):
        check_untagged(index, source)
        if not image_id:
            labels = ()
        elif image_id in labels_by_image:
            labels = labels_by_image[image_id]
        else:
            raise UnknownImage(image_id, record_index=index)
        pairs.append((render_tagged(source, labels), target))
    return pairs


def tag_corpus(rows, detector_backend, k=DEFAULT_TOP_K):
    """Tag every row of a VG corpus: `select_corpus_tags` then `inject_tags`."""
    return inject_tags(rows, select_corpus_tags(rows, detector_backend, k=k))


def write_tagsets_file(labels_by_image, path):
    """Write an image_id -> labels map as ``image_id\\tlabel1,label2,...`` lines."""
    write_lines((f"{image}\t" + ",".join(labels) for image, labels in labels_by_image.items()), path)


def read_tagsets_file(path):
    """Read a tagsets file back into an image_id -> labels mapping."""
    by_image = {}
    for line_number, (image_id, labels) in tsv_rows(read_lines(path), 2):
        image_id = image_id.strip()
        if image_id in by_image:
            raise MalformedLine(line_number, f"repeated image id {image_id!r}")
        by_image[image_id] = split_labels(labels)
        for label in by_image[image_id]:
            _check_label(line_number, label)
    return by_image
