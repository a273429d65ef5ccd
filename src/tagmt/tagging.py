"""Object tags as visual features: detection backends, top-k selection, and
the separator protocol fusing a tag list with a source sentence.

A tagged source renders as ``<text> ## <label1>,<label2>,...`` with a single
space on each side of ``##`` and no spaces around commas. An empty tag set
renders the bare sentence, so the model never sees a dangling separator.

The pipeline and the ``tags`` subcommands share one function per step:
`make_detector` builds the backend, `select_corpus_tags` picks one TagSet per
distinct image (``tags extract``), `inject_tags` fuses an image_id -> labels
map into the records (``tags inject``), and `tag_corpus` composes the two.
"""

import hashlib
from dataclasses import dataclass
from importlib import resources

from .errors import (
    ConfigError,
    DataError,
    InvalidConfidence,
    MalformedLine,
    SeparatorCollision,
    UnknownImage,
    UnknownLabel,
    check_choice,
)
from .fileio import read_lines, tsv_rows, write_lines

SEPARATOR = "##"
DEFAULT_TOP_K = 10
BACKENDS = ("stub", "file")


@dataclass(frozen=True)
class TagRecord:
    label: str
    confidence: float


@dataclass(frozen=True)
class TagSet:
    """Confidence-ranked, deduplicated tags for one image.

    Tags are ordered by confidence descending, ties by label ascending, and
    labels are unique. select_tags is the canonical constructor.
    """

    tags: tuple[TagRecord, ...] = ()
    image_id: str = ""

    @property
    def labels(self):
        return [t.label for t in self.tags]

    def __len__(self):
        return len(self.tags)


@dataclass(frozen=True)
class TaggedSource:
    text: str
    tags: tuple[str, ...] = ()

    @property
    def rendered(self):
        return render_tagged(self.text, self.tags)


def load_tag_vocabulary(path=None):
    """Load a tag vocabulary, one label per line.

    With no path, the bundled 80 COCO object categories are returned. Labels
    may contain spaces but not commas or the separator token.
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
        if "," in label or "\t" in label or SEPARATOR in label:
            raise MalformedLine(
                line_number, f"label {label!r} contains a reserved character"
            )
        if label in seen:
            raise MalformedLine(line_number, f"duplicate label {label!r}")
        seen.add(label)
        labels.append(label)
    return labels


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
            detections.append(TagRecord(label=label, confidence=confidence))
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
                raise UnknownLabel(label, line_number)
            detections.append(TagRecord(label=label, confidence=confidence))
        by_image[image_id] = detections
    return by_image


def write_detections_file(by_image, path):
    """Write an image_id -> list[TagRecord] mapping in FileDetector format."""
    write_lines(
        (f"{image_id}\t" + ", ".join(f"{d.label} {d.confidence:g}" for d in detections)
         for image_id, detections in by_image.items()),
        path,
    )


def check_k(k):
    """Raise ConfigError unless the top-k tag count k is at least 1."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def select_tags(detections, k=DEFAULT_TOP_K, image_id=""):
    """Pick the top-k tags from raw detections.

    Duplicate labels keep their maximum confidence; the result is sorted by
    confidence descending with ties broken by label ascending, then truncated
    to k. Fewer than k detections are all kept.
    """
    check_k(k)
    best = {}
    for det in detections:
        if not 0.0 <= det.confidence <= 1.0:
            raise InvalidConfidence(det.confidence)
        if det.label not in best or det.confidence > best[det.label]:
            best[det.label] = det.confidence
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    tags = tuple(TagRecord(label=l, confidence=c) for l, c in ranked[:k])
    return TagSet(tags=tags, image_id=image_id)


def _has_standalone_separator(text):
    return SEPARATOR in text.split()


def render_tagged(text, labels):
    """Fuse a sentence with a list of labels under the separator protocol.

    Raises SeparatorCollision if the sentence already contains a standalone
    ``##`` token, DataError if it contains a tab (which would break TSV
    output).
    """
    if "\t" in text:
        raise DataError(f"text contains a tab character: {text!r}")
    if _has_standalone_separator(text):
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


def select_corpus_tags(corpus, detector_backend, k=DEFAULT_TOP_K):
    """Select the top-k TagSet of each distinct non-empty image_id.

    TagSets come in the order their images first appear. A detection error is
    re-raised with the index of the record that first names the image.
    """
    tagsets = []
    seen = set()
    for index, rec in enumerate(corpus.records):
        if not rec.image_id or rec.image_id in seen:
            continue
        seen.add(rec.image_id)
        try:
            detections = detector_backend.detect(rec.image_id)
        except UnknownImage as err:
            raise UnknownImage(err.image_id, record_index=index) from None
        tagsets.append(select_tags(detections, k=k, image_id=rec.image_id))
    return tagsets


def inject_tags(corpus, labels_by_image):
    """Fuse an image_id -> labels map into a corpus as (TaggedSource, target)
    pairs, preserving order and target texts.

    Records with an empty image_id get no tags. An image absent from the map
    raises UnknownImage, and a source containing a standalone ``##`` raises
    SeparatorCollision, each with the record index.
    """
    pairs = []
    for index, rec in enumerate(corpus.records):
        if _has_standalone_separator(rec.source_text):
            raise SeparatorCollision(SEPARATOR, f"record {index}: {rec.source_text}")
        if not rec.image_id:
            labels = ()
        elif rec.image_id in labels_by_image:
            labels = tuple(labels_by_image[rec.image_id])
        else:
            raise UnknownImage(rec.image_id, record_index=index)
        pairs.append((TaggedSource(text=rec.source_text, tags=labels), rec.target_text))
    return pairs


def tag_corpus(corpus, detector_backend, k=DEFAULT_TOP_K):
    """Tag every record of a corpus: `select_corpus_tags` then `inject_tags`."""
    tagsets = select_corpus_tags(corpus, detector_backend, k=k)
    return inject_tags(corpus, {ts.image_id: ts.labels for ts in tagsets})


def write_tagged_corpus(pairs, path):
    """Write (TaggedSource, target) pairs as a two-column TSV."""
    write_lines((f"{tagged.rendered}\t{target}" for tagged, target in pairs), path)


def read_tagged_corpus(path):
    """Read a tagged-corpus TSV back into (TaggedSource, target) pairs."""
    pairs = []
    for _, (source, target) in tsv_rows(read_lines(path), 2):
        text, labels = parse_tagged(source)
        pairs.append((TaggedSource(text=text, tags=tuple(labels)), target))
    return pairs


def write_tagsets_file(tagsets, path):
    """Write selected TagSets as ``image_id\\tlabel1,label2,...`` lines."""
    write_lines((f"{ts.image_id}\t" + ",".join(ts.labels) for ts in tagsets), path)


def read_tagsets_file(path):
    """Read a tagsets file back into an image_id -> labels mapping."""
    by_image = {}
    for line_number, (image_id, labels) in tsv_rows(read_lines(path), 2):
        image_id = image_id.strip()
        if image_id in by_image:
            raise MalformedLine(line_number, f"repeated image id {image_id!r}")
        by_image[image_id] = split_labels(labels)
    return by_image
