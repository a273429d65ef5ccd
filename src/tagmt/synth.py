"""Synthetic tag features for text-only bitext.

A seq2seq synthesizer is trained on inverted multimodal data: the input is
``<source> <sep> <target>`` and the output is the comma-joined tag list the
detector produced for that record. Decoding the trained model over text-only
pairs yields synthetic tag sets, turning plain bitext into multimodal-format
training data.
"""

from dataclasses import dataclass, field

from .errors import EmptyCorpus, MalformedLine, SeparatorCollision
from .fileio import atomic_write, read_lines, write_lines
from .mt.decode import translate_corpus
from .mt.train import train
from .tagging import TagRecord, TagSet, TaggedSource, check_k

SEP_TOKEN = "<sep>"

CONFIDENCE_RAMP_STEP = 1e-6


@dataclass(frozen=True)
class SynthPair:
    input_text: str
    output_text: str


@dataclass
class EnrichedCorpus:
    """Tagged pairs plus provenance: detector tags (natural) or decoded ones
    (synthetic)."""

    pairs: list = field(default_factory=list)
    provenance: list = field(default_factory=list)

    def __len__(self):
        return len(self.pairs)


def _check_no_sep(text):
    if SEP_TOKEN in text.split():
        raise SeparatorCollision(SEP_TOKEN, text)


def build_synth_pairs(tagged_corpus):
    """Invert a tagged corpus into synthesizer training pairs.

    Each (TaggedSource, target) record becomes input ``src <sep> tgt`` and
    output ``label1,label2,...`` (the empty string when the record carries
    no tags). Order is preserved.
    """
    pairs = []
    for tagged, target in tagged_corpus:
        _check_no_sep(tagged.text)
        _check_no_sep(target)
        pairs.append(
            SynthPair(
                input_text=f"{tagged.text} {SEP_TOKEN} {target}",
                output_text=",".join(tagged.tags),
            )
        )
    return pairs


def train_synthesizer(pairs, config, heldout_fraction=0.05, log=None):
    """Train the tag synthesizer and measure held-out exact-match fit.

    The tail heldout_fraction of the pairs is split off before training and
    used both as the validation set and for an exact-match check of decoded
    tag sets. The measured fit is stored in training_meta["synth_fit"]; a
    value below config.synth_fit_threshold is reported through log but not
    fatal, since the tag function of real data need not be learnable.
    """
    if not pairs:
        raise EmptyCorpus("no synthesizer training pairs")
    n_held = max(1, round(len(pairs) * heldout_fraction)) if len(pairs) > 1 else 0
    held = pairs[len(pairs) - n_held :]
    used = pairs[: len(pairs) - n_held]
    if not used:
        used, held = pairs, []
    string_pairs = [(p.input_text, p.output_text) for p in used]
    held_pairs = [(p.input_text, p.output_text) for p in held]
    checkpoint = train(config, string_pairs, held_pairs, log=log)

    if held:
        decoded = translate_corpus(checkpoint, [src for src, _ in held_pairs])
        hits = 0
        for output, (_, want) in zip(decoded, held_pairs):
            want_set = {label for label in want.split(",") if label}
            got_set = {label for label in output.split(",") if label}
            hits += got_set == want_set
        fit = hits / len(held)
    else:
        fit = None
    checkpoint.training_meta["synth_fit"] = fit
    checkpoint.training_meta["synth_heldout"] = len(held)
    if fit is not None and fit < config.synth_fit_threshold and log is not None:
        log(
            f"synthesizer held-out exact-match {fit:.3f} is below the "
            f"configured threshold {config.synth_fit_threshold:.3f}"
        )
    return checkpoint


def tags_from_decoded(decoded, k=10, vocabulary=None, image_id=""):
    """Turn a raw decoded string into a valid TagSet (total on any string;
    k must be >= 1, as in select_tags).

    The string is split on commas; labels outside the tag vocabulary are
    dropped, duplicates keep their first occurrence, and the result is
    truncated to k. Confidences are a synthetic descending ramp so the
    TagSet ordering invariant holds; they carry no detector meaning.
    """
    check_k(k)
    known = set(vocabulary) if vocabulary is not None else None
    labels = []
    seen = set()
    for part in decoded.split(","):
        label = part.strip()
        if not label or label in seen:
            continue
        if known is not None and label not in known:
            continue
        seen.add(label)
        labels.append(label)
        if len(labels) == k:
            break
    tags = tuple(
        TagRecord(label=label, confidence=1.0 - i * CONFIDENCE_RAMP_STEP)
        for i, label in enumerate(labels)
    )
    return TagSet(tags=tags, image_id=image_id)


def enrich_corpus(bitext, checkpoint, k=10, vocabulary=None):
    """Decode synthetic tags for every record of a text-only corpus.

    Output order and target texts match the input exactly; every pair is
    marked synthetic. k is checked before anything is decoded.
    """
    check_k(k)
    inputs = []
    for index, rec in enumerate(bitext.records):
        try:
            _check_no_sep(rec.source_text)
            _check_no_sep(rec.target_text)
        except SeparatorCollision as err:
            raise SeparatorCollision(SEP_TOKEN, f"record {index}: {err.text}") from None
        inputs.append(f"{rec.source_text} {SEP_TOKEN} {rec.target_text}")
    decoded = translate_corpus(checkpoint, inputs)
    enriched = EnrichedCorpus()
    for rec, output in zip(bitext.records, decoded):
        tagset = tags_from_decoded(output, k=k, vocabulary=vocabulary)
        tagged = TaggedSource(text=rec.source_text, tags=tuple(tagset.labels))
        enriched.pairs.append((tagged, rec.target_text))
        enriched.provenance.append("synthetic")
    return enriched


def write_synth_pairs(pairs, path):
    write_lines((f"{pair.input_text}\t{pair.output_text}" for pair in pairs), path)


def read_synth_pairs(path):
    pairs = []
    for line_number, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedLine(
                line_number, f"expected 2 tab-separated fields, got {len(fields)}"
            )
        pairs.append(SynthPair(input_text=fields[0], output_text=fields[1]))
    return pairs


def write_enriched_corpus(enriched, path):
    with atomic_write(path) as out:
        for (tagged, target), provenance in zip(enriched.pairs, enriched.provenance):
            out.write(f"{tagged.rendered}\t{target}\t{provenance}\n")


def read_enriched_corpus(path):
    from .tagging import parse_tagged

    enriched = EnrichedCorpus()
    for line_number, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(
                line_number, f"expected 3 tab-separated fields, got {len(fields)}"
            )
        text, labels = parse_tagged(fields[0])
        enriched.pairs.append((TaggedSource(text=text, tags=tuple(labels)), fields[1]))
        enriched.provenance.append(fields[2])
    return enriched
