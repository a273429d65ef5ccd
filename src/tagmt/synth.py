"""Synthetic tag features for text-only bitext.

A seq2seq synthesizer is trained on inverted multimodal data: the input is
``<source> <sep> <target>`` and the output is the comma-joined tag list the
detector produced for that record. Decoding the trained model over text-only
pairs yields synthetic tag sets, turning plain bitext into multimodal-format
training data: `enrich_corpus` returns a tagged corpus, as `tag_corpus` does.
"""

from .errors import DataError, SeparatorCollision
from .mt.decode import translate_corpus
from .mt.train import train
from .tagging import DEFAULT_TOP_K, check_k, check_untagged, parse_tagged, render_tagged, split_labels

SEP_TOKEN = "<sep>"
# share of the synthesizer pairs held out for validation and the fit check
HELDOUT_FRACTION = 0.05


def _sep_input(index, source, target):
    """The synthesizer input ``source <sep> target`` of record ``index``;
    raises SeparatorCollision naming the record if either side holds a
    standalone ``<sep>``."""
    for text in (source, target):
        if SEP_TOKEN in text.split():
            raise SeparatorCollision(SEP_TOKEN, f"record {index}: {text}")
    return f"{source} {SEP_TOKEN} {target}"


def build_synth_pairs(tagged_corpus):
    """Invert a tagged corpus into synthesizer training pairs.

    Each (rendered source, target) record is split with `parse_tagged` and
    becomes the string pair (input ``src <sep> tgt``, output
    ``label1,label2,...``); the output is the empty string when the record
    carries no tags. Order is preserved.
    """
    pairs = []
    for index, (rendered, target) in enumerate(tagged_corpus):
        text, labels = parse_tagged(rendered)
        pairs.append((_sep_input(index, text, target), ",".join(labels)))
    return pairs


def split_heldout(pairs):
    """The (training, held-out) parts of synthesizer pairs: the tail
    HELDOUT_FRACTION is held out, at least one pair of two or more."""
    n_held = max(1, round(len(pairs) * HELDOUT_FRACTION)) if len(pairs) > 1 else 0
    return pairs[: len(pairs) - n_held], pairs[len(pairs) - n_held :]


def train_synthesizer(pairs, config, log=None):
    """Train the tag synthesizer and measure held-out exact-match fit.

    The pairs `split_heldout` holds out are split off before training and
    used both as the validation set and for an exact-match check of decoded
    tag sets. The measured fit is stored in training_meta["synth_fit"]; a
    value below config.synth_fit_threshold is not fatal, since the tag
    function of real data need not be learnable, and `low_fit` words it.
    `log` receives the training's validation lines.
    """
    if not pairs:
        raise DataError("no synthesizer training pairs")
    used, held = split_heldout(pairs)
    checkpoint = train(config, used, held, log=log)

    if held:
        decoded = translate_corpus(checkpoint, [src for src, _ in held])
        hits = sum(
            set(split_labels(output)) == set(split_labels(want))
            for output, (_, want) in zip(decoded, held)
        )
        fit = hits / len(held)
    else:
        fit = None
    checkpoint.training_meta["synth_fit"] = fit
    checkpoint.training_meta["synth_heldout"] = len(held)
    return checkpoint


def low_fit(checkpoint, config):
    """The sentence that reports a synthesizer's held-out fit below
    config.synth_fit_threshold, or None when it reached it or none was
    measured."""
    fit = checkpoint.training_meta.get("synth_fit")
    if fit is not None and fit < config.synth_fit_threshold:
        return (
            f"synthesizer held-out exact-match {fit:.3f} is below the "
            f"configured threshold {config.synth_fit_threshold:.3f}"
        )
    return None


def tags_from_decoded(decoded, vocabulary, k=DEFAULT_TOP_K):
    """Turn a raw decoded string into a tuple of at most k labels (total on
    any string; k must be >= 1, as in select_tags).

    The string is split on commas; labels outside the tag vocabulary are
    dropped, duplicates keep their first occurrence, and the result is
    truncated to k.
    """
    check_k(k)
    known = set(vocabulary)
    labels = []
    for label in split_labels(decoded):
        if label in labels or label not in known:
            continue
        labels.append(label)
        if len(labels) == k:
            break
    return tuple(labels)


def enrich_corpus(bitext, checkpoint, vocabulary, k=DEFAULT_TOP_K):
    """Decode synthetic tags for every ``(source, target)`` pair of a bitext
    into (rendered source, target) pairs.

    Output order and target texts match the input exactly. k is checked,
    and every pair for a reserved ``##`` or ``<sep>``, before anything is
    decoded.
    """
    check_k(k)
    inputs = []
    for index, (source, target) in enumerate(bitext):
        check_untagged(index, source)
        inputs.append(_sep_input(index, source, target))
    decoded = translate_corpus(checkpoint, inputs)
    tags = (tags_from_decoded(output, k=k, vocabulary=vocabulary) for output in decoded)
    return [
        (render_tagged(source, labels), target)
        for (source, target), labels in zip(bitext, tags)
    ]
