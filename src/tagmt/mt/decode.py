"""Decoding over a trained checkpoint: one batched beam search.

`beam_search` decodes a padded batch of sources at once, and greedy search is
beam width 1. Every live sentence holds `width` consecutive rows of one
`DecodeState`: `Transformer.start_decode` computes the encoder side once, each
step feeds only the newest token of every row to `Transformer.decode_step`,
which keeps a per-layer self-attention K/V cache, and `DecodeState.reorder`
moves the cache rows to the surviving hypotheses. A slot that holds no
hypothesis scores -inf; a sentence leaves the batch once all its slots are.

A step holds its activations as one (rows, d) matrix, so each projection is
one GEMM over every row of the batch. BLAS may round a GEMM's rows differently
at another row count, so batching can move logits in the last bits: a
sentence's hypothesis decoded in a batch equals the one decoded alone except
where two candidates tie to within that rounding.

A step scores every (row, token) extension of a sentence's hypotheses by the
hypothesis score plus the token's log-probability and keeps the `width` best.
Ties break by score descending, then beam row, then token id, so decoding is
deterministic and width 1 takes the lowest-id most likely token. A hypothesis
that picks eos is finished. The result is the best of the finished and still
open hypotheses: score descending, then shorter, then the smaller id list.
No length normalization is applied.

Decoding is bound by small numpy calls that hold the GIL, so a second thread
gains nothing; `translate_corpus` uses a second process instead. When the
CPUs hold two processes' BLAS threads (`forking.can_fork`: two CPUs with
`OPENBLAS_NUM_THREADS=1`; not unpinned BLAS, whose 2 threads on 2 CPUs keep
decoding in one process) and the work is at least FORK_MIN_WORK decoder
row-positions, a forked child decodes the first half of the sources while
this process decodes the second, each half in batches as before. A call made
inside `forking.alongside`'s block or child, as the pipeline's synthesizer
decodes are, runs in place. On 2 vCPUs at d=128 (scripts/fork_break_even.py)
the fork's cost, tens of milliseconds, outweighed the half it saves at most
shapes of 128 row-positions, and the fork won at most of 256 and at all from
512 up. The hypotheses are those of the in-place
path wherever a GEMM row's bits do not depend on the row count (OpenBLAS at
output widths that are multiples of 8), the same condition as batching.
"""

import numpy as np

from ..errors import ConfigError, TagmtError, check_choice
from ..forking import alongside, can_fork

DECODE_METHODS = ("greedy", "beam")

# most decoder rows per batch in translate_corpus: BATCH_ROWS // width sources
BATCH_ROWS = 64
# fewest decoder row-positions (sources x width x max_len) that translate_corpus
# splits between two processes: the fork's measured break-even at d=128
FORK_MIN_WORK = 256


def _log_softmax(logits):
    mx = logits.max(axis=-1, keepdims=True)
    s = logits - mx
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def _encode_source(vocab, source_text, max_len):
    ids = vocab.encode(source_text)
    if len(ids) > max_len - 1:
        ids = ids[: max_len - 1]
    return ids + [vocab.eos_id]


def beam_search(model, src, vocab, max_len, width):
    """Beam search for every row of a padded source batch; width 1 is greedy.

    Returns one list of output ids, without bos/eos, per source row. Raises
    TagmtError when a sentence ends with no hypothesis of finite score, as
    when the model's scores overflow to NaN.
    """
    eos = vocab.eos_id
    state = model.start_decode(src)
    state.reorder(np.repeat(np.arange(len(src)), width))
    sentence = np.arange(len(src))  # source row of each live sentence
    scores = np.full((len(src), width), -np.inf)
    scores[:, 0] = 0.0
    ys = np.full((len(src) * width, 1), vocab.bos_id, dtype=np.int64)
    pools = [[] for _ in range(len(src))]
    for _ in range(max_len - 1):
        if not len(sentence):
            break
        logp = _log_softmax(model.decode_step(ys[:, -1], state))
        flat = (scores.reshape(-1, 1) + logp).reshape(len(sentence), -1)
        live = np.arange(len(sentence))
        picks = np.empty((len(sentence), width), dtype=np.int64)
        for slot in range(width):
            # argmax takes the first maximum: the lowest beam row, then token id
            picks[:, slot] = flat.argmax(axis=1)
            scores[:, slot] = flat[live, picks[:, slot]]
            flat[live, picks[:, slot]] = -np.inf
        rows, toks = np.divmod(picks, logp.shape[1])
        rows += live[:, None] * width
        for i, slot in zip(*np.nonzero((toks == eos) & (scores > -np.inf))):
            pools[sentence[i]].append((float(scores[i, slot]), ys[rows[i, slot], 1:].tolist()))
        scores[toks == eos] = -np.inf
        keep = (scores > -np.inf).any(axis=1)
        sentence, scores = sentence[keep], scores[keep]
        rows, toks = rows[keep].ravel(), toks[keep].ravel()
        ys = np.concatenate([ys[rows], toks[:, None]], axis=1)
        state.reorder(rows)
    for row, score in enumerate(scores.ravel()):
        if score > -np.inf:
            pools[sentence[row // width]].append((float(score), ys[row, 1:].tolist()))
    if not all(pools):
        raise TagmtError("beam search found no hypothesis: the model's scores were not finite")
    return [min(pool, key=lambda c: (-c[0], len(c[1]), c[1]))[1] for pool in pools]


def check_decode(method, beam_width, max_len):
    """The one check of the [decode] settings and `translate_corpus`'s arguments:
    ConfigError, led by the key, unless method is one of DECODE_METHODS,
    beam_width >= 1 (under greedy too) and max_len is None or >= 2."""
    check_choice("method", method, DECODE_METHODS)
    if beam_width < 1:
        raise ConfigError(f"beam_width must be >= 1, got {beam_width}")
    if max_len is not None and max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")


def translate_corpus(checkpoint, source_texts, decode="greedy", beam_width=4, max_len=None):
    """Translate a list of sources by batched beam search; greedy is width 1.

    Sources are decoded BATCH_ROWS // width at a time (at least one).
    max_len caps source and hypothesis lengths at the checkpoint's max_len;
    None means the checkpoint's own. A bad decode mode, width or max_len
    raises ConfigError (`check_decode`). From FORK_MIN_WORK decoder
    row-positions (sources x width x max_len) up, when `forking.can_fork()`,
    a forked child decodes the first half of the sources while this process
    decodes the second.
    """
    check_decode(decode, beam_width, max_len)
    width = 1 if decode == "greedy" else beam_width
    vocab = checkpoint.vocab
    model = checkpoint.build_model()
    limit = checkpoint.config.max_len
    max_len = limit if max_len is None else min(max_len, limit)
    chunk = max(1, BATCH_ROWS // width)

    def translate(texts):
        results = []
        for start in range(0, len(texts), chunk):
            encoded = [_encode_source(vocab, t, max_len) for t in texts[start : start + chunk]]
            src = np.full((len(encoded), max(map(len, encoded))), vocab.pad_id, dtype=np.int64)
            for row, ids in enumerate(encoded):
                src[row, : len(ids)] = ids
            results.extend(vocab.decode(ids) for ids in beam_search(model, src, vocab, max_len, width))
        return results

    n = len(source_texts)
    if n < 2 or n * width * max_len < FORK_MIN_WORK or not can_fork():
        return translate(source_texts)
    half = n // 2
    with alongside(lambda: translate(source_texts[:half])) as first:
        second = translate(source_texts[half:])
    return first.value + second
