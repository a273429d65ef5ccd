"""Decoding over a trained checkpoint: one batched beam search.

`beam_search` decodes a padded batch of sources at once, and greedy search is
beam width 1: the beam width is the one search setting ([decode] beam_width,
default 1). Lengths come from the checkpoint's max_len: a source keeps its
first max_len - 1 tokens and eos, and a hypothesis holds at most max_len - 1
tokens. Every live sentence holds `width` consecutive rows of one
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
gains nothing; `translate_corpus` uses a second process instead. Its batch
plan is a function of the call alone: ceil(n / (BATCH_ROWS // width))
contiguous batches of equal size (within one source), their count rounded up
to even (never above n) when the work, decoder row-positions times
model_dim, is at least FORK_MIN_WORK. From there, when `forking.can_fork()`
(two CPUs, and not inside `forking.alongside`, as the pipeline's synthesizer
decodes are), a forked child decodes the first half of the batches while
this process decodes the second. Each batch has the same input on either
path and BLAS runs one thread in both processes, so the forked hypotheses
equal the in-place ones, by construction. On 2 vCPUs
(scripts/fork_break_even.py) the fork's cost, tens of milliseconds,
outweighed the half it saves at d=128 at most shapes of 128 row-positions,
and the fork won at most of 256 and at all from 512 up; at d=32, where a
row-position costs about a quarter as much, it lost up to ~1024 greedy and
~1536 beam row-positions. Scaling the row-positions by model_dim puts the
break-even at 256 at d=128 and 1024 at d=32.
"""

import numpy as np

from ..errors import ConfigError, TagmtError, check_choice
from ..forking import alongside, can_fork
from .vocab import pad_rows

# what translate_corpus's decode= may name; "greedy" is beam width 1
DECODE_METHODS = ("greedy", "beam")
# the beam width of translate_corpus and of [decode] by default: greedy search
DEFAULT_BEAM_WIDTH = 1

# most decoder rows per batch in translate_corpus: BATCH_ROWS // width sources
BATCH_ROWS = 64
# fewest decoder row-positions (sources x width x max_len) times model_dim for
# which translate_corpus plans an even batch count, to split between two
# processes: 256 row-positions at d=128, the fork's measured break-even
# there, and 1024 at d=32
FORK_MIN_WORK = 256 * 128


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


def check_decode(beam_width):
    """The one check of [decode] beam_width and `translate_corpus`'s width:
    ConfigError, led by the key, unless beam_width >= 1."""
    if beam_width < 1:
        raise ConfigError(f"beam_width must be >= 1, got {beam_width}")


def check_beam_width(beam_width, vocab):
    """ConfigError unless the beam is at most as wide as the vocabulary."""
    if beam_width > len(vocab):
        raise ConfigError(f"beam_width must be <= the vocabulary size {len(vocab)}, got {beam_width}")


def translate_corpus(checkpoint, source_texts, decode="beam", beam_width=DEFAULT_BEAM_WIDTH):
    """Translate a list of sources by batched beam search of beam_width;
    width 1 is greedy search, and decode="greedy" sets it.

    Sources are decoded in the module docstring's batch plan, at most
    BATCH_ROWS // width a batch (at least one). The checkpoint's max_len
    bounds source and hypothesis lengths. A decode outside DECODE_METHODS, a
    bad width (`check_decode`) and a beam wider than the checkpoint's
    vocabulary (`check_beam_width`) raise ConfigError before anything is
    allocated. From FORK_MIN_WORK decoder row-positions (sources x width x
    max_len) times model_dim up, when `forking.can_fork()`, a forked child
    decodes the first half of the batches while this process decodes the
    second, with the hypotheses of the plan run in place.
    """
    check_choice("decode", decode, DECODE_METHODS)
    width = 1 if decode == "greedy" else beam_width
    check_decode(width)
    vocab = checkpoint.vocab
    check_beam_width(width, vocab)
    model = checkpoint.build_model()
    max_len = checkpoint.config.max_len
    n = len(source_texts)
    forkable = n * width * max_len * checkpoint.config.model_dim >= FORK_MIN_WORK
    count = -(-n // max(1, BATCH_ROWS // width))
    count = min(count + count % 2, n) if forkable else count
    batches = [source_texts[i * n // count : (i + 1) * n // count] for i in range(count)]

    def translate(plan):
        results = []
        for texts in plan:
            src = pad_rows([_encode_source(vocab, t, max_len) for t in texts], vocab.pad_id)
            results.extend(vocab.decode(ids) for ids in beam_search(model, src, vocab, max_len, width))
        return results

    half = count // 2
    if not (forkable and half and can_fork()):
        return translate(batches)
    with alongside(lambda: translate(batches[:half])) as first:
        second = translate(batches[half:])
    return first.value + second
