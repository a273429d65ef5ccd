"""Greedy and beam decoding over a trained checkpoint.

Both searches decode incrementally: `Transformer.start_decode` computes the
encoder side once, and each step feeds only the newest token of every row to
`Transformer.decode_step`, which keeps a per-layer self-attention K/V cache.
Beam search reorders the cache rows to the surviving hypotheses.

Decoding is deterministic: ties in token scores break toward the lowest
token id, which also makes beam width 1 coincide with greedy search exactly.
No length normalization is applied.
"""

import numpy as np

# sources per greedy batch in translate_corpus
GREEDY_BATCH = 64


def _log_softmax(logits):
    mx = logits.max(axis=-1, keepdims=True)
    s = logits - mx
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def _encode_source(vocab, source_text, max_len):
    ids = vocab.encode(source_text)
    if len(ids) > max_len - 1:
        ids = ids[: max_len - 1]
    return ids + [vocab.eos_id]


def _top(flat, k):
    """Indices of the k largest scores: score descending, then index ascending.

    Over a flattened (row, token) array that is score, then beam row, then
    token id. Only the entries that tie or beat the k-th largest are sorted.
    """
    if flat.size > k:
        cut = np.partition(flat, flat.size - k)[flat.size - k]
        candidates = np.flatnonzero(flat >= cut)
    else:
        candidates = np.arange(flat.size)
    return candidates[np.argsort(-flat[candidates], kind="stable")[:k]]


def greedy_decode_batch(model, src, vocab, max_len):
    """Decode a whole padded source batch step-by-step in lockstep."""
    eos = vocab.eos_id
    b = src.shape[0]
    state = model.start_decode(src)
    nxt = np.full(b, vocab.bos_id, dtype=np.int64)
    done = np.zeros(b, dtype=bool)
    tokens = np.full((b, max_len - 1), eos, dtype=np.int64)
    for step in range(max_len - 1):
        nxt = model.decode_step(nxt, state).argmax(axis=1)
        nxt[done] = eos
        tokens[:, step] = nxt
        done |= nxt == eos
        if done.all():
            break
    ended = tokens == eos
    lengths = np.where(ended.any(axis=1), ended.argmax(axis=1), tokens.shape[1])
    return [row[:n].tolist() for row, n in zip(tokens, lengths)]


def beam_decode(model, src_ids, vocab, max_len, width):
    """Beam search for a single source; returns output ids without bos/eos."""
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    eos = vocab.eos_id
    state = model.start_decode(np.array([src_ids], dtype=np.int64))
    scores = np.zeros(1)
    ys = np.full((1, 1), vocab.bos_id, dtype=np.int64)
    finished = []
    for _ in range(max_len - 1):
        if not len(ys):
            break
        logp = _log_softmax(model.decode_step(ys[:, -1], state))
        flat = (scores[:, None] + logp).ravel()
        best = _top(flat, width)
        rows, toks = np.divmod(best, logp.shape[1])
        ended = toks == eos
        finished.extend(zip(flat[best[ended]].tolist(), ys[rows[ended], 1:].tolist()))
        rows, toks = rows[~ended], toks[~ended]
        scores = flat[best[~ended]]
        ys = np.concatenate([ys[rows], toks[:, None]], axis=1)
        state.reorder(rows)
    pool = finished + list(zip(scores.tolist(), ys[:, 1:].tolist()))
    pool.sort(key=lambda c: (-c[0], len(c[1]), c[1]))
    return pool[0][1]


def translate(checkpoint, source_text, decode="greedy", beam_width=4, max_len=None):
    """Translate one source string; total over arbitrary input text."""
    return translate_corpus(
        checkpoint, [source_text], decode=decode, beam_width=beam_width, max_len=max_len
    )[0]


def translate_corpus(checkpoint, source_texts, decode="greedy", beam_width=4, max_len=None):
    """Translate a list of sources, batching greedy decoding GREEDY_BATCH at a time.

    max_len caps source and hypothesis lengths at the checkpoint's max_len;
    None means the checkpoint's own.
    """
    if decode not in ("greedy", "beam"):
        raise ValueError(f"decode must be 'greedy' or 'beam', got {decode!r}")
    if max_len is not None and max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    vocab = checkpoint.vocab
    model = checkpoint.build_model()
    limit = checkpoint.config.max_len
    max_len = limit if max_len is None else min(max_len, limit)
    if decode == "beam":
        out = []
        for text in source_texts:
            ids = _encode_source(vocab, text, max_len)
            out.append(vocab.decode(beam_decode(model, ids, vocab, max_len, beam_width)))
        return out
    results = []
    for start in range(0, len(source_texts), GREEDY_BATCH):
        batch_texts = source_texts[start : start + GREEDY_BATCH]
        encoded = [_encode_source(vocab, t, max_len) for t in batch_texts]
        s_max = max(len(ids) for ids in encoded)
        src = np.full((len(encoded), s_max), vocab.pad_id, dtype=np.int64)
        for row, ids in enumerate(encoded):
            src[row, : len(ids)] = ids
        for out_ids in greedy_decode_batch(model, src, vocab, max_len):
            results.append(vocab.decode(out_ids))
    return results
