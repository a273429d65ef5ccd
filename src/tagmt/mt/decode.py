"""Greedy and beam decoding over a trained checkpoint.

Decoding is deterministic: ties in token scores break toward the lowest
token id, which also makes beam width 1 coincide with greedy search exactly.
No length normalization is applied.
"""

import numpy as np


def _log_softmax(logits):
    mx = logits.max(axis=-1, keepdims=True)
    s = logits - mx
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def _encode_source(vocab, source_text, max_len):
    ids = vocab.encode(source_text)
    if len(ids) > max_len - 1:
        ids = ids[: max_len - 1]
    return ids + [vocab.eos_id]


def greedy_decode_batch(model, src, vocab, max_len):
    """Decode a whole padded source batch step-by-step in lockstep."""
    bos, eos = vocab.bos_id, vocab.eos_id
    b = src.shape[0]
    memory, src_bias = model.encode(src)
    ys = np.full((b, 1), bos, dtype=np.int64)
    done = np.zeros(b, dtype=bool)
    outputs = [[] for _ in range(b)]
    for _ in range(max_len - 1):
        logits = model.decode_logits(ys, memory, src_bias)[:, -1, :]
        nxt = logits.argmax(axis=1)
        nxt[done] = eos
        for row in range(b):
            if done[row]:
                continue
            if nxt[row] == eos:
                done[row] = True
            else:
                outputs[row].append(int(nxt[row]))
        if done.all():
            break
        ys = np.concatenate([ys, nxt[:, None]], axis=1)
    return outputs


def beam_decode(model, src_ids, vocab, max_len, width):
    """Beam search for a single source; returns output ids without bos/eos."""
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    bos, eos = vocab.bos_id, vocab.eos_id
    src = np.array([src_ids], dtype=np.int64)
    memory, src_bias = model.encode(src)
    active = [(0.0, [bos])]
    finished = []
    for _ in range(max_len - 1):
        if not active:
            break
        ys = np.array([ids for _, ids in active], dtype=np.int64)
        mem = np.repeat(memory, len(active), axis=0)
        bias = np.repeat(src_bias, len(active), axis=0)
        logp = _log_softmax(model.decode_logits(ys, mem, bias)[:, -1, :])
        candidates = []
        for row, (score, ids) in enumerate(active):
            for tok in range(logp.shape[1]):
                candidates.append((score + float(logp[row, tok]), row, tok, ids))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_active = []
        for score, _, tok, ids in candidates[:width]:
            if tok == eos:
                finished.append((score, ids[1:]))
            else:
                next_active.append((score, ids + [tok]))
        active = next_active
    pool = finished + [(score, ids[1:]) for score, ids in active]
    pool.sort(key=lambda c: (-c[0], len(c[1]), c[1]))
    return pool[0][1]


def translate(checkpoint, source_text, decode="greedy", beam_width=4, max_len=None):
    """Translate one source string; total over arbitrary input text."""
    return translate_corpus(
        checkpoint, [source_text], decode=decode, beam_width=beam_width, max_len=max_len
    )[0]


def translate_corpus(
    checkpoint, source_texts, decode="greedy", beam_width=4, max_len=None, chunk=64
):
    """Translate a list of sources, batching greedy decoding for speed."""
    if decode not in ("greedy", "beam"):
        raise ValueError(f"decode must be 'greedy' or 'beam', got {decode!r}")
    vocab = checkpoint.vocab
    model = checkpoint.build_model()
    max_len = max_len or checkpoint.config.max_len
    max_len = min(max_len, checkpoint.config.max_len)
    if decode == "beam":
        out = []
        for text in source_texts:
            ids = _encode_source(vocab, text, max_len)
            out.append(vocab.decode(beam_decode(model, ids, vocab, max_len, beam_width)))
        return out
    results = []
    for start in range(0, len(source_texts), chunk):
        batch_texts = source_texts[start : start + chunk]
        encoded = [_encode_source(vocab, t, max_len) for t in batch_texts]
        s_max = max(len(ids) for ids in encoded)
        src = np.full((len(encoded), s_max), vocab.pad_id, dtype=np.int64)
        for row, ids in enumerate(encoded):
            src[row, : len(ids)] = ids
        for out_ids in greedy_decode_batch(model, src, vocab, max_len):
            results.append(vocab.decode(out_ids))
    return results
