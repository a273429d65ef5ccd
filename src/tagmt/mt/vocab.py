"""Whitespace-level tokenization and a deterministic shared vocabulary.

Tokenization splits on whitespace, then splits any comma-joined chunk into
(label, comma) token pairs so the tag-list protocol tokens stay atomic:
``"a man ## person,horse"`` becomes ``a man ## person , horse``.
Detokenization re-tightens commas, which makes it an exact inverse on
protocol-shaped strings.
"""

import re
from dataclasses import dataclass, field

import numpy as np

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED_TOKENS = (PAD, BOS, EOS, UNK, "##", "<sep>", ",")

_COMMA_TIGHTEN = re.compile(r"\s*,\s*")


def tokenize(text):
    tokens = []
    for chunk in text.split():
        if "," not in chunk:
            tokens.append(chunk)
            continue
        parts = chunk.split(",")
        for i, part in enumerate(parts):
            if part:
                tokens.append(part)
            if i < len(parts) - 1:
                tokens.append(",")
    return tokens


def detokenize(tokens):
    return _COMMA_TIGHTEN.sub(",", " ".join(tokens))


def pad_rows(rows, pad):
    """The id sequences `rows` as one (len(rows), longest) int64 batch, padded with pad."""
    batch = np.full((len(rows), max(map(len, rows))), pad, dtype=np.int64)
    for row, ids in enumerate(rows):
        batch[row, : len(ids)] = ids
    return batch


@dataclass(frozen=True)
class Vocab:
    """Token table with fixed reserved tokens; pad is always id 0."""

    tokens: tuple[str, ...]
    token_to_id: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(
            self, "token_to_id", {tok: i for i, tok in enumerate(self.tokens)}
        )
        if len(self.token_to_id) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        for tok in RESERVED_TOKENS:
            if tok not in self.token_to_id:
                raise ValueError(f"reserved token {tok!r} missing from vocabulary")
        if self.token_to_id[PAD] != 0:
            raise ValueError("pad token must have id 0")

    def __len__(self):
        return len(self.tokens)

    @property
    def pad_id(self):
        return 0

    @property
    def bos_id(self):
        return self.token_to_id[BOS]

    @property
    def eos_id(self):
        return self.token_to_id[EOS]

    @property
    def unk_id(self):
        return self.token_to_id[UNK]

    def encode_tokens(self, tokens):
        unk = self.unk_id
        return [self.token_to_id.get(tok, unk) for tok in tokens]

    def encode(self, text):
        return self.encode_tokens(tokenize(text))

    def decode_tokens(self, ids):
        return [self.tokens[i] for i in ids]

    def decode(self, ids):
        return detokenize(self.decode_tokens(ids))


def build_vocab(token_streams):
    """Count tokens across streams and keep every token seen.

    Ordering is deterministic: reserved tokens first, then by frequency
    descending, token ascending.
    """
    counts = {}
    for stream in token_streams:
        for tok in stream:
            counts[tok] = counts.get(tok, 0) + 1
    reserved_set = set(RESERVED_TOKENS)
    kept = [
        tok
        for tok, _ in sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        if tok not in reserved_set
    ]
    return Vocab(tokens=RESERVED_TOKENS + tuple(kept))


def vocab_from_pairs(pairs):
    """Build a shared vocabulary over both sides of (source, target) pairs."""
    streams = []
    for src, tgt in pairs:
        streams.append(tokenize(src))
        streams.append(tokenize(tgt))
    return build_vocab(streams)
