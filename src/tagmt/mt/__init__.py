"""Compact seq2seq machine translation: vocabulary, model, training, decoding."""

from .decode import translate_corpus
from .kernels import BACKEND
from .model import ModelConfig, Transformer
from .train import Checkpoint, fine_tune, train
from .vocab import RESERVED_TOKENS, Vocab, build_vocab, detokenize, tokenize, vocab_from_pairs

__all__ = [
    "BACKEND",
    "Checkpoint",
    "ModelConfig",
    "RESERVED_TOKENS",
    "Transformer",
    "Vocab",
    "build_vocab",
    "detokenize",
    "fine_tune",
    "tokenize",
    "train",
    "translate_corpus",
    "vocab_from_pairs",
]
