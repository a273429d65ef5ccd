"""Compact seq2seq machine translation: vocabulary, model, training, decoding."""
