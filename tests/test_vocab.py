import pytest

from tagmt.mt.vocab import (
    RESERVED_TOKENS,
    Vocab,
    build_vocab,
    detokenize,
    tokenize,
    vocab_from_pairs,
)


def test_tokenize_splits_commas_out():
    assert tokenize("a man ## person,horse") == ["a", "man", "##", "person", ",", "horse"]
    assert tokenize("x,") == ["x", ","]
    assert tokenize(",x") == [",", "x"]
    assert tokenize("a,b,c") == ["a", ",", "b", ",", "c"]


def test_detokenize_tightens_commas():
    tokens = ["a", "man", "##", "person", ",", "horse"]
    assert detokenize(tokens) == "a man ## person,horse"
    assert tokenize(detokenize(tokens)) == tokens


def test_tokenize_detokenize_plain_text():
    text = "the dog sees the cat"
    assert detokenize(tokenize(text)) == text


def test_build_vocab_deterministic():
    streams = [["z", "b", "b"], ["a", "z", "q"]]
    v1 = build_vocab([list(s) for s in streams])
    v2 = build_vocab([list(s) for s in streams])
    assert v1.tokens == v2.tokens
    assert v1.token_to_id == v2.token_to_id
    # frequency desc, token asc
    assert v1.tokens[len(RESERVED_TOKENS) :] == ("b", "z", "a", "q")


def test_build_vocab_empty_stream():
    vocab = build_vocab([])
    assert vocab.tokens == RESERVED_TOKENS


def test_reserved_ids_distinct_and_pad_zero():
    vocab = build_vocab([["x"]])
    ids = [vocab.token_to_id[t] for t in RESERVED_TOKENS]
    assert len(set(ids)) == len(ids)
    assert vocab.pad_id == 0
    assert vocab.tokens[0] == "<pad>"


def test_encode_decode_identity_in_vocab():
    vocab = vocab_from_pairs([("a man ## dog,cat", "एक आदमी")])
    tokens = ["a", "man", "##", "dog", ",", "cat", "एक", "आदमी"]
    assert vocab.decode_tokens(vocab.encode_tokens(tokens)) == tokens
    assert vocab.decode(vocab.encode("a man ## dog,cat")) == "a man ## dog,cat"


def test_encode_unk_fallback():
    vocab = build_vocab([["known"]])
    ids = vocab.encode_tokens(["known", "unknown"])
    assert ids[0] == vocab.token_to_id["known"]
    assert ids[1] == vocab.unk_id


def test_vocab_rejects_duplicates_and_missing_reserved():
    with pytest.raises(ValueError):
        Vocab(tokens=RESERVED_TOKENS + ("a", "a"))
    with pytest.raises(ValueError):
        Vocab(tokens=("<pad>", "<bos>"))
    with pytest.raises(ValueError):
        Vocab(tokens=RESERVED_TOKENS[1:] + ("<pad>",))  # pad not id 0
