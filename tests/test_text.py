"""Vocabulary construction, tokenization, and content embeddings."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworank import text
from tworank.autodiff import Tensor
from tworank.text import CLS_ID, PAD_ID, SPECIALS, UNK_ID, Vocab, build_vocab, tokenize

from oracles import content_embed, pieces_of

CORPUS = [
    "red anchor classic", "red beacon", "red anchor pro",
    "blue anchor", "blue beacon mini", "red beacon set",
]


def test_special_ids():
    assert (PAD_ID, UNK_ID, CLS_ID) == (0, 1, 2)
    vocab = build_vocab(CORPUS, 40)
    assert vocab.tokens[:3] == SPECIALS


def test_build_is_deterministic():
    a = build_vocab(CORPUS, 40)
    b = build_vocab(CORPUS, 40)
    assert a.tokens == b.tokens


def test_frequent_word_becomes_single_piece():
    vocab = build_vocab(CORPUS, 60)
    assert "red" in vocab
    assert pieces_of("red", vocab) == ["red"]


def test_pieces_reassemble_to_word():
    vocab = build_vocab(CORPUS, 40)
    for word in ("anchor", "beacon", "classic"):
        pieces = pieces_of(word, vocab)
        rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert rebuilt == word
        assert all(p.startswith("##") for p in pieces[1:])


def test_tokenize_lowercases_and_splits():
    vocab = build_vocab(CORPUS, 60)
    assert tokenize("RED Red red", vocab) == [vocab.index["red"]] * 3


def test_uncoverable_word_maps_to_unk():
    vocab = build_vocab(CORPUS, 40)
    assert tokenize("zzz9", vocab) == [UNK_ID]


def test_longest_match_first():
    vocab = build_vocab(CORPUS, 60)
    # "red" exists as one piece; the tokenizer must not fall back to chars
    ids = tokenize("red", vocab)
    assert len(ids) == 1


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_vocab([], 40)
    with pytest.raises(ValueError):
        build_vocab(["   "], 40)


def test_target_size_below_alphabet_rejected():
    with pytest.raises(ValueError):
        build_vocab(CORPUS, 5)


def test_target_size_cap_respected():
    vocab = build_vocab(CORPUS, 30)
    assert len(vocab) <= 30


def test_save_load_roundtrip(tmp_path):
    vocab = build_vocab(CORPUS, 40)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocab.load(path)
    assert loaded.tokens == vocab.tokens
    # one token per line, plain text
    lines = path.read_text().splitlines()
    assert lines[:3] == SPECIALS


@pytest.mark.parametrize("body, match", [
    (b"\xff\xfe\n", "can't decode byte 0xff"),
    (b"ab\nab\n", "duplicate tokens"),
], ids=["undecodable", "duplicate"])
def test_vocab_load_names_its_file(tmp_path, body, match):
    path = tmp_path / "vocab.txt"
    path.write_bytes("\n".join(SPECIALS).encode() + b"\n" + body)
    with pytest.raises(ValueError, match=match) as info:
        Vocab.load(path)
    assert str(info.value).startswith(f"{path}: ")


def test_vocab_requires_specials_first():
    with pytest.raises(ValueError):
        Vocab(["a", "b", "c"])


def test_unknown_token_lookup():
    vocab = build_vocab(CORPUS, 40)
    assert "nonexistent-piece" not in vocab
    assert tokenize("nonexistent-piece", vocab) == [UNK_ID]
    assert "red" in vocab and vocab.tokens[vocab.index["red"]] == "red"


def _count_words_per_word(corpus) -> Counter:
    """The word count as build_vocab kept it: one increment per word."""
    word_freq = Counter()
    for line in corpus:
        for w in line.lower().split():
            word_freq[w] += 1
    return word_freq


# more lines than one counting run, so that a run boundary falls inside
_MANY_LINES = [f"Word{i % 613} {'ΟΔΟΣ' if i % 5 else 'ΣΑΣ'}\tsku{i % 97}" + " " * (i % 3)
               for i in range(9001)]
assert len(_MANY_LINES) > 2 * text._COUNT_RUN

WORD_COUNT_CORPORA = {
    "blanks": ["  red\tanchor  ", "\tred   beacon\t\t", " ", "blue\u3000anchor\xa0pro"],
    "empty-and-upper": ["", "RED Anchor", "", "red ANCHOR", "Blue"],
    "final-sigma": ["ΟΔΟΣ", "ΟΔΟΣ'", "Σ", "ΑΣ ΣΑ", "οδος Οδος"],
    "many-lines": _MANY_LINES,
}


@pytest.mark.parametrize("corpus", WORD_COUNT_CORPORA.values(), ids=WORD_COUNT_CORPORA.keys())
def test_word_count_matches_the_per_word_loop(corpus, monkeypatch):
    """Counting runs of joined lines gives the per-word counts, keyed in the
    same order, and so the same vocabulary."""
    expected = _count_words_per_word(corpus)
    assert list(text._count_words(corpus).items()) == list(expected.items())
    assert list(text._count_words(line for line in corpus).items()) == list(expected.items())
    target = len(SPECIALS) + len({p for w in expected for p in text._word_pieces(w)}) + 40
    tokens = build_vocab(corpus, target).tokens
    assert build_vocab((line for line in corpus), target).tokens == tokens
    monkeypatch.setattr(text, "_count_words", _count_words_per_word)
    assert build_vocab(corpus, target).tokens == tokens


@given(st.lists(st.text(alphabet="aBΣσς' \t\n\xa0", max_size=12), max_size=30))
@settings(max_examples=200, deadline=None)
def test_word_count_matches_the_per_word_loop_on_any_lines(lines):
    assert (list(text._count_words(lines).items())
            == list(_count_words_per_word(lines).items()))


# ---------------------------------------------------------------------------
# content embeddings
# ---------------------------------------------------------------------------


def test_content_embed_is_row_sum():
    matrix = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = content_embed([1, 3], matrix)
    assert np.allclose(out.data, matrix.data[1] + matrix.data[3])


def test_content_embed_repeated_id_doubles():
    matrix = Tensor(np.arange(12.0).reshape(4, 3))
    out = content_embed([2, 2], matrix)
    assert np.allclose(out.data, 2.0 * matrix.data[2])


def test_content_embed_empty_sequence_is_zero():
    matrix = Tensor(np.ones((4, 3)))
    out = content_embed([], matrix)
    assert np.array_equal(out.data, np.zeros(3))


def test_content_embed_out_of_range():
    matrix = Tensor(np.ones((4, 3)))
    with pytest.raises((IndexError, ValueError)):
        content_embed([4], matrix)


@given(st.permutations(list(range(5))))
@settings(max_examples=30, deadline=None)
def test_content_embed_order_invariant(perm):
    matrix = Tensor(np.random.default_rng(0).normal(size=(6, 4)))
    base = content_embed(list(range(5)), matrix).data
    permuted = content_embed(perm, matrix).data
    assert np.allclose(base, permuted, atol=1e-12)
