"""Subword vocabulary and tokenizer.

The vocabulary is built with greedy frequency-based pair merging over a
corpus (wordpiece-style), with continuation pieces marked by a leading
"##". Titles and web queries share one vocabulary and one embedding
matrix; `model.content_embed_batch` sums a text's token rows.
"""

from __future__ import annotations

from collections import Counter

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SPECIALS = ["[PAD]", "[UNK]", "[CLS]"]
CONTINUATION = "##"
# lines that _count_words joins before counting their words
_COUNT_RUN = 4096


class Vocab:
    """Immutable token-string <-> id mapping with dense ids."""

    def __init__(self, tokens: list[str]):
        if tokens[: len(SPECIALS)] != SPECIALS:
            raise ValueError("vocab must start with the special tokens")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocab")
        # word -> piece ids, filled by `tokenize`: catalogs reuse a few
        # hundred words across every title
        self._word_ids: dict[str, list[int]] = {}

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for t in self.tokens:
                fh.write(t + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        """Read a vocabulary; an undecodable or invalid file raises
        ValueError naming `path`."""
        try:
            with open(path, encoding="utf-8") as fh:
                tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
            return cls(tokens)
        except ValueError as exc:  # UnicodeDecodeError too
            raise ValueError(f"{path}: {exc}") from None


def _word_pieces(word: str) -> list[str]:
    """Initial character-level segmentation of a word."""
    return [word[0]] + [CONTINUATION + c for c in word[1:]]


def _merge_piece(a: str, b: str) -> str:
    return a + b[len(CONTINUATION):] if b.startswith(CONTINUATION) else a + b


def _count_words(corpus) -> Counter:
    """Lowercased whitespace-split word counts of an iterable of lines, keyed
    in first-seen order. Counted over runs of joined lines: the same counts
    as line by line, without one Python step per word or a copy of the whole
    corpus."""
    word_freq = Counter()
    run: list[str] = []
    for line in corpus:
        run.append(line)
        if len(run) == _COUNT_RUN:
            word_freq.update(" ".join(run).lower().split())
            run.clear()
    word_freq.update(" ".join(run).lower().split())
    return word_freq


def build_vocab(corpus, target_size: int) -> Vocab:
    """Greedy pair-merge vocabulary construction.

    Starts from single characters (word-initial and "##"-continuation
    forms) and repeatedly merges the most frequent adjacent piece pair,
    weighted by word frequency, until target_size pieces exist or no pair
    repeats. Deterministic: ties break lexicographically.
    """
    word_freq = _count_words(corpus)
    if not word_freq:
        raise ValueError("empty corpus")

    segmentations = {w: _word_pieces(w) for w in word_freq}
    alphabet = sorted({p for pieces in segmentations.values() for p in pieces})
    if target_size < len(SPECIALS) + len(alphabet):
        raise ValueError(
            f"target_size {target_size} below specials + alphabet ({len(SPECIALS) + len(alphabet)})"
        )

    pieces: dict[str, None] = dict.fromkeys(alphabet)
    budget = target_size - len(SPECIALS)
    while len(pieces) < budget:
        pair_freq = Counter()
        for w, seg in segmentations.items():
            f = word_freq[w]
            for a, b in zip(seg, seg[1:]):
                pair_freq[(a, b)] += f
        candidates = [(cnt, pair) for pair, cnt in pair_freq.items() if cnt >= 2]
        if not candidates:
            break
        best_cnt = max(c for c, _ in candidates)
        best = min(pair for c, pair in candidates if c == best_cnt)
        merged = _merge_piece(*best)
        if merged in pieces:
            # already present (e.g. formed via a different merge path)
            pieces.pop(merged)
        pieces[merged] = None
        for w, seg in segmentations.items():
            out = []
            i = 0
            while i < len(seg):
                if i + 1 < len(seg) and (seg[i], seg[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seg[i])
                    i += 1
            segmentations[w] = out
    # stable order: specials, then alphabet, then merges in creation order
    return Vocab(SPECIALS + list(pieces))


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Lowercase, whitespace-split, then longest-match-first wordpiece
    segmentation. A word with an uncoverable span becomes a single [UNK]."""
    ids: list[int] = []
    for word in text.lower().split():
        pieces = vocab._word_ids.get(word)
        if pieces is None:
            pieces = vocab._word_ids[word] = _segment_word(word, vocab)
        ids.extend(pieces)
    return ids


def _segment_word(word: str, vocab: Vocab) -> list[int]:
    out = []
    pos = 0
    while pos < len(word):
        prefix = "" if pos == 0 else CONTINUATION
        end = len(word)
        piece_id = None
        while end > pos:
            cand = prefix + word[pos:end]
            if cand in vocab:
                piece_id = vocab.index[cand]
                break
            end -= 1
        if piece_id is None:
            return [UNK_ID]
        out.append(piece_id)
        pos = end
    return out
