"""Caption normalization, word/subword tokenization, and vocabularies.

Token id conventions are fixed across the project: pad=0, bos=1, eos=2,
unk=3.  A framed sequence is ``[bos, ...tokens..., eos]`` with no
interior padding.  The subword tokenizer is a greedy longest-match
segmenter over a vocabulary learned from the training captions;
continuation pieces carry the ``##`` prefix.
"""
from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
SPECIAL_TOKENS = (PAD, BOS, EOS, UNK)

_WORDLIST_DIR = Path(__file__).parent / "wordlists"


def normalize(caption: str) -> str:
    """Lowercase, strip every Unicode punctuation character, collapse spaces."""
    chars = []
    for ch in caption.lower():
        if unicodedata.category(ch).startswith("P"):
            continue
        chars.append(" " if ch.isspace() else ch)
    return " ".join("".join(chars).split())


@dataclass
class Vocabulary:
    """Bijective token <-> id map with reserved special ids."""

    kind: str  # "word" or "subword"
    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.kind not in ("word", "subword"):
            raise ValueError(f"unknown vocabulary kind {self.kind!r}")
        if tuple(self.id_to_token[:4]) != SPECIAL_TOKENS:
            raise ValueError("vocabulary must start with the four special tokens")
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def build_vocab(
    corpus: Iterable[str],
    kind: str = "word",
    min_count: int = 1,
    target_size: int = 512,
) -> Vocabulary:
    """Build a vocabulary from normalized captions.

    Word vocabularies order tokens by frequency (descending) then
    lexicographically, so the result is independent of corpus order.
    Subword vocabularies are learned by `_train_wordpiece`.
    """
    captions = [normalize(c) for c in corpus]
    captions = [c for c in captions if c]
    if not captions:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    if kind == "word":
        counts = Counter(w for c in captions for w in c.split())
        tokens = sorted(
            (t for t, n in counts.items() if n >= min_count),
            key=lambda t: (-counts[t], t),
        )
        return Vocabulary(kind="word", id_to_token=list(SPECIAL_TOKENS) + tokens)
    if kind == "subword":
        pieces = _train_wordpiece(captions, target_size=target_size)
        return Vocabulary(kind="subword", id_to_token=list(SPECIAL_TOKENS) + pieces)
    raise ValueError(f"unknown vocabulary kind {kind!r}")


def _train_wordpiece(captions: Sequence[str], target_size: int = 512) -> list[str]:
    """Frequency-ranked substring pieces for greedy longest-match segmentation.

    Every observed character is always kept (in both word-initial and
    ``##`` continuation form) so training-corpus words never fail to
    segment; remaining slots go to the most frequent substrings.
    """
    word_freq = Counter(w for c in captions for w in c.split())
    piece_freq: Counter[str] = Counter()
    mandatory: set[str] = set()
    for word, f in word_freq.items():
        for i in range(len(word)):
            mandatory.add(word[i] if i == 0 else "##" + word[i])
            for j in range(i + 1, len(word) + 1):
                piece = word[i:j] if i == 0 else "##" + word[i:j]
                piece_freq[piece] += f
    ranked = sorted(piece_freq, key=lambda p: (-piece_freq[p], p))
    pieces = sorted(mandatory, key=lambda p: (-piece_freq[p], p))
    budget = max(target_size - len(SPECIAL_TOKENS), len(pieces))
    for piece in ranked:
        if len(pieces) >= budget:
            break
        if piece not in mandatory:
            pieces.append(piece)
    return pieces


def word_tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Whitespace split of normalized text, framed with bos/eos."""
    ids = [vocab.id_of(w) for w in text.split()]
    return [BOS_ID] + ids + [EOS_ID]


def word_detokenize(ids: Sequence[int], vocab: Vocabulary) -> str:
    words = [
        vocab.id_to_token[i]
        for i in ids
        if i not in (PAD_ID, BOS_ID, EOS_ID)
    ]
    return " ".join(words)


def _segment_word(word: str, vocab: Vocabulary) -> list[str]:
    """Greedy longest-match WordPiece segmentation of one word."""
    out: list[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        match = None
        while start < end:
            piece = word[start:end] if start == 0 else "##" + word[start:end]
            if piece in vocab.token_to_id:
                match = piece
                break
            end -= 1
        if match is None:
            return [UNK]
        out.append(match)
        start = end
    return out


def subword_tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Greedy longest-match segmentation, framed with bos/eos.

    A word containing an unsegmentable character collapses to a single
    unk token.
    """
    ids: list[int] = [BOS_ID]
    for word in text.split():
        for piece in _segment_word(word, vocab):
            ids.append(vocab.token_to_id.get(piece, UNK_ID))
    ids.append(EOS_ID)
    return ids


def subword_detokenize(ids: Sequence[int], vocab: Vocabulary) -> str:
    words: list[str] = []
    for i in ids:
        if i in (PAD_ID, BOS_ID, EOS_ID):
            continue
        piece = vocab.id_to_token[i]
        if piece.startswith("##") and words:
            words[-1] += piece[2:]
        else:
            words.append(piece)
    return " ".join(words)


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    if vocab.kind == "word":
        return word_tokenize(text, vocab)
    return subword_tokenize(text, vocab)


def detokenize(ids: Sequence[int], vocab: Vocabulary) -> str:
    if vocab.kind == "word":
        return word_detokenize(ids, vocab)
    return subword_detokenize(ids, vocab)


def load_wordlist(name: str) -> frozenset[str]:
    """Load one of the shipped wordlists."""
    path = _WORDLIST_DIR / f"{name}.txt"
    words = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    if not words:
        raise ValueError(f"wordlist {path} is empty")
    return frozenset(words)


def load_stopwords() -> frozenset[str]:
    return load_wordlist("stopwords")
