"""Greedy longest-match subword tokenizer and first-subtoken alignment.

The vocabulary is learned from a corpus by frequency-ranking substrings:
word-initial pieces are stored verbatim, continuation pieces carry a "##"
marker, and every character ever seen is kept in both forms so that any
token over known characters always decomposes. When a token splits into
several pieces, downstream taggers predict only at its first piece; the
alignment that :func:`encode` returns with a tweet's piece ids records where
those first pieces live. ``encode`` (one tweet) and ``tokenize`` (one token)
are the whole tokenizing interface; the benchmark in ``bench/`` times the
one and counts calls of the other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .corpus import Corpus, CorpusError

PAD = "[PAD]"
UNK = "[UNK]"
CLS = "[CLS]"
SEP = "[SEP]"
SPECIALS = (PAD, UNK, CLS, SEP)

_MAX_PIECE_LEN = 12


@dataclass(frozen=True)
class SubwordVocab:
    """Piece inventory with ids; specials first, then single characters,
    then ranked multi-character pieces."""

    pieces: tuple[str, ...]

    def __post_init__(self):
        if self.pieces[: len(SPECIALS)] != SPECIALS:
            raise CorpusError("subword vocabulary must start with the special tokens")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.pieces)})
        initial = set()
        continuation = set()
        for p in self.pieces[len(SPECIALS) :]:
            if p.startswith("##"):
                continuation.add(p[2:])
            else:
                initial.add(p)
        object.__setattr__(self, "_initial", initial)
        object.__setattr__(self, "_continuation", continuation)
        # a longest-match scan never needs to look further than this
        object.__setattr__(self, "_longest", max(map(len, initial | continuation), default=0))

    def __len__(self) -> int:
        return len(self.pieces)

    def piece_id(self, piece: str) -> int:
        return self._index.get(piece, self._index[UNK])


def build_vocab(corpus: Corpus, max_size: int) -> SubwordVocab:
    """Frequency-ranked substring vocabulary over a corpus.

    All single characters enter in both initial and continuation form;
    remaining room goes to the most frequent longer substrings (ties break
    alphabetically). Deterministic given the corpus.
    """
    token_counts: Counter[str] = Counter()
    for tweet in corpus:
        token_counts.update(tweet.tokens)
    chars = sorted({ch for tok in token_counts for ch in tok})
    mandatory = list(chars) + [f"##{c}" for c in chars]
    floor = len(SPECIALS) + len(mandatory)
    if max_size < floor:
        raise CorpusError(
            f"max_size {max_size} below the character inventory: need >= {floor} "
            f"({len(chars)} characters in both forms plus {len(SPECIALS)} specials)"
        )
    candidates: Counter[str] = Counter()
    for tok, count in token_counts.items():
        for i in range(len(tok)):
            top = min(len(tok), i + _MAX_PIECE_LEN)
            for j in range(i + 2, top + 1):
                if i == 0 and tok[:2] == "##":
                    continue  # would collide with the continuation marker
                piece = tok[i:j] if i == 0 else f"##{tok[i:j]}"
                candidates[piece] += count
    ranked = sorted(candidates.items(), key=lambda kv: (-kv[1], kv[0]))
    room = max_size - floor
    extras = [piece for piece, _ in ranked[:room]]
    return SubwordVocab(SPECIALS + tuple(mandatory) + tuple(extras))


def tokenize(token: str, vocab: SubwordVocab) -> list[str]:
    """Greedy longest-match decomposition; [UNK] when no decomposition exists."""
    if not token:
        raise CorpusError("cannot subword-tokenize an empty token")
    pieces: list[str] = []
    pos = 0
    while pos < len(token):
        inventory = vocab._initial if pos == 0 else vocab._continuation
        end = min(len(token), pos + vocab._longest)
        while end > pos and token[pos:end] not in inventory:
            end -= 1
        if end == pos:
            return [UNK]
        pieces.append(token[pos:end] if pos == 0 else f"##{token[pos:end]}")
        pos = end
    return pieces


def encode(tokens: Sequence[str], vocab: SubwordVocab) -> tuple[list[int], list[int]]:
    """Piece ids of the tokens' subtokens between [CLS] and [SEP], and the
    index of each token's first piece; index 0 is always [CLS], so the
    alignment starts at 1."""
    if not tokens:
        raise CorpusError("cannot encode an empty token sequence")
    pieces = [CLS]
    first_index = []
    for token in tokens:
        first_index.append(len(pieces))
        pieces += tokenize(token, vocab)
    pieces.append(SEP)
    return [vocab.piece_id(p) for p in pieces], first_index
