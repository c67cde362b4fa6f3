"""Subword vocabulary, greedy tokenization, and first-subtoken alignment."""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from helpers import tokenize_reference
from traffictag.corpus import (
    Corpus,
    CorpusError,
    GeneratorConfig,
    Tweet,
    generate_synthetic,
    normalize_tweet,
)
from traffictag import subword
from traffictag.subword import (
    CLS,
    MAX_PIECES_PER_TOKEN,
    SEP,
    SPECIALS,
    UNK,
    SubwordVocab,
    build_vocab,
    encode,
    tokenize,
)

DATA = Path(__file__).parent / "data"


def tiny_corpus(*token_lists):
    tweets = tuple(
        Tweet(f"t{i}", " ".join(toks), tuple(toks), "non_traffic")
        for i, toks in enumerate(token_lists)
    )
    return Corpus("tiny", tweets)


def vocab_from_pieces(*pieces):
    return SubwordVocab(SPECIALS + tuple(pieces))


class TestBuildVocab:
    def test_frequent_pieces_kept(self):
        corpus = tiny_corpus(["file", "filevorming"] * 5)
        vocab = build_vocab(corpus, max_size=200)
        assert "file" in vocab.pieces
        assert "##vorming" in vocab.pieces

    def test_max_size_below_char_inventory(self):
        corpus = tiny_corpus(["abcdefgh"])
        with pytest.raises(CorpusError):
            build_vocab(corpus, max_size=10)

    def test_deterministic(self):
        corpus = generate_synthetic(GeneratorConfig(size=60), seed=4)
        assert build_vocab(corpus, 300).pieces == build_vocab(corpus, 300).pieces

    def test_every_char_in_both_forms(self):
        corpus = tiny_corpus(["file", "e40"])
        vocab = build_vocab(corpus, max_size=100)
        for ch in "file40":
            assert ch in vocab.pieces
            assert f"##{ch}" in vocab.pieces


class TestTokenize:
    def test_greedy_longest_match(self):
        vocab = vocab_from_pieces(
            "traf", "##fic", *"traffic", *(f"##{c}" for c in "traffic")
        )
        assert tokenize("traffic", vocab) == ["traf", "##fic"]

    def test_whole_token_single_piece(self):
        vocab = vocab_from_pieces("file", *"file", *(f"##{c}" for c in "file"))
        assert tokenize("file", vocab) == ["file"]

    def test_unknown_character(self):
        vocab = vocab_from_pieces(*"abc", *(f"##{c}" for c in "abc"))
        assert tokenize("axz", vocab) == [UNK]

    def test_char_fallback(self):
        vocab = vocab_from_pieces(*"abc", *(f"##{c}" for c in "abc"))
        assert tokenize("cab", vocab) == ["c", "##a", "##b"]

    def test_empty_token_rejected(self):
        with pytest.raises(CorpusError):
            tokenize("", vocab_from_pieces("a", "##a"))

    def test_equals_reference_scan(self):
        corpus = generate_synthetic(GeneratorConfig(size=200), seed=3)
        vocab = build_vocab(corpus, 400)
        chars = sorted({ch for tweet in corpus for tok in tweet.tokens for ch in tok}) + ["é"]
        rng = random.Random(3)
        tokens = {tok for tweet in corpus for tok in tweet.tokens}
        tokens |= {"".join(rng.choices(chars, k=rng.randint(1, 60))) for _ in range(3000)}
        for token in sorted(tokens):
            assert tokenize(token, vocab) == tokenize_reference(token, vocab), token

    def test_piece_longer_than_build_vocab_makes(self):
        # a loaded vocabulary may hold pieces past build_vocab's 12 characters
        long_piece = "verkeersinformatie"
        vocab = vocab_from_pieces(
            long_piece, f"##{long_piece}", *long_piece, *(f"##{c}" for c in long_piece)
        )
        assert tokenize(long_piece * 2, vocab) == [long_piece, f"##{long_piece}"]

    def test_lookups_bounded_by_longest_piece(self, monkeypatch):
        # the scan bound, over a token far past the piece cap, with the cap lifted
        monkeypatch.setattr(subword, "MAX_PIECES_PER_TOKEN", 10_000)
        corpus = generate_synthetic(GeneratorConfig(size=100), seed=4)
        vocab = build_vocab(corpus, 400)
        longest = max(len(p.removeprefix("##")) for p in vocab.pieces[len(SPECIALS):])
        lookups = 0

        class CountingSet(set):
            def __contains__(self, item):
                nonlocal lookups
                lookups += 1
                return super().__contains__(item)

        for name in ("_initial", "_continuation"):
            object.__setattr__(vocab, name, CountingSet(getattr(vocab, name)))
        chars = sorted({ch for tweet in corpus for tok in tweet.tokens for ch in tok})
        token = "".join(random.Random(4).choices(chars, k=10_000))
        assert UNK not in tokenize(token, vocab)
        assert 0 < lookups <= len(token) * longest


class TestPieceCap:
    def test_cap_is_inclusive(self):
        vocab = vocab_from_pieces(*"ab", *(f"##{c}" for c in "ab"))
        at_cap = "ab" * (MAX_PIECES_PER_TOKEN // 2)
        assert tokenize(at_cap, vocab) == [at_cap[0], *(f"##{c}" for c in at_cap[1:])]
        assert tokenize(at_cap + "a", vocab) == [UNK]

    def test_million_character_token_is_one_unk(self):
        corpus = generate_synthetic(GeneratorConfig(size=60), seed=2)
        vocab = build_vocab(corpus, 300)
        start = time.perf_counter()
        assert tokenize("abcdefghij" * 100_000, vocab) == [UNK]
        assert time.perf_counter() - start < 0.5

    def test_no_generated_or_checked_in_token_reaches_the_cap(self):
        # a piece holds at least one character, so a token of at most
        # MAX_PIECES_PER_TOKEN characters never reaches the cap. The
        # benchmark's corpora are BRU of 2,000 tweets at seed s and BE of 100
        # at seed s + 1, for seeds 1-3; tests/data holds v1_tweets.jsonl's texts
        corpora = [
            generate_synthetic(GeneratorConfig(size=size, region=region,
                                               shared_vocab_fraction=0.7), seed + shift)
            for seed in (1, 2, 3) for size, region, shift in ((2000, "BRU", 0), (100, "BE", 1))
        ]
        tokens = {tok for c in corpora for tweet in c for tok in tweet.tokens}
        lines = (DATA / "v1_tweets.jsonl").read_text(encoding="utf-8").splitlines()
        tokens |= {tok for line in lines for tok in normalize_tweet(json.loads(line)["text"])}
        assert max(map(len, tokens)) <= MAX_PIECES_PER_TOKEN


class TestAlign:
    def test_unsplit_tokens(self):
        vocab = vocab_from_pieces(
            "file", "op", "e40", *"filope40", *(f"##{c}" for c in "filope40")
        )
        ids, first = encode(["file", "op", "e40"], vocab)
        assert [vocab.pieces[i] for i in ids] == [CLS, "file", "op", "e40", SEP]
        assert first == [1, 2, 3]

    def test_split_token_alignment(self):
        vocab = vocab_from_pieces(
            "traf", "##fic", "jam",
            *"traficjam", *(f"##{c}" for c in "traficjam"),
        )
        ids, first = encode(["traffic", "jam"], vocab)
        assert [vocab.pieces[i] for i in ids] == [CLS, "traf", "##fic", "jam", SEP]
        assert first == [1, 3]

    def test_empty_tokens_rejected(self):
        with pytest.raises(CorpusError):
            encode([], vocab_from_pieces("a", "##a"))

    def test_alignment_properties_on_corpus(self):
        corpus = generate_synthetic(GeneratorConfig(size=80), seed=6)
        vocab = build_vocab(corpus, 250)
        for tweet in corpus:
            ids, first = encode(tweet.tokens, vocab)
            assert len(first) == len(tweet.tokens)
            assert all(a < b for a, b in zip(first, first[1:]))
            assert 1 <= first[0] and first[-1] < len(ids) - 1

    def test_detokenization_property(self):
        corpus = generate_synthetic(GeneratorConfig(size=80), seed=8)
        vocab = build_vocab(corpus, 400)
        for tweet in corpus:
            for token in tweet.tokens:
                pieces = tokenize(token, vocab)
                if UNK in pieces:
                    continue
                assert "".join(p.removeprefix("##") for p in pieces) == token


class TestSerialization:
    def test_encode_maps_unknown_to_unk_id(self):
        vocab = vocab_from_pieces(*"ab", *(f"##{c}" for c in "ab"))
        ids, first = encode(["ab", "zz"], vocab)
        assert ids[first[1]] == vocab.piece_id(UNK)
