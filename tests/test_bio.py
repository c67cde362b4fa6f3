"""BIO codec: encode/decode/validate plus round-trip and repair properties."""

from __future__ import annotations

import itertools
import random

import pytest

from helpers import decode_tags_reference, random_span_set, random_tag_sequence
from traffictag.bio import NUM_TAGS, TAGS, decode_tags, encode_spans, validate
from traffictag.corpus import CorpusError, SlotSpan, check_spans


def test_tag_inventory():
    assert NUM_TAGS == 9
    assert TAGS[0] == "O"
    assert set(TAGS) == {
        "O", "B-when", "I-when", "B-where", "I-where",
        "B-what", "I-what", "B-consequence", "I-consequence",
    }


class TestEncode:
    def test_two_spans(self):
        tags = encode_spans(4, [SlotSpan("where", 0, 2), SlotSpan("when", 3, 4)])
        assert tags == ["B-where", "I-where", "O", "B-when"]

    def test_empty(self):
        assert encode_spans(3, []) == ["O", "O", "O"]

    def test_full_cover(self):
        assert encode_spans(2, [SlotSpan("what", 0, 2)]) == ["B-what", "I-what"]

    def test_overlap_rejected(self):
        with pytest.raises(CorpusError):
            encode_spans(3, [SlotSpan("what", 0, 2), SlotSpan("where", 1, 3)])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(CorpusError):
            encode_spans(2, [SlotSpan("what", 1, 3)])


class TestDecode:
    def test_two_spans(self):
        spans = decode_tags(["B-where", "I-where", "O", "B-when"])
        assert spans == [SlotSpan("where", 0, 2), SlotSpan("when", 3, 4)]

    def test_all_outside(self):
        assert decode_tags(["O", "O"]) == []

    def test_stray_i_becomes_b(self):
        assert decode_tags(["O", "I-when"]) == [SlotSpan("when", 1, 2)]

    def test_type_mismatch_starts_new_span(self):
        assert decode_tags(["B-where", "I-when"]) == [
            SlotSpan("where", 0, 1),
            SlotSpan("when", 1, 2),
        ]

    def test_adjacent_b_b_kept_separate(self):
        assert decode_tags(["B-what", "B-what"]) == [
            SlotSpan("what", 0, 1),
            SlotSpan("what", 1, 2),
        ]

    def test_unknown_tag(self):
        for tags in (["B-nonsense"], ["B-where", "I-where", "I-nonsense"], ["O", ""], ["o"]):
            with pytest.raises(CorpusError):
                decode_tags(tags)

    def test_equals_reference_on_every_short_sequence(self):
        for n in range(5):
            for tags in itertools.product(TAGS, repeat=n):
                assert decode_tags(tags) == decode_tags_reference(tags), tags


class TestValidate:
    def test_legal(self):
        assert validate(["B-what", "I-what"]) == []

    def test_stray(self):
        assert validate(["O", "I-when"]) == [(1, "stray-I")]

    def test_type_mismatch(self):
        assert validate(["B-where", "I-when"]) == [(1, "type-mismatch-I")]

    def test_initial_i_is_stray(self):
        assert validate(["I-what"]) == [(0, "stray-I")]


class TestProperties:
    def test_round_trip_1000_random_span_sets(self):
        rng = random.Random(1234)
        for _ in range(1000):
            n = rng.randint(1, 20)
            spans = random_span_set(rng, n)
            decoded = decode_tags(encode_spans(n, spans))
            assert sorted(decoded, key=lambda s: s.start) == spans

    def test_decode_overlap_free_on_1000_random_sequences(self):
        rng = random.Random(4321)
        for _ in range(1000):
            n = rng.randint(1, 20)
            spans = decode_tags(random_tag_sequence(rng, n))
            check_spans(spans, n)  # raises on overlap or out-of-bounds

    def test_validate_of_encode_is_empty(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 20)
            assert validate(encode_spans(n, random_span_set(rng, n))) == []
