"""BIO tag codec: slot spans <-> per-token tags, validation, and repair.

The tag inventory is fixed at nine strings: "O" plus "B-"/"I-" variants of
the four slot types. An I- tag is legal only directly after a B- or I- tag
of the same type. Decoding accepts illegal sequences and repairs a stray or
type-mismatched I- tag by treating it as B- (starting a new span), so
decoded spans are always well-formed and never overlap.
"""

from __future__ import annotations

from typing import Sequence

from .corpus import SLOT_TYPES, CorpusError, SlotSpan, check_spans

OUTSIDE = "O"
TAGS = (OUTSIDE,) + tuple(f"{prefix}-{slot}" for slot in SLOT_TYPES for prefix in ("B", "I"))
TAG_INDEX = {tag: i for i, tag in enumerate(TAGS)}
NUM_TAGS = len(TAGS)  # 9


def split_tag(tag: str) -> tuple[str, str | None]:
    """Return (kind, slot_type) where kind is one of "O", "B", "I"."""
    if tag == OUTSIDE:
        return OUTSIDE, None
    if tag not in TAG_INDEX:
        raise CorpusError(f"unknown tag {tag!r}")
    kind, slot = tag.split("-", 1)
    return kind, slot


def encode_spans(token_count: int, spans: Sequence[SlotSpan]) -> list[str]:
    """Encode disjoint spans over ``token_count`` tokens as BIO tags."""
    check_spans(spans, token_count)
    tags = [OUTSIDE] * token_count
    for span in spans:
        tags[span.start] = f"B-{span.slot_type}"
        for i in range(span.start + 1, span.end):
            tags[i] = f"I-{span.slot_type}"
    return tags


# (kind, slot_type) of every known tag, split once
_SPLIT = {tag: split_tag(tag) for tag in TAGS}


def decode_tags(tags: Sequence[str]) -> list[SlotSpan]:
    """Decode tags into spans, repairing stray I- tags as span starts."""
    spans: list[SlotSpan] = []
    open_type: str | None = None
    open_start = 0
    for i, tag in enumerate(tags):
        kind, slot = _SPLIT.get(tag) or split_tag(tag)  # split_tag raises on an unknown tag
        if kind == "I" and slot == open_type:
            continue
        # O closes the open span; B, or a stray or mismatched I-, also starts a new one
        if open_type is not None:
            spans.append(SlotSpan(open_type, open_start, i))
        open_type, open_start = slot, i
    if open_type is not None:
        spans.append(SlotSpan(open_type, open_start, len(tags)))
    return spans


def validate(tags: Sequence[str]) -> list[tuple[int, str]]:
    """List (index, description) for every I- tag without a legal predecessor."""
    violations = []
    for i, tag in enumerate(tags):
        kind, slot = split_tag(tag)
        if kind != "I":
            continue
        prev_kind, prev_slot = split_tag(tags[i - 1]) if i > 0 else (OUTSIDE, None)
        if prev_kind == OUTSIDE:
            violations.append((i, "stray-I"))
        elif prev_slot != slot:
            violations.append((i, "type-mismatch-I"))
    return violations
