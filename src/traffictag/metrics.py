"""Evaluation metrics: classification F1, exact-match span F1, sentence accuracy.

Span credit is all-or-nothing: a predicted span is a true positive only when
its type, start, and end all match a gold span, and each gold span can match
at most one prediction. A sentence counts for sentence accuracy only when its
class and its complete span set are both exactly right. Zero denominators
yield 0 by convention; support counts are reported so degenerate sets stay
visible.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import SLOT_TYPES, TRAFFIC, SlotSpan


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _prf(tp: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    return precision, recall, _f1(precision, recall)


def classification_f1(preds: Sequence[str], golds: Sequence[str]) -> tuple[float, float, float]:
    """Binary precision/recall/F1 with the traffic class as positive."""
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(golds)} golds")
    if not preds:
        raise ValueError("empty prediction list")
    tp = sum(1 for p, g in zip(preds, golds) if p == TRAFFIC and g == TRAFFIC)
    n_pred = sum(1 for p in preds if p == TRAFFIC)
    n_gold = sum(1 for g in golds if g == TRAFFIC)
    return _prf(tp, n_pred, n_gold)


def _count_span_matches(
    pred_spans: Sequence[Sequence[SlotSpan]], gold_spans: Sequence[Sequence[SlotSpan]]
) -> tuple[int, int, int]:
    if len(pred_spans) != len(gold_spans):
        raise ValueError(
            f"length mismatch: {len(pred_spans)} predicted sentences vs {len(gold_spans)} gold"
        )
    tp = n_pred = n_gold = 0
    for preds, golds in zip(pred_spans, gold_spans):
        pred_keys = Counter(s.key() for s in preds)
        gold_keys = Counter(s.key() for s in golds)
        tp += sum((pred_keys & gold_keys).values())
        n_pred += sum(pred_keys.values())
        n_gold += sum(gold_keys.values())
    return tp, n_pred, n_gold


def span_f1(
    pred_spans: Sequence[Sequence[SlotSpan]], gold_spans: Sequence[Sequence[SlotSpan]]
) -> tuple[float, float, float]:
    """Micro-averaged exact-match span precision/recall/F1 over sentences."""
    return _prf(*_count_span_matches(pred_spans, gold_spans))


def span_f1_per_type(
    pred_spans: Sequence[Sequence[SlotSpan]], gold_spans: Sequence[Sequence[SlotSpan]]
) -> dict[str, dict[str, float]]:
    """Per-slot-type breakdown of the span scores."""
    out = {}
    for slot in SLOT_TYPES:
        p = [[s for s in sent if s.slot_type == slot] for sent in pred_spans]
        g = [[s for s in sent if s.slot_type == slot] for sent in gold_spans]
        precision, recall, f1 = span_f1(p, g)
        out[slot] = {"precision": precision, "recall": recall, "f1": f1}
    return out


def sentence_accuracy(
    pred_classes: Sequence[str],
    pred_spans: Sequence[Sequence[SlotSpan]],
    gold_classes: Sequence[str],
    gold_spans: Sequence[Sequence[SlotSpan]],
) -> float:
    """Fraction of sentences whose class and exact span set are both correct."""
    lengths = {len(pred_classes), len(pred_spans), len(gold_classes), len(gold_spans)}
    if len(lengths) != 1:
        raise ValueError(f"parallel list lengths differ: {sorted(lengths)}")
    if not pred_classes:
        raise ValueError("empty evaluation set")
    correct = 0
    for pc, ps, gc, gs in zip(pred_classes, pred_spans, gold_classes, gold_spans):
        if pc == gc and {s.key() for s in ps} == {s.key() for s in gs}:
            correct += 1
    return correct / len(pred_classes)


@dataclass
class MetricReport:
    """One evaluation run. Fields not produced by an architecture are None
    (a pure classifier has no span scores, only joint models get sen_acc)."""

    f1c: float | None = None
    precision_c: float | None = None
    recall_c: float | None = None
    f1s: float | None = None
    precision_s: float | None = None
    recall_s: float | None = None
    sen_acc: float | None = None
    support: dict[str, int] = field(default_factory=dict)
    per_type: dict[str, dict[str, float]] | None = None

    def to_dict(self) -> dict:
        """The fields, nested dicts copied; ``dataclasses.asdict``'s deep copy costs more."""
        per_type = None if self.per_type is None else {k: dict(v) for k, v in self.per_type.items()}
        return {**vars(self), "support": dict(self.support), "per_type": per_type}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
