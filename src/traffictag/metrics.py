"""Evaluation metrics: classification F1, exact-match span F1, sentence accuracy.

``score`` tallies all of them in one pass. Span credit is all-or-nothing: a
predicted span is a true positive only when its type, start, and end all
match a gold span, and each gold span can match at most one prediction. A
sentence counts for sentence accuracy only when its class and its span set
(duplicates aside) are both exactly right. Zero denominators yield 0 by
convention; support counts are reported so degenerate sets stay visible.
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
    report = score(preds, None, golds, None)
    return report.precision_c, report.recall_c, report.f1c


def _span_score(
    pred_spans: Sequence[Sequence[SlotSpan]], gold_spans: Sequence[Sequence[SlotSpan]]
) -> MetricReport:
    if len(pred_spans) != len(gold_spans):
        raise ValueError(
            f"length mismatch: {len(pred_spans)} predicted sentences vs {len(gold_spans)} gold"
        )
    return score(None, pred_spans, None, gold_spans)


def span_f1(
    pred_spans: Sequence[Sequence[SlotSpan]], gold_spans: Sequence[Sequence[SlotSpan]]
) -> tuple[float, float, float]:
    """Micro-averaged exact-match span precision/recall/F1 over sentences."""
    report = _span_score(pred_spans, gold_spans)
    return report.precision_s, report.recall_s, report.f1s


def span_f1_per_type(
    pred_spans: Sequence[Sequence[SlotSpan]], gold_spans: Sequence[Sequence[SlotSpan]]
) -> dict[str, dict[str, float]]:
    """Per-slot-type breakdown of the span scores."""
    return _span_score(pred_spans, gold_spans).per_type


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
    return score(pred_classes, pred_spans, gold_classes, gold_spans).sen_acc


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


def score(
    pred_classes: Sequence[str] | None,
    pred_spans: Sequence[Sequence[SlotSpan]] | None,
    gold_classes: Sequence[str] | None,
    gold_spans: Sequence[Sequence[SlotSpan]] | None,
) -> MetricReport:
    """Every score the predictions support, from one pass over the parallel
    lists: class scores when ``pred_classes`` is given, span scores when
    ``pred_spans`` is, sentence accuracy when both are (on a non-empty set).
    A list passed as None holds no traffic, or no span, in any sentence."""
    n = len(gold_classes if gold_classes is not None else gold_spans)
    no_classes, no_spans = (None,) * n, ((),) * n
    class_tp = pred_traffic = gold_traffic = correct = 0
    tp, n_pred, n_gold = Counter(), Counter(), Counter()  # per slot type
    for pc, ps, gc, gs in zip(
        no_classes if pred_classes is None else pred_classes,
        no_spans if pred_spans is None else pred_spans,
        no_classes if gold_classes is None else gold_classes,
        no_spans if gold_spans is None else gold_spans,
    ):
        pred_traffic += pc == TRAFFIC
        gold_traffic += gc == TRAFFIC
        class_tp += pc == gc == TRAFFIC
        pred, gold = Counter(map(SlotSpan.key, ps)), Counter(map(SlotSpan.key, gs))
        for key, count in pred.items():
            n_pred[key[0]] += count
            tp[key[0]] += min(count, gold[key])
        for key, count in gold.items():
            n_gold[key[0]] += count
        correct += pc == gc and pred.keys() == gold.keys()
    report = MetricReport(
        support={"sentences": n, "gold_traffic": gold_traffic, "gold_spans": n_gold.total()}
    )
    if pred_classes is not None:
        report.precision_c, report.recall_c, report.f1c = _prf(class_tp, pred_traffic, gold_traffic)
        report.support["pred_traffic"] = pred_traffic
    if pred_spans is not None:
        report.precision_s, report.recall_s, report.f1s = _prf(
            tp.total(), n_pred.total(), n_gold.total()
        )
        report.per_type = {
            t: dict(zip(("precision", "recall", "f1"), _prf(tp[t], n_pred[t], n_gold[t])))
            for t in SLOT_TYPES
        }
        report.support["pred_spans"] = n_pred.total()
        if pred_classes is not None and n:
            report.sen_acc = correct / n
    return report
