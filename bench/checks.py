"""Independent correctness checks for the benchmark.

Nothing here imports ``traffictag.metrics`` or the CRF decoder: the scores
are recounted and the best tag paths enumerated from first principles, so a
fault in the program cannot hide in its own oracle.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

TRAFFIC = "traffic"


def _f1(tp: int, n_pred: int, n_gold: int) -> float:
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def span_keys(spans) -> list[tuple[str, int, int]]:
    return [(s.slot_type, s.start, s.end) for s in spans]


def recount(pred_classes, pred_spans, gold_classes, gold_spans) -> dict[str, float]:
    """Class F1 (traffic positive), micro exact-match span F1 and sentence
    accuracy, counted directly from the parallel lists."""
    tp_c = sum(p == g == TRAFFIC for p, g in zip(pred_classes, gold_classes))
    f1c = _f1(tp_c, pred_classes.count(TRAFFIC), gold_classes.count(TRAFFIC))
    tp_s = n_pred = n_gold = 0
    exact = 0
    for pc, ps, gc, gs in zip(pred_classes, pred_spans, gold_classes, gold_spans):
        pred, gold = Counter(span_keys(ps)), Counter(span_keys(gs))
        tp_s += sum(min(count, gold[key]) for key, count in pred.items())
        n_pred += sum(pred.values())
        n_gold += sum(gold.values())
        exact += pc == gc and set(pred) == set(gold)
    return {
        "f1c": f1c,
        "f1s": _f1(tp_s, n_pred, n_gold),
        "sen_acc": exact / len(gold_classes),
    }


def report_matches(report, predictions, tweets) -> tuple[bool, str]:
    """Every score the report carries equals the recount to 1e-12; span F1 is
    always present (both benchmarked architectures tag spans)."""
    counted = recount(
        [p.class_label for p in predictions],
        [p.spans for p in predictions],
        [t.class_label for t in tweets],
        [t.spans for t in tweets],
    )
    if report.f1s is None:
        return False, "report has no f1s"
    for name, value in counted.items():
        reported = getattr(report, name)
        if reported is not None and abs(reported - value) > 1e-12:
            return False, f"{name}: report {reported!r} vs recount {value!r}"
    return True, ""


def brute_force_path(emissions: np.ndarray, trans: np.ndarray, start: np.ndarray,
                     end: np.ndarray) -> list[int]:
    """Argmax over all T^n tag paths of the linear-chain score."""
    n, t = emissions.shape
    paths = np.array(list(itertools.product(range(t), repeat=n)), dtype=np.intp)
    scores = start[paths[:, 0]] + end[paths[:, -1]]
    scores = scores + emissions[np.arange(n), paths].sum(axis=1)
    if n > 1:
        scores = scores + trans[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    return paths[int(scores.argmax())].tolist()


def spans_well_formed(spans: list[dict], n_tokens: int) -> bool:
    """In range, non-empty and pairwise non-overlapping."""
    last_end = 0
    for span in sorted(spans, key=lambda s: s["start"]):
        if not (last_end <= span["start"] < span["end"] <= n_tokens):
            return False
        last_end = span["end"]
    return True


def bit_identical(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> tuple[bool, str]:
    if set(a) != set(b):
        return False, f"parameter names differ: {sorted(set(a) ^ set(b))}"
    for name in a:
        x, y = a[name], b[name]
        if x.shape != y.shape or x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False, f"parameter {name} differs"
    return True, ""
