"""Evaluation metrics against independent brute-force recounts."""

from __future__ import annotations

import json
import random

import pytest

from helpers import (
    classification_f1_reference,
    random_span_set,
    sentence_accuracy_reference,
    span_f1_per_type_reference,
    span_f1_reference,
    validate_report_dict,
)
from traffictag.corpus import NON_TRAFFIC, TRAFFIC, SlotSpan
from traffictag.metrics import (
    MetricReport,
    classification_f1,
    score,
    sentence_accuracy,
    span_f1,
    span_f1_per_type,
)

T, N = TRAFFIC, NON_TRAFFIC


class TestClassificationF1:
    def test_perfect(self):
        p, r, f1 = classification_f1([T, N, T], [T, N, T])
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_hand_counts(self):
        # TP=1, FP=1, FN=1 -> P = R = F1 = 0.5
        p, r, f1 = classification_f1([T, N, T, N], [T, T, N, N])
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_no_positive_predictions(self):
        p, r, f1 = classification_f1([N, N], [T, N])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classification_f1([T], [T, N])

    def test_empty(self):
        with pytest.raises(ValueError):
            classification_f1([], [])


class TestSpanF1:
    def test_hand_case(self):
        gold = [[SlotSpan("where", 2, 4), SlotSpan("when", 5, 6)]]
        pred = [[SlotSpan("where", 2, 4), SlotSpan("what", 0, 1)]]
        p, r, f1 = span_f1(pred, gold)
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_boundary_exact(self):
        gold = [[SlotSpan("where", 2, 4)]]
        pred = [[SlotSpan("where", 2, 3)]]
        assert span_f1(pred, gold) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        gold = [[SlotSpan("where", 0, 1)], [SlotSpan("when", 2, 3)]]
        assert span_f1(gold, gold) == (1.0, 1.0, 1.0)

    def test_permutation_invariant(self):
        a = [SlotSpan("where", 0, 1), SlotSpan("when", 2, 3), SlotSpan("what", 4, 6)]
        gold = [list(a)]
        shuffled = [list(reversed(a))]
        assert span_f1(shuffled, gold) == (1.0, 1.0, 1.0)

    def test_per_type_breakdown(self):
        gold = [[SlotSpan("where", 0, 1), SlotSpan("when", 2, 3)]]
        pred = [[SlotSpan("where", 0, 1)]]
        by_type = span_f1_per_type(pred, gold)
        assert by_type["where"]["f1"] == 1.0
        assert by_type["when"]["f1"] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            span_f1([[]], [[], []])
        with pytest.raises(ValueError):
            span_f1_per_type([[]], [[], []])


class TestSentenceAccuracy:
    def test_one_wrong_class(self):
        acc = sentence_accuracy(
            [T, N], [[SlotSpan("what", 0, 1)], []],
            [T, T], [[SlotSpan("what", 0, 1)], []],
        )
        assert acc == 0.5

    def test_extra_span_breaks_sentence(self):
        acc = sentence_accuracy(
            [T], [[SlotSpan("what", 0, 1), SlotSpan("when", 2, 3)]],
            [T], [[SlotSpan("what", 0, 1)]],
        )
        assert acc == 0.0

    def test_non_traffic_empty_spans_correct(self):
        assert sentence_accuracy([N], [[]], [N], [[]]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sentence_accuracy([T], [[], []], [T], [[]])


def _random_eval_pair(rng: random.Random, n_sentences: int):
    golds, preds = [], []
    for _ in range(n_sentences):
        n_tokens = rng.randint(1, 15)
        gold_class = rng.choice((T, N))
        gold = random_span_set(rng, n_tokens) if gold_class == T else []
        pred_class = gold_class if rng.random() < 0.7 else rng.choice((T, N))
        if rng.random() < 0.5:
            pred = list(gold)  # sometimes exactly right
        else:
            pred = random_span_set(rng, n_tokens)
        golds.append((gold_class, gold))
        preds.append((pred_class, pred))
    return preds, golds


class TestBruteForceRecount:
    """Independent recount oracles over 500 random prediction/gold pairs."""

    def test_500_random_pairs(self):
        rng = random.Random(777)
        for _ in range(500):
            preds, golds = _random_eval_pair(rng, rng.randint(1, 8))
            pred_classes = [c for c, _ in preds]
            gold_classes = [c for c, _ in golds]
            pred_spans = [s for _, s in preds]
            gold_spans = [s for _, s in golds]

            # classification recount
            tp = fp = fn = 0
            for pc, gc in zip(pred_classes, gold_classes):
                if pc == T and gc == T:
                    tp += 1
                elif pc == T:
                    fp += 1
                elif gc == T:
                    fn += 1
            expect_p = tp / (tp + fp) if tp + fp else 0.0
            expect_r = tp / (tp + fn) if tp + fn else 0.0
            expect_f = (
                2 * expect_p * expect_r / (expect_p + expect_r)
                if expect_p + expect_r
                else 0.0
            )
            assert classification_f1(pred_classes, gold_classes) == pytest.approx(
                (expect_p, expect_r, expect_f)
            )

            # span recount: pair each gold with at most one exact prediction
            stp = sp = sg = 0
            for ps, gs in zip(pred_spans, gold_spans):
                remaining = [g.key() for g in gs]
                for s in ps:
                    if s.key() in remaining:
                        remaining.remove(s.key())
                        stp += 1
                sp += len(ps)
                sg += len(gs)
            expect_p = stp / sp if sp else 0.0
            expect_r = stp / sg if sg else 0.0
            expect_f = (
                2 * expect_p * expect_r / (expect_p + expect_r)
                if expect_p + expect_r
                else 0.0
            )
            assert span_f1(pred_spans, gold_spans) == pytest.approx(
                (expect_p, expect_r, expect_f)
            )

            # sentence recount
            correct = sum(
                1
                for (pc, ps), (gc, gs) in zip(preds, golds)
                if pc == gc and sorted(s.key() for s in ps) == sorted(s.key() for s in gs)
            )
            assert sentence_accuracy(
                pred_classes, pred_spans, gold_classes, gold_spans
            ) == pytest.approx(correct / len(golds))

    def test_senacc_upper_bounds(self):
        rng = random.Random(31)
        for _ in range(100):
            preds, golds = _random_eval_pair(rng, rng.randint(2, 10))
            pred_classes = [c for c, _ in preds]
            gold_classes = [c for c, _ in golds]
            pred_spans = [s for _, s in preds]
            gold_spans = [s for _, s in golds]
            sen = sentence_accuracy(pred_classes, pred_spans, gold_classes, gold_spans)
            class_acc = sum(p == g for p, g in zip(pred_classes, gold_classes)) / len(golds)
            slot_acc = sum(
                sorted(s.key() for s in p) == sorted(s.key() for s in g)
                for p, g in zip(pred_spans, gold_spans)
            ) / len(golds)
            assert sen <= min(class_acc, slot_acc) + 1e-12


def _duplicated_pairs():
    """Sentences whose predicted or gold lists repeat a span: a repeated
    prediction matches at most as many gold copies as there are."""
    a, b = SlotSpan("where", 0, 2), SlotSpan("when", 3, 4)
    return [
        ([T], [[a, a]], [T], [[a]]),
        ([T], [[a]], [T], [[a, a]]),
        ([T, N], [[a, a, b], []], [T, T], [[a, b, b], [b]]),
        ([N, T], [[b, b], [a, a]], [N, T], [[b], [a, a]]),
        ([T], [[a, b, a]], [N], [[b, a]]),
    ]


class TestTallyMatchesReference:
    """The one-pass views against the multi-pass code they replaced: equal
    to the last bit, including sentences with repeated spans."""

    @staticmethod
    def _cases():
        rng = random.Random(777)  # the pairs of TestBruteForceRecount
        for _ in range(500):
            preds, golds = _random_eval_pair(rng, rng.randint(1, 8))
            yield ([c for c, _ in preds], [s for _, s in preds],
                   [c for c, _ in golds], [s for _, s in golds])
        yield from _duplicated_pairs()

    def test_views_equal_references(self):
        for pred_classes, pred_spans, gold_classes, gold_spans in self._cases():
            assert classification_f1(pred_classes, gold_classes) == classification_f1_reference(
                pred_classes, gold_classes
            )
            assert span_f1(pred_spans, gold_spans) == span_f1_reference(pred_spans, gold_spans)
            assert span_f1_per_type(pred_spans, gold_spans) == span_f1_per_type_reference(
                pred_spans, gold_spans
            )
            assert sentence_accuracy(
                pred_classes, pred_spans, gold_classes, gold_spans
            ) == sentence_accuracy_reference(pred_classes, pred_spans, gold_classes, gold_spans)

    def test_duplicated_prediction_stays_false_positive(self):
        a = SlotSpan("where", 0, 2)
        assert span_f1([[a, a]], [[a]]) == (0.5, 1.0, 2.0 / 3.0)
        assert span_f1_per_type([[a]], [[a, a]])["where"] == {
            "precision": 1.0, "recall": 0.5, "f1": 2.0 / 3.0,
        }
        # span sets, not multisets, decide a sentence
        assert sentence_accuracy([T], [[a, a]], [T], [[a]]) == 1.0


class TestScore:
    def test_empty_set_has_no_sentence_accuracy(self):
        report = score([], [], [], [])
        assert report.sen_acc is None
        assert (report.f1c, report.f1s) == (0.0, 0.0)
        assert report.support == {"sentences": 0, "gold_traffic": 0, "gold_spans": 0,
                                  "pred_traffic": 0, "pred_spans": 0}


class TestReportSchema:
    def test_round_trip(self):
        report = MetricReport(
            f1c=0.9, precision_c=0.8, recall_c=1.0,
            f1s=0.5, precision_s=0.5, recall_s=0.5,
            sen_acc=0.4, support={"sentences": 10},
            per_type={"where": {"precision": 1.0, "recall": 1.0, "f1": 1.0}},
        )
        again = json.loads(report.to_json())
        validate_report_dict(again)
        assert again == report.to_dict()
        assert MetricReport(**again) == report

    def test_partial_report_round_trip(self):
        report = MetricReport(f1c=1.0, precision_c=1.0, recall_c=1.0, support={"sentences": 2})
        again = json.loads(report.to_json())
        validate_report_dict(again)
        assert again["f1s"] is None
        assert again == report.to_dict()

    def test_schema_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            validate_report_dict({"f1c": 1.0})

    def test_schema_rejects_out_of_range(self):
        report = MetricReport(f1c=1.0, precision_c=1.0, recall_c=1.0)
        data = report.to_dict()
        data["f1c"] = 1.5
        with pytest.raises(ValueError):
            validate_report_dict(data)
