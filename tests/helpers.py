"""Shared generators for randomized property tests, the finite-difference
gradient checker and its random-cotangent reducer, the CRF's brute-force
enumeration oracle, one sentence's log partition through the batched CRF
op, the per-sentence CRF op and the per-token LSTM loop that
the batched ``crf.nll`` and ``lstm_seq`` are checked against, the multi-pass
metrics, BIO decoder, URL pattern, punctuation loop, subword scan and Adam
step that the one-pass tally, the tag-table decoder, the anchored URL
pattern, the translate table, the bounded scan and the in-place Adam step
are checked against, the metric report's schema oracle, and a checkpoint
archive's payload reader and writer for damage tests."""

from __future__ import annotations

import itertools
import json
import random
import re
import unicodedata
from collections import Counter
from typing import Callable, Iterable, Sequence

import numpy as np

from traffictag.autodiff import Tensor, _accum, backward
from traffictag.bio import OUTSIDE, TAGS, split_tag
from traffictag.corpus import _URL_RE, SLOT_TYPES, TRAFFIC, Corpus, SlotSpan
from traffictag.metrics import MetricReport, _prf
from traffictag.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ParamStore
from traffictag.subword import UNK, SubwordVocab
from traffictag.crf import CrfModel, _crf_op
from traffictag.models import METADATA_MEMBER


def random_span_set(rng: random.Random, n_tokens: int) -> list[SlotSpan]:
    """Random legal (disjoint, in-bounds) span set over n_tokens tokens."""
    spans = []
    pos = 0
    while pos < n_tokens:
        if rng.random() < 0.4:
            length = rng.randint(1, min(3, n_tokens - pos))
            spans.append(SlotSpan(rng.choice(SLOT_TYPES), pos, pos + length))
            pos += length
        else:
            pos += 1
    return spans


def random_tag_sequence(rng: random.Random, n_tokens: int) -> list[str]:
    """Uniformly random tags; usually violates the BIO rule."""
    return [rng.choice(TAGS) for _ in range(n_tokens)]


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Iterable[Tensor],
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between autodiff and central finite differences.

    ``loss_fn`` must be deterministic (dropout off or a fixed rng). The
    relative error is |g_ad - g_fd| / max(1, |g_ad|, |g_fd|) over every
    parameter entry.
    """
    params = list(params)
    for p in params:
        p.grad = None
    backward(loss_fn())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            hi = float(loss_fn().data)
            flat[i] = orig - epsilon
            lo = float(loss_fn().data)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * epsilon)
            err = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]), abs(fd))
            worst = max(worst, err)
    return worst


def cotangent(shape: tuple[int, ...], seed: int = 0) -> np.ndarray:
    """The fixed uniform [-1, 1) array that ``project`` pairs with."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, shape)


def project(x: Tensor, seed: int = 0) -> Tensor:
    """Scalar <x, R> for R = cotangent(x.shape, seed), as one graph node.

    Reducing an op's output this way sends a different cotangent to every
    entry, so a gradient routed to the wrong row or position shows up in a
    finite-difference check; a plain sum's all-ones cotangent hides it.
    """
    r = cotangent(x.shape, seed)
    out = Tensor((x.data * r).sum(), (x,))
    out._backward = lambda g: _accum(x, g * r)
    return out


def brute_force_oracle(
    emissions: Tensor | np.ndarray, crf: CrfModel
) -> tuple[float, list[int], float]:
    """Exhaustive enumeration of all T^n paths: (log partition, best path,
    best score). The reference implementation the fast routines are tested
    against; refuses instances above 10^6 paths."""
    e = emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions, dtype=float)
    n, t = e.shape
    if t**n > 10**6:
        raise ValueError(f"instance too large for enumeration: {t}^{n} paths")
    trans = crf.transitions.data
    start = crf.start.data
    end = crf.end.data
    scores = []
    best_path: list[int] | None = None
    best_score = -np.inf
    for path in itertools.product(range(t), repeat=n):
        s = start[path[0]] + end[path[-1]]
        for i, y in enumerate(path):
            s += e[i, y]
        for a, b in zip(path, path[1:]):
            s += trans[a, b]
        scores.append(s)
        if s > best_score:
            best_score = s
            best_path = list(path)
    arr = np.asarray(scores)
    m = arr.max()
    log_z = float(m + np.log(np.exp(arr - m).sum()))
    return log_z, best_path, float(best_score)


def log_partition(emissions: Tensor, crf: CrfModel) -> Tensor:
    """log sum over all tag paths of one sentence of exp(path score): the
    batched CRF op on a batch of one, without gold paths."""
    return _crf_op(emissions, crf, [emissions.data.shape[0]], None)


def crf_reference(emissions: Tensor, crf: CrfModel, gold: Iterable[int] | None = None) -> Tensor:
    """One sentence's log Z, or log Z minus its gold path score, as one
    autodiff node: the per-sentence alpha and beta recursions that the
    batched ``crf.nll`` sums over sentences, kept as its test reference."""
    e = emissions.data
    trans, start, end = crf.transitions.data, crf.start.data, crf.end.data
    n = e.shape[0]
    rows = np.arange(n)
    alphas = np.empty_like(e)
    alphas[0] = e[0] + start
    for i in range(1, n):
        alphas[i] = _logsumexp(alphas[i - 1][:, None] + trans, axis=0) + e[i]
    log_z = _logsumexp(alphas[-1] + end)
    value = log_z
    if gold is not None:
        gold = np.asarray(list(gold), dtype=np.intp)
        value = log_z - (
            start[gold[0]] + e[rows, gold].sum() + trans[gold[:-1], gold[1:]].sum() + end[gold[-1]]
        )
    out = Tensor(value, (emissions, crf.transitions, crf.start, crf.end))

    def bw(g: np.ndarray) -> None:
        betas = np.empty_like(e)
        betas[-1] = end
        for i in range(n - 2, -1, -1):
            betas[i] = _logsumexp(trans + (e[i + 1] + betas[i + 1]), axis=1)
        unary = np.exp(alphas + betas - log_z)
        pairwise = np.exp(
            alphas[:-1, :, None] + trans + (e[1:] + betas[1:])[:, None, :] - log_z
        ).sum(axis=0)
        if gold is not None:
            unary[rows, gold] -= 1.0
            np.add.at(pairwise, (gold[:-1], gold[1:]), -1.0)
        _accum(emissions, g * unary)
        _accum(crf.transitions, g * pairwise)
        _accum(crf.start, g * unary[0])
        _accum(crf.end, g * unary[-1])

    out._backward = bw
    return out


def _logsumexp(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    out = np.log(np.exp(x - m).sum(axis=axis, keepdims=True)) + m
    return out.reshape(()) if axis is None else out.squeeze(axis)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # overflow-safe logistic: exp only ever sees non-positive arguments
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lstm_seq_reference(x: Tensor, w: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """``layers.lstm_seq`` as a plain per-token loop: each step multiplies
    the whole weight by ``concat(x_t, h)``, and the backward adds one outer
    product per token into ``w``'s gradient. The test reference for the
    batched op, which reorders this arithmetic; it keeps its own logistic."""
    n, d = x.data.shape
    four_h = b.data.shape[0]
    hidden = four_h // 4
    order = range(n - 1, -1, -1) if reverse else range(n)

    h = np.zeros(hidden)
    c = np.zeros(hidden)
    y = np.empty((n, hidden))
    cache = []
    wd, bd = w.data, b.data
    for t in order:
        xh = np.concatenate((x.data[t], h))
        z = xh @ wd + bd
        gi = _sigmoid(z[:hidden])
        gf = _sigmoid(z[hidden : 2 * hidden])
        gc = np.tanh(z[2 * hidden : 3 * hidden])
        go = _sigmoid(z[3 * hidden :])
        c_prev = c
        c = gf * c_prev + gi * gc
        tc = np.tanh(c)
        h = go * tc
        y[t] = h
        cache.append((t, xh, gi, gf, gc, go, c_prev, tc))

    out = Tensor(y, (x, w, b))

    def bw(g: np.ndarray) -> None:
        dw = np.zeros_like(wd)
        db = np.zeros_like(bd)
        dx = np.zeros_like(x.data)
        dh_next = np.zeros(hidden)
        dc_next = np.zeros(hidden)
        dz = np.empty(four_h)
        for t, xh, gi, gf, gc, go, c_prev, tc in reversed(cache):
            dh = g[t] + dh_next
            dc = dc_next + dh * go * (1.0 - tc * tc)
            dz[:hidden] = dc * gc * gi * (1.0 - gi)
            dz[hidden : 2 * hidden] = dc * c_prev * gf * (1.0 - gf)
            dz[2 * hidden : 3 * hidden] = dc * gi * (1.0 - gc * gc)
            dz[3 * hidden :] = dh * tc * go * (1.0 - go)
            dw += np.outer(xh, dz)
            db += dz
            dxh = wd @ dz
            dx[t] += dxh[:d]
            dh_next = dxh[d:]
            dc_next = dc * gf
        _accum(x, dx)
        _accum(w, dw)
        _accum(b, db)

    out._backward = bw
    return out


def classification_f1_reference(preds: Sequence[str], golds: Sequence[str]):
    """Classification precision/recall/F1 as three passes."""
    tp = sum(1 for p, g in zip(preds, golds) if p == TRAFFIC and g == TRAFFIC)
    n_pred = sum(1 for p in preds if p == TRAFFIC)
    n_gold = sum(1 for g in golds if g == TRAFFIC)
    return _prf(tp, n_pred, n_gold)


def span_f1_reference(pred_spans, gold_spans):
    """Micro span precision/recall/F1: one Counter match per sentence."""
    tp = n_pred = n_gold = 0
    for preds, golds in zip(pred_spans, gold_spans):
        pred_keys = Counter(s.key() for s in preds)
        gold_keys = Counter(s.key() for s in golds)
        tp += sum((pred_keys & gold_keys).values())
        n_pred += sum(pred_keys.values())
        n_gold += sum(gold_keys.values())
    return _prf(tp, n_pred, n_gold)


def span_f1_per_type_reference(pred_spans, gold_spans):
    """Per-type span scores: each type filtered out and recounted."""
    out = {}
    for slot in SLOT_TYPES:
        p = [[s for s in sent if s.slot_type == slot] for sent in pred_spans]
        g = [[s for s in sent if s.slot_type == slot] for sent in gold_spans]
        precision, recall, f1 = span_f1_reference(p, g)
        out[slot] = {"precision": precision, "recall": recall, "f1": f1}
    return out


def sentence_accuracy_reference(pred_classes, pred_spans, gold_classes, gold_spans):
    """Sentence accuracy with span sets compared as sets."""
    correct = 0
    for pc, ps, gc, gs in zip(pred_classes, pred_spans, gold_classes, gold_spans):
        if pc == gc and {s.key() for s in ps} == {s.key() for s in gs}:
            correct += 1
    return correct / len(pred_classes)


def evaluate_reference(model, corpus: Corpus) -> MetricReport:
    """``training.evaluate`` composed from the multi-pass references."""
    predictions = model.predict(corpus.tweets)
    gold_classes = [t.class_label for t in corpus]
    gold_spans = [t.spans for t in corpus]
    report = MetricReport(
        support={
            "sentences": len(corpus),
            "gold_traffic": sum(1 for c in gold_classes if c == TRAFFIC),
            "gold_spans": sum(len(s) for s in gold_spans),
        }
    )
    pred_classes = [p.class_label for p in predictions]
    pred_spans = [p.spans for p in predictions]
    if model.kind in ("classifier", "joint"):
        report.precision_c, report.recall_c, report.f1c = classification_f1_reference(
            pred_classes, gold_classes
        )
        report.support["pred_traffic"] = sum(1 for c in pred_classes if c == TRAFFIC)
    if model.kind in ("tagger", "joint"):
        report.precision_s, report.recall_s, report.f1s = span_f1_reference(pred_spans, gold_spans)
        report.per_type = span_f1_per_type_reference(pred_spans, gold_spans)
        report.support["pred_spans"] = sum(len(s) for s in pred_spans)
    if model.kind == "joint":
        report.sen_acc = sentence_accuracy_reference(
            pred_classes, pred_spans, gold_classes, gold_spans
        )
    return report


def decode_tags_reference(tags: Sequence[str]) -> list[SlotSpan]:
    """BIO decoding that splits every tag with ``split_tag``."""
    spans: list[SlotSpan] = []
    open_type: str | None = None
    open_start = 0

    def close(end: int) -> None:
        nonlocal open_type
        if open_type is not None:
            spans.append(SlotSpan(open_type, open_start, end))
            open_type = None

    for i, tag in enumerate(tags):
        kind, slot = split_tag(tag)
        if kind == OUTSIDE:
            close(i)
        elif kind == "B" or slot != open_type:
            close(i)
            open_type, open_start = slot, i
    close(len(tags))
    return spans


# the URL pattern before anchoring: quadratic on a long letter run without "://"
URL_RE_REFERENCE = re.compile(r"(?:[a-z][a-z0-9+.-]*://\S+|www\.\S+)", re.IGNORECASE)


def tokenize_reference(token: str, vocab: SubwordVocab) -> list[str]:
    """Greedy longest match whose every scan starts at the token's end."""
    pieces: list[str] = []
    pos = 0
    while pos < len(token):
        inventory = vocab._initial if pos == 0 else vocab._continuation
        end = len(token)
        while end > pos and token[pos:end] not in inventory:
            end -= 1
        if end == pos:
            return [UNK]
        pieces.append(token[pos:end] if pos == 0 else f"##{token[pos:end]}")
        pos = end
    return pieces


def normalize_tweet_reference(raw_text: str) -> list[str]:
    """``normalize_tweet``'s tokens by a per-character category loop; [] where
    it raises DegenerateTweetError."""
    parts = []
    for ch in _URL_RE.sub(r"\1 ", raw_text).lower():
        parts.append(f" {ch} " if unicodedata.category(ch).startswith("P") else ch)
    return "".join(parts).split()


def adam_step_reference(store: ParamStore, lr: float) -> None:
    """Adam with bias correction through fresh temporaries, keeping its moments
    in ``store.adam_m`` and ``store.adam_v``; missing gradients count as zero."""
    store.adam_t += 1
    t = store.adam_t
    for name, p in store.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = store.adam_m.setdefault(name, np.zeros_like(p.data))
        v = store.adam_v.setdefault(name, np.zeros_like(p.data))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# the report schema, pinned here rather than read back from MetricReport
_SCORE_FIELDS = ("f1c", "precision_c", "recall_c", "f1s", "precision_s", "recall_s", "sen_acc")


def validate_report_dict(data: dict) -> None:
    """Check a serialized report against the fixed schema; raises ValueError."""
    expected = set(_SCORE_FIELDS) | {"support", "per_type"}
    if set(data) != expected:
        raise ValueError(f"report keys {sorted(data)} != schema keys {sorted(expected)}")
    for name in _SCORE_FIELDS:
        value = data[name]
        if value is not None and not isinstance(value, (int, float)):
            raise ValueError(f"report field {name} must be numeric or null")
        if isinstance(value, (int, float)) and not 0.0 <= float(value) <= 1.0:
            raise ValueError(f"report field {name} outside [0, 1]: {value}")
    if not isinstance(data["support"], dict):
        raise ValueError("report support must be an object")


class NoArchiveForm(ValueError):
    """A payload fault that only a format-1 JSON file can hold."""


def read_archive(path) -> dict:
    """A format-2 checkpoint as a format-1-style payload: its metadata plus
    ``params`` as {name: {"shape": [...], "values": [flat floats]}}."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    payload = json.loads(arrays.pop(METADATA_MEMBER).item())
    payload["params"] = {
        name: {"shape": list(a.shape), "values": a.reshape(-1).tolist()}
        for name, a in arrays.items()
    }
    return payload


def write_archive(payload, path) -> None:
    """The inverse of ``read_archive``. A payload that is not a dict is
    written as the metadata; a parameter entry that is not exactly a shape
    and values that reshape to it, or whose values mix a bool among numbers
    (numpy would store it as 1.0 or 0.0), raises NoArchiveForm."""
    if isinstance(payload, dict):
        metadata = {k: v for k, v in payload.items() if k != "params"}
        params = payload.get("params", {})
    else:
        metadata, params = payload, {}
    members = {METADATA_MEMBER: np.array(json.dumps(metadata))}
    for name, entry in params.items():
        if not isinstance(entry, dict) or set(entry) != {"shape", "values"}:
            raise NoArchiveForm(f"parameter {name!r} entry {entry!r}")
        try:
            members[name] = np.asarray(entry["values"]).reshape(entry["shape"])
        except (TypeError, ValueError) as exc:
            raise NoArchiveForm(f"parameter {name!r}: {exc}") from exc
        flat = np.asarray(entry["values"], dtype=object).flat
        if members[name].dtype != bool and any(type(v) is bool for v in flat):
            raise NoArchiveForm(f"parameter {name!r} values mix bools and numbers")
    with open(path, "wb") as f:
        np.savez(f, **members)
