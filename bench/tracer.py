"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the traffictag modules where their
callers look them up (``traffictag.training.backward``,
``traffictag.layers.lstm_seq``, model-class methods, ...). Every wrapped call
records a span (name, start, end, parent index) in memory; the spans are
written out when the run ends and self times are derived from them. A name
that the program no longer has is recorded as absent instead of failing the
run.

Two kinds of span are *probes*: work the benchmark itself adds to measure
something the program does not expose as a call (graph size, the CRF
backward on a detached copy). Probe time is subtracted from the enclosing
spans and never counts towards a layer's self time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from traffictag import (
    autodiff, bio, cli, corpus, crf, layers, metrics, models, optim, subword, training,
)

# (owner, attribute, span name) of every plain timed wrapper
_TIMED = (
    (training, "train_model", "training.train_model"),
    (training, "build_vocabularies", "training.build_vocabularies"),
    (training, "build_model", "models.build_model"),
    (training, "clip_global_norm", "optim.clip"),
    (training, "adam_step", "optim.step"),
    (training, "sgd_step", "optim.step"),
    (optim.ParamStore, "zero_grad", "optim.store"),
    (optim.ParamStore, "snapshot", "optim.store"),
    (optim.ParamStore, "restore", "optim.store"),
    (crf, "viterbi", "crf.viterbi"),
    (subword, "encode", "subword.encode"),
    (bio, "decode_tags", "bio.decode_tags"),
    (metrics, "classification_f1", "metrics.report"),
    (metrics, "span_f1", "metrics.report"),
    (metrics, "span_f1_per_type", "metrics.report"),
    (metrics, "sentence_accuracy", "metrics.report"),
    (models, "save_checkpoint", "models.save_checkpoint"),
    (models, "load_checkpoint", "models.load_checkpoint"),
    (cli, "save_checkpoint", "models.save_checkpoint"),
    (cli, "load_checkpoint", "models.load_checkpoint"),
    (cli, "cmd_predict", "cli.predict"),
    (cli, "normalize_tweet", "corpus.normalize_tweet"),
    (cli, "load_corpus", "corpus.load_corpus"),
    (corpus, "load_corpus", "corpus.load_corpus"),
    (corpus, "generate_synthetic", "corpus.generate_synthetic"),
    (corpus, "split_corpus", "corpus.split_corpus"),
)

# ops whose output tensor carries a backward closure: (owner, attribute, name)
_OPS = (
    (layers, "lstm_seq", "layers.lstm_seq"),
    (models, "embedding_lookup", "layers.embedding_lookup"),
)

# counted, not timed: a span per call would cost more than the call
_COUNTED = ((subword, "tokenize", "subword.tokenize.calls"),)

# per-layer time metrics: metric name -> span name (self time)
LAYER_TIMES = {
    "autodiff.backward_s": "autodiff.backward",
    "layers.lstm_seq.fwd_s": "layers.lstm_seq.fwd",
    "layers.lstm_seq.bwd_s": "layers.lstm_seq.bwd",
    "layers.embedding_lookup.fwd_s": "layers.embedding_lookup.fwd",
    "layers.embedding_lookup.bwd_s": "layers.embedding_lookup.bwd",
    "crf.nll.fwd_s": "crf.nll.fwd",
    "crf.nll.bwd_s": "crf.nll.bwd",
    "crf.viterbi_s": "crf.viterbi",
    "subword.encode_s": "subword.encode",
    "optim.step_s": "optim.step",
    "optim.clip_s": "optim.clip",
    "models.loss_s": "models.loss",
    "models.predict_s": "models.predict",
    "models.save_checkpoint_s": "models.save_checkpoint",
    "models.load_checkpoint_s": "models.load_checkpoint",
    "metrics.report_s": "metrics.report",
    "bio.decode_tags_s": "bio.decode_tags",
    "corpus.generate_synthetic_s": "corpus.generate_synthetic",
    "corpus.load_corpus_s": "corpus.load_corpus",
    "corpus.normalize_tweet_s": "corpus.normalize_tweet",
    "cli.predict_s": "cli.predict",
}
LAYER_COUNTS = {
    "layers.lstm_seq.calls": "layers.lstm_seq.calls",
    "crf.viterbi.calls": "crf.viterbi.calls",
    "subword.tokenize.calls": "subword.tokenize.calls",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, probe]
        self.counts: Counter[str] = Counter()
        self.graph_nodes: list[int] = []
        self.absent: list[str] = []
        self.enabled = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, probe: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, probe])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not the program's work: record nothing."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def call(self, name: str, fn, args, kwargs, probe: bool = False):
        index = self.open(name, probe)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- patching ----------------------------------------------------------

    def _replace(self, owner, attr: str, label: str, make):
        """Swap ``owner.attr`` for ``make(original)``; absent names are recorded."""
        present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        if not present:
            if label not in self.absent:
                self.absent.append(label)
            return
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                return self.call(name, fn, args, kwargs)
            return wrapper
        return make

    def _op(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                self.counts[f"{name}.calls"] += 1
                out = self.call(f"{name}.fwd", fn, args, kwargs)
                bw = getattr(out, "_backward", None)
                if bw is not None:
                    out._backward = lambda g: self.call(f"{name}.bwd", bw, (g,), {})
                return out
            return wrapper
        return make

    def _counted(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                if self.enabled:
                    self.counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _evaluate(self, fn):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            inside_training = self.parent_name() == "training.train_model"
            name = "training.dev_eval" if inside_training else "training.evaluate"
            return self.call(name, fn, args, kwargs)
        return wrapper

    def _backward(self, fn):
        def wrapper(loss):
            if not self.enabled:
                return fn(loss)
            index = self.open("probe.graph_nodes", probe=True)
            self.graph_nodes.append(_count_nodes(loss))
            self.close(index)
            return self.call("autodiff.backward", fn, (loss,), {})
        return wrapper

    def _nll(self, fn):
        def wrapper(emissions, crf_model, tags):
            if not self.enabled:
                return fn(emissions, crf_model, tags)
            out = self.call("crf.nll.fwd", fn, (emissions, crf_model, tags), {})
            self._nll_backward_probe(fn, emissions, crf_model, tags)
            return out
        return wrapper

    def _nll_backward_probe(self, fn, emissions, crf_model, tags) -> None:
        """Time the CRF backward alone, on detached copies of its inputs,
        so the real graph and the parameter gradients stay untouched."""
        index = self.open("probe.crf_detached_forward", probe=True)
        try:
            leaf = autodiff.Tensor(emissions.data.copy())
            detached = dataclasses.replace(
                crf_model,
                **{f.name: autodiff.Tensor(getattr(crf_model, f.name).data.copy())
                   for f in dataclasses.fields(crf_model)},
            )
            loss = fn(leaf, detached, tags)
        except (AttributeError, TypeError) as exc:
            self.close(index)
            label = f"crf.nll.bwd ({exc})"
            if label not in self.absent:
                self.absent.append(label)
            return
        self.close(index)
        self.call("crf.nll.bwd", autodiff.backward, (loss,), {}, probe=True)

    def calibrate(self, calls: int = 20000) -> tuple[float, float]:
        """Seconds one recorded span and one counted call add to a call,
        measured on a no-op; the spans it makes are dropped again."""
        def noop():
            return None

        timed, counted = self._timed("calibration")(noop), self._counted("calibration")(noop)
        costs = []
        was, self.enabled = self.enabled, True
        first = len(self.spans)
        try:
            for fn in (noop, timed, counted):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                costs.append((time.perf_counter() - t0) / calls)
        finally:
            self.enabled = was
            del self.spans[first:]
            self.counts.pop("calibration", None)
        return costs[1] - costs[0], costs[2] - costs[0]

    def overhead_seconds(self, span_cost: float, count_cost: float) -> float:
        """Estimated time the recorded spans and counts added to the run."""
        spans = sum(1 for span in self.spans if not span[4])
        return spans * span_cost + sum(self.counts.values()) * count_cost

    def install(self) -> None:
        for owner, attr, name in _TIMED:
            self._replace(owner, attr, name, self._timed(name))
        for owner, attr, name in _OPS:
            self._replace(owner, attr, name, self._op(name))
        for owner, attr, name in _COUNTED:
            self._replace(owner, attr, name, self._counted(name))
        self._replace(training, "evaluate", "training.evaluate", self._evaluate)
        self._replace(training, "backward", "autodiff.backward", self._backward)
        self._replace(crf, "nll", "crf.nll", self._nll)
        model_classes = [
            cls for cls in vars(models).values()
            if isinstance(cls, type) and cls.__module__ == models.__name__
        ]
        for method in ("loss", "predict"):
            classes = [cls for cls in model_classes if method in vars(cls)]
            if not classes:
                self.absent.append(f"models.{method}")
            for cls in classes:
                self._replace(cls, method, f"models.{method}", self._timed(f"models.{method}"))
        viterbi_counter = self._counted("crf.viterbi.calls")
        self._replace(crf, "viterbi", "crf.viterbi", viterbi_counter)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds, inclusive seconds) per span name."""
        own: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        for span, self_s, total_s in zip(self.spans, *self._own_by_index()):
            own[span[0]] += self_s
            inclusive[span[0]] += total_s
        return own, inclusive

    def step_coverage(self) -> tuple[float, float] | None:
        """(traced training seconds, layer self seconds inside them).

        Training seconds are the ``training.train_model`` spans less their
        dev evaluation and probes; layer seconds are the self times of every
        non-probe span below them outside the dev evaluation."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            children[span[3]].append(i)
        own, _ = self._own_by_index()
        total = layer = 0.0
        roots = [i for i, s in enumerate(self.spans) if s[0] == "training.train_model"]
        if not roots:
            return None
        for root in roots:
            total += self.spans[root][2] - self.spans[root][1]
            stack = list(children[root])
            while stack:
                i = stack.pop()
                name, start, end, _, probe = self.spans[i]
                if probe or name == "training.dev_eval":
                    total -= end - start
                    continue
                layer += own[i]
                stack.extend(children[i])
        return total, layer

    def _own_by_index(self) -> tuple[list[float], list[float]]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, probe in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        durations = [s[2] - s[1] for s in self.spans]
        return [d - c for d, c in zip(durations, covered)], durations

    def probe_seconds(self) -> float:
        return sum(end - start for name, start, end, parent, probe in self.spans
                   if probe and (parent < 0 or not self.spans[parent][4]))

    def layer_metrics(self) -> dict[str, float]:
        own, inclusive = self.self_times()
        out = {metric: own.get(span, 0.0) for metric, span in LAYER_TIMES.items()}
        # the detached CRF backward is a probe: its own duration is the metric
        out["crf.nll.bwd_s"] = inclusive.get("crf.nll.bwd", 0.0)
        # dev evaluation is a phase, reported inclusive of what it calls
        out["training.dev_eval_s"] = inclusive.get("training.dev_eval", 0.0)
        for metric, counter in LAYER_COUNTS.items():
            out[metric] = float(self.counts.get(counter, 0))
        out["autodiff.graph_nodes_per_tweet"] = (
            sum(self.graph_nodes) / len(self.graph_nodes) if self.graph_nodes else 0.0
        )
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own, inclusive = self.self_times()
        payload = {
            **extra,
            "absent": self.absent,
            "counts": dict(self.counts),
            "self_s": dict(own),
            "inclusive_s": dict(inclusive),
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "probe": pr}
                for n, s, e, p, pr in self.spans
            ],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _count_nodes(root) -> int:
    """Tensors reachable from ``root`` through their parents."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "_parents", ()))
    return len(seen)
