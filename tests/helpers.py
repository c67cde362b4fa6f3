"""Shared generators for randomized property tests, the grad checks'
random-cotangent reducer, the per-token LSTM loop that ``lstm_seq`` is
checked against, the metric report's schema oracle, and a checkpoint
archive's payload reader and writer for damage tests."""

from __future__ import annotations

import json
import random

import numpy as np

from traffictag.autodiff import Tensor, _accum
from traffictag.bio import TAGS
from traffictag.corpus import SLOT_TYPES, SlotSpan
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
