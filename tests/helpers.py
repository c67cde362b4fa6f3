"""Shared generators for randomized property tests, the grad checks'
random-cotangent reducer, the metric report's schema oracle, and a
checkpoint archive's payload reader and writer for damage tests."""

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
    and values that reshape to it raises NoArchiveForm."""
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
    with open(path, "wb") as f:
        np.savez(f, **members)
