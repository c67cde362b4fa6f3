"""Reverse-mode autodiff over dense float64 numpy arrays.

A Tensor wraps an ndarray plus a gradient slot. Operations record a backward
closure and their parent tensors; :func:`backward` replays the closures in
reverse topological order from a scalar loss. Gradients on leaf tensors
(parameters) accumulate across backward calls until the caller zeros them;
gradients on interior nodes are reset at the start of every backward pass.

Everything is float64 so that the tests' finite-difference checker is a
meaningful oracle for every op built on top.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple["Tensor", ...] = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self._parents = parents
        self._backward: Callable[[Array], None] | None = None  # set by the op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, data={self.data!r})"


def _accum(t: Tensor, g: Array) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


# ---------------------------------------------------------------------------
# Elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data, (a, b))

    def bw(g: Array) -> None:
        _accum(a, g)
        _accum(b, g)

    out._backward = bw
    return out


def mul_const(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c, (a,))
    out._backward = lambda g: _accum(a, g * c)
    return out


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join the columns of matrices with one row count."""
    parts = tuple(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=1), parts)
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def bw(g: Array) -> None:
        for p, lo, hi in zip(parts, offsets, offsets[1:]):
            _accum(p, g[:, lo:hi])

    out._backward = bw
    return out


def take_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather the rows of a tensor at an index array; duplicate indices
    accumulate gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(x.data[idx], (x,))

    def bw(g: Array) -> None:
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, idx, g)

    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate gradients of every tensor reachable from a scalar loss.

    Interior gradients are recomputed from scratch; leaf gradients accumulate
    across calls (callers zero parameter grads once per optimization step).
    """
    if loss.data.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    for node in order:
        if node._parents:
            node.grad = None
    _accum(loss, np.ones((), dtype=np.float64))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)

