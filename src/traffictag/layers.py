"""Neural building blocks on top of the autodiff core.

Hot-path primitives (affine heads, embedding lookup, the CNN encoder's
convolution with ReLU and max-over-time pooling, LSTM sequence runs, softmax
cross-entropy) carry hand-written backward passes in a single op so that a
sentence costs a handful of graph nodes instead of hundreds.
All of them are covered by the finite-difference checker in the test suite.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Array, Tensor, _accum, _sigmoid_nd, concat, take_rows


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a row vector or a matrix of rows."""
    if x.ndim not in (1, 2) or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ValueError(f"affine shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    out = Tensor(x.data @ w.data + b.data, (x, w, b))

    def bw(g: Array) -> None:
        _accum(x, g @ w.data.T)
        _accum(w, np.outer(x.data, g) if x.ndim == 1 else x.data.T @ g)
        _accum(b, g if x.ndim == 1 else g.sum(axis=0))

    out._backward = bw
    return out


def embedding_lookup(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Rows of an embedding table; duplicate ids accumulate gradient."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError(
            f"embedding ids out of range [0, {table.data.shape[0]}): {idx.min()}..{idx.max()}"
        )
    return take_rows(table, idx)


def conv_max_pool(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Windowed 1D convolution over token rows, ReLU, then max-over-time
    pooling: each filter's best window score, floored at +0.0.

    ``x`` is [n, d], ``w`` is [width * d, filters], ``b`` is [filters]; the
    output is [filters]. The gradient reaches only the earliest best window,
    and only where its score is positive.
    """
    n, d = x.data.shape
    wd, filters = w.data.shape
    if wd % d != 0:
        raise ValueError(f"conv filter rows {wd} not a multiple of token dim {d}")
    width = wd // d
    if n < width:
        raise ValueError(f"sequence of {n} tokens shorter than window width {width}")
    positions = n - width + 1
    windows = np.empty((positions, wd))
    for j in range(width):
        windows[:, j * d : (j + 1) * d] = x.data[j : j + positions]
    scores = windows @ w.data + b.data
    best, cols = scores.argmax(axis=0), np.arange(filters)
    top = scores[best, cols]
    out = Tensor(np.where(top > 0, top, 0.0), (x, w, b))

    def bw(g: Array) -> None:
        gs = np.zeros_like(scores)
        gs[best, cols] = np.where(top > 0, g, 0.0)
        _accum(w, windows.T @ gs)
        _accum(b, gs.sum(axis=0))
        gwin = gs @ w.data.T
        gx = np.zeros_like(x.data)
        for j in range(width):
            gx[j : j + positions] += gwin[:, j * d : (j + 1) * d]
        _accum(x, gx)

    out._backward = bw
    return out


def tile_rows(x: Tensor, n: int) -> Tensor:
    """Repeat a vector as n identical rows; the gradient sums back over rows."""
    out = Tensor(np.broadcast_to(x.data, (n,) + x.data.shape).copy(), (x,))
    out._backward = lambda g: _accum(x, g.sum(axis=0))
    return out


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; the identity when not training or rate is zero."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate outside [0, 1): {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * mask, (x,))
    out._backward = lambda g: _accum(x, g * mask)
    return out


def softmax_probs(logits: Array) -> Array:
    """Plain numpy max-shifted softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits: Tensor, gold: int | Sequence[int]) -> tuple[Tensor, Array]:
    """Stabilized softmax cross-entropy over the last axis, summed.

    ``logits`` is one logit vector with one gold index, or [n, classes] with
    one gold index per row. Returns (scalar loss tensor, detached
    probabilities shaped like ``logits``).
    """
    num_classes = logits.data.shape[-1]
    z = logits.data.reshape(-1, num_classes)
    gold_idx = np.asarray(gold, dtype=np.intp)
    if gold_idx.shape != logits.data.shape[:-1]:
        raise ValueError(f"expected gold indices of shape {logits.data.shape[:-1]}, "
                         f"got {gold_idx.shape}")
    gold_idx = gold_idx.reshape(-1)
    if gold_idx.size and (gold_idx.min() < 0 or gold_idx.max() >= num_classes):
        raise ValueError(f"gold index out of range [0, {num_classes})")
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    totals = e.sum(axis=1, keepdims=True)
    probs = e / totals
    rows = np.arange(z.shape[0])
    losses = np.log(totals[:, 0]) + m[:, 0] - z[rows, gold_idx]
    loss = Tensor(losses.sum(), (logits,))

    def bw(g: Array) -> None:
        delta = probs.copy()
        delta[rows, gold_idx] -= 1.0
        _accum(logits, g * delta.reshape(logits.shape))

    loss._backward = bw
    return loss, probs.reshape(logits.shape)


def lstm_seq(x: Tensor, w: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """Run an LSTM over token rows and return all hidden states.

    ``x`` is [n, d]; ``w`` is [d + hidden, 4 * hidden] with gate order
    input, forget, cell, output; ``b`` is [4 * hidden]. Output row t is the
    hidden state produced at position t; for a reversed run that is the
    state after reading tokens n-1 .. t.
    """
    n, d = x.data.shape
    four_h = b.data.shape[0]
    hidden = four_h // 4
    if w.data.shape != (d + hidden, four_h):
        raise ValueError(f"lstm weight shape {w.shape} != {(d + hidden, four_h)}")
    order = range(n - 1, -1, -1) if reverse else range(n)

    h = np.zeros(hidden)
    c = np.zeros(hidden)
    y = np.empty((n, hidden))
    cache = []
    wd, bd = w.data, b.data
    for t in order:
        xh = np.concatenate((x.data[t], h))
        z = xh @ wd + bd
        gi = _sigmoid_nd(z[:hidden])
        gf = _sigmoid_nd(z[hidden : 2 * hidden])
        gc = np.tanh(z[2 * hidden : 3 * hidden])
        go = _sigmoid_nd(z[3 * hidden :])
        c_prev = c
        c = gf * c_prev + gi * gc
        tc = np.tanh(c)
        h = go * tc
        y[t] = h
        cache.append((t, xh, gi, gf, gc, go, c_prev, tc))

    out = Tensor(y, (x, w, b))

    def bw(g: Array) -> None:
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


def bilstm(
    x: Tensor, wf: Tensor, bf: Tensor, wb: Tensor, bb: Tensor
) -> tuple[Tensor, Tensor, Tensor]:
    """Bidirectional LSTM over token rows.

    Returns (per-token states [n, 2*hidden], final forward state, final
    backward state). The per-token state is the concatenation of the two
    directional states at that position.
    """
    n = x.data.shape[0]
    forward = lstm_seq(x, wf, bf, reverse=False)
    backward_states = lstm_seq(x, wb, bb, reverse=True)
    states = concat((forward, backward_states), axis=1)
    return states, take_rows(forward, n - 1), take_rows(backward_states, 0)
