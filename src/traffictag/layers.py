"""Neural building blocks on top of the autodiff core.

Hot-path primitives (affine heads, embedding lookup, the CNN encoder's
convolution, ReLU and max-over-time pooling, LSTM runs whose input projection
is one GEMM outside the recurrence, softmax cross-entropy) carry hand-written
backward passes in a single op so that a sentence costs a handful of graph
nodes instead of hundreds. The tests' finite-difference checker covers each.
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

    ``x @ w[:d] + b`` is hoisted out of the recurrence, which does one
    ``h @ w[d:]`` per token. The backward loop carries only ``dh`` and ``dc``
    and fills the gate gradient ``dz`` [n, 4 * hidden] row by row; then
    ``dx = dz @ w[:d]ᵀ``, ``dw = [xᵀ dz; h_prevᵀ dz]`` and ``db = Σ_t dz``.
    """
    n, d = x.data.shape
    four_h = b.data.shape[0]
    hidden = four_h // 4
    if w.data.shape != (d + hidden, four_h):
        raise ValueError(f"lstm weight shape {w.shape} != {(d + hidden, four_h)}")
    xs = x.data[::-1] if reverse else x.data  # reading order: step s reads row n-1-s if reversed
    wx, wh = w.data[:d], w.data[d:]
    i_, f_, c_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    z = xs @ wx + b.data
    gates = np.empty((n, four_h))  # sigmoid of z, except tanh on the cell slice
    cells = np.zeros((n + 1, hidden))  # row s + 1 is the state after step s, row 0 the start
    hs = np.zeros((n + 1, hidden))
    tanh_c = np.empty((n, hidden))
    for s in range(n):
        z[s] += hs[s] @ wh
        gates[s] = _sigmoid_nd(z[s])
        g = gates[s]
        np.tanh(z[s, c_], out=g[c_])
        np.add(g[f_] * cells[s], g[i_] * g[c_], out=cells[s + 1])
        np.tanh(cells[s + 1], out=tanh_c[s])
        np.multiply(g[o_], tanh_c[s], out=hs[s + 1])

    out = Tensor(np.ascontiguousarray(hs[:0:-1] if reverse else hs[1:]), (x, w, b))

    def bw(grad: Array) -> None:
        gy = grad[::-1] if reverse else grad
        gi, gf, gc, go = gates[:, i_], gates[:, f_], gates[:, c_], gates[:, o_]
        # step s: dc += dh * h_to_c; dz is dc * gate_coef on i, f, c and dh * out_coef on o
        h_to_c = go * (1.0 - tanh_c * tanh_c)
        gate_coef = np.stack((gc * gi * (1.0 - gi), cells[:-1] * gf * (1.0 - gf),
                              gi * (1.0 - gc * gc)), axis=1)
        out_coef = tanh_c * go * (1.0 - go)
        dz = np.empty((n, four_h))
        dh_next = dc_next = np.zeros(hidden)
        for s in range(n - 1, -1, -1):
            dh = gy[s] + dh_next
            dc = dc_next + dh * h_to_c[s]
            np.multiply(gate_coef[s], dc, out=dz[s, : 3 * hidden].reshape(3, hidden))
            np.multiply(dh, out_coef[s], out=dz[s, o_])
            dh_next = wh @ dz[s]
            dc_next = dc * gf[s]
        dx = dz @ wx.T
        _accum(x, dx[::-1] if reverse else dx)
        _accum(w, np.vstack((xs.T @ dz, hs[:-1].T @ dz)))
        _accum(b, dz.sum(axis=0))

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
