"""Neural building blocks on top of the autodiff core.

Hot-path primitives (affine heads, embedding lookup, the CNN encoder's
convolution, ReLU and max-over-time pooling, LSTM runs whose input
projection is one GEMM outside the recurrence, softmax cross-entropy) carry
hand-written backward passes in a single op so that a batch of sentences
costs a handful of graph nodes instead of hundreds. The tests'
finite-difference checker covers each. A batch crosses every op boundary
packed: its sentences' token rows back to back, [N, ·], with per-sentence
lengths, longest first. The recurrences, ``lstm_seq`` here and the CRF's in
``crf``, walk it time-major, without padding, by one cached ``_plan``.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .autodiff import Array, Tensor, _accum, concat, take_rows


def _rows_dot(a: Array, b: Array) -> Array:
    """aᵀ b, summed in order over blocks of 256 rows. OpenBLAS splits a longer
    inner dimension differently on one thread and on several (above 384 on an
    AVX-512 core), and same-seed runs must not depend on that."""
    rows = 256
    out = a[:rows].T @ b[:rows]
    for lo in range(rows, len(a), rows):
        out += a[lo : lo + rows].T @ b[lo : lo + rows]
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a matrix of rows."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ValueError(f"affine shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    out = Tensor(x.data @ w.data + b.data, (x, w, b))

    def bw(g: Array) -> None:
        _accum(x, g @ w.data.T)
        _accum(w, _rows_dot(x.data, g))
        _accum(b, g.sum(axis=0))

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


def conv_max_pool(x: Tensor, lengths: Sequence[int], w: Tensor, b: Tensor) -> Tensor:
    """Windowed 1D convolution over token rows, ReLU, then max-over-time
    pooling: each filter's best window score, floored at +0.0.

    ``x`` is a packed batch [N, d], sentence r holding the ``lengths[r]``
    rows after its predecessors' and convolved over its own windows only;
    ``w`` is [width * d, filters], ``b`` is [filters]; the output is
    [B, filters]. The gradient reaches only the earliest best window, and
    only where its score is positive.
    """
    d = x.data.shape[1]
    wd, filters = w.data.shape
    if wd % d != 0:
        raise ValueError(f"conv filter rows {wd} not a multiple of token dim {d}")
    width = wd // d
    if min(lengths) < width:
        raise ValueError(f"sequence of {min(lengths)} tokens shorter than window width {width}")
    starts = np.cumsum(lengths) - lengths
    cols, windows, best = np.arange(filters), [], []  # per row: its windows, best ones
    tops = np.empty((len(lengths), filters))
    for r, (start, n) in enumerate(zip(starts, lengths)):
        windows.append(np.empty((n - width + 1, wd)))
        for j in range(width):
            windows[r][:, j * d : (j + 1) * d] = x.data[start + j : start + j + n - width + 1]
        scores = windows[r] @ w.data + b.data
        best.append(scores.argmax(axis=0))
        tops[r] = scores[best[r], cols]
    out = Tensor(np.where(tops > 0, tops, 0.0), (x, w, b))

    def bw(g: Array) -> None:
        gx = np.zeros_like(x.data)
        for r, (start, win) in enumerate(zip(starts, windows)):
            gs = np.zeros((len(win), filters))
            gs[best[r], cols] = np.where(tops[r] > 0, g[r], 0.0)
            _accum(w, _rows_dot(win, gs))
            _accum(b, gs.sum(axis=0))
            gwin = gs @ w.data.T
            for j in range(width):
                gx[start + j : start + j + len(win)] += gwin[:, j * d : (j + 1) * d]
        _accum(x, gx)

    out._backward = bw
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


def softmax_xent(logits: Tensor, gold: Sequence[int]) -> Tensor:
    """Stabilized softmax cross-entropy of [n, classes] logits, one gold
    index per row, summed over the rows into a scalar loss tensor."""
    z = logits.data
    gold_idx = np.asarray(gold, dtype=np.intp)
    if z.ndim != 2 or gold_idx.shape != z.shape[:1]:
        raise ValueError(f"expected [n, classes] logits and n gold indices, "
                         f"got {z.shape} and {gold_idx.shape}")
    if gold_idx.size and (gold_idx.min() < 0 or gold_idx.max() >= z.shape[1]):
        raise ValueError(f"gold index out of range [0, {z.shape[1]})")
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    totals = e.sum(axis=1, keepdims=True)
    rows = np.arange(z.shape[0])
    losses = np.log(totals[:, 0]) + m[:, 0] - z[rows, gold_idx]
    loss = Tensor(losses.sum(), (logits,))

    def bw(g: Array) -> None:
        delta = e / totals
        delta[rows, gold_idx] -= 1.0
        _accum(logits, g * delta)

    loss._backward = bw
    return loss


# room for every per-tweet length in both directions and a round of chunks;
# a training batch's plan seldom recurs, so more would mostly hold memory
@functools.lru_cache(maxsize=64)
def _plan(lens: tuple[int, ...], reverse: bool) -> tuple:
    """How a recurrence walks a packed batch of sentences of ``lens`` tokens,
    longest first, in time-major rows without padding: (ks, offs, src, out,
    prev). Step s is rows offs[s] .. offs[s] + ks[s], one per sentence still
    running. Time-major row j reads packed row src[j] (a reversed run reads
    each sentence from its own end), and packed row i is row out[i]. Row j
    follows row prev[j] of a [B + N] state array whose first B rows are the
    start: B + offs[s - 1] + r for sentence r at step s > 0. The cached
    arrays are read-only."""
    n = np.array(lens)
    ks = (n > np.arange(lens[0])[:, None]).sum(axis=1)
    offs = np.cumsum(ks) - ks
    step = np.repeat(np.arange(lens[0]), ks)
    row = np.arange(n.sum()) - offs[step]  # the sentence of each time-major row
    src = np.cumsum(n)[row] - n[row] + (n[row] - 1 - step if reverse else step)
    out = np.empty_like(src)
    out[src] = np.arange(len(src))
    prev = np.where(step > 0, len(lens) + offs[step - 1] + row, row)
    src.flags.writeable = out.flags.writeable = prev.flags.writeable = False
    return tuple(ks.tolist()), tuple(offs.tolist()), src, out, prev


def _walk(lengths: Sequence[int], n: int, reverse: bool = False) -> tuple:
    """The ``_plan`` of sentences of ``lengths`` tokens that split n rows longest first."""
    lens = tuple(int(m) for m in lengths)
    if not lens or lens[-1] < 1 or sum(lens) != n or any(a < b for a, b in zip(lens, lens[1:])):
        raise ValueError(f"sentence lengths {list(lens)} do not split {n} rows longest first "
                         f"(descending, each >= 1)")
    return _plan(lens, reverse)


def lstm_seq(x: Tensor, lengths: Sequence[int], w: Tensor, b: Tensor,
             reverse: bool = False) -> Tensor:
    """Run an LSTM over a packed batch of token rows and return all hidden states.

    ``x`` is [N, d], sentence r holding ``lengths[r]`` rows back to back,
    longest first; ``w`` is [d + hidden, 4 * hidden] with gate order input,
    forget, cell, output; ``b`` is [4 * hidden]. Output row i [N, hidden] is
    the hidden state at input row i; a reversed run reads each sentence from
    its own end.

    The working arrays hold ``_plan``'s time-major rows, so the k_s
    sentences active at step s are one slice, and no row is padding.
    ``x @ w[:d] + b`` is one GEMM before the recurrence, which does one
    ``h @ w[d:]`` and one ``tanh`` over the 4h gate row per step, as
    σ(z) = ½·tanh(½z) + ½ and halving is exact. The backward loop carries
    only ``dh`` and ``dc`` as [k_s, hidden] and turns the gate factors into
    ``dz`` in place; then ``dx = dz @ w[:d]ᵀ``, ``dw = [xᵀ dz; h_prevᵀ dz]``
    and ``db = Σ dz``.
    """
    n, d = x.data.shape
    four_h = b.data.shape[0]
    hidden = four_h // 4
    if w.data.shape != (d + hidden, four_h):
        raise ValueError(f"lstm weight shape {w.shape} != {(d + hidden, four_h)}")
    ks, offs, src, out, prev = _walk(lengths, n, reverse)
    batch = ks[0]
    half = np.repeat((0.5, 0.5, 1.0, 0.5), hidden)  # the gates are half·tanh(half·z) + shift
    shift = 1.0 - half
    wx, wh = w.data[:d], w.data[d:]
    i_, f_, c_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    gates = x.data[src] @ wx  # becomes the gate values in place
    gates += b.data
    gi, gf, gc, go = gates[:, i_], gates[:, f_], gates[:, c_], gates[:, o_]
    cells = np.zeros((batch + n, hidden))  # rows B + j: after time-major row j; rows r: the start
    hs = np.zeros((batch + n, hidden))
    for k, lo in zip(ks, offs):  # step s reads its previous step's state from row prev[offs[s]] on
        now, before, after = slice(lo, lo + k), prev[lo], batch + lo
        g = gates[now]
        g += np.dot(hs[before : before + k], wh)
        g *= half
        np.tanh(g, out=g)
        g *= half
        g += shift
        np.add(gf[now] * cells[before : before + k], gi[now] * gc[now],
               out=cells[after : after + k])
        np.multiply(go[now], np.tanh(cells[after : after + k]), out=hs[after : after + k])
    y = Tensor(hs[batch:][out], (x, w, b))

    def bw(grad: Array) -> None:
        gy = grad[src]
        tanh_c = np.tanh(cells[batch:])  # recomputed, as are x's rows: the forward keeps less
        # step s: dc += dh * h_to_c; dz is dc * coef on i, f, c and dh * coef on o
        h_to_c = go * (1.0 - tanh_c * tanh_c)
        coef = np.empty((n, 4, hidden))
        np.multiply(gc, gi * (1.0 - gi), out=coef[:, 0])
        np.multiply(cells[prev], gf * (1.0 - gf), out=coef[:, 1])
        np.multiply(gi, 1.0 - gc * gc, out=coef[:, 2])
        np.multiply(tanh_c, go * (1.0 - go), out=coef[:, 3])
        del tanh_c
        dz, dz_icf, dz_o = coef.reshape(n, four_h), coef[:, :3], coef[:, 3]  # filled in place
        dh_next, dc_next = np.zeros((batch, hidden)), np.zeros((batch, hidden))
        wh_t = wh.T
        for k, lo in zip(ks[::-1], offs[::-1]):
            now = slice(lo, lo + k)
            dh = gy[now] + dh_next[:k]
            dc = dc_next[:k] + dh * h_to_c[now]
            icf, o = dz_icf[now], dz_o[now]
            icf *= dc[:, None]
            o *= dh
            np.dot(dz[now], wh_t, out=dh_next[:k])
            np.multiply(dc, gf[now], out=dc_next[:k])
        _accum(x, (dz @ wx.T)[out])
        _accum(w, np.vstack((_rows_dot(x.data[src], dz), _rows_dot(hs[prev], dz))))
        _accum(b, dz.sum(axis=0))

    y._backward = bw
    return y


def bilstm(
    x: Tensor, lengths: Sequence[int], wf: Tensor, bf: Tensor, wb: Tensor, bb: Tensor
) -> tuple[Tensor, Tensor, Tensor]:
    """Bidirectional LSTM over a packed batch [N, d], sentences longest first.

    Returns (per-token states [N, 2*hidden], each sentence's final forward
    state [B, hidden], and its final backward state [B, hidden]). The
    per-token state concatenates the two directions'.
    """
    ends = np.cumsum(lengths)
    forward = lstm_seq(x, lengths, wf, bf, reverse=False)
    backward_states = lstm_seq(x, lengths, wb, bb, reverse=True)
    states = concat((forward, backward_states))
    return states, take_rows(forward, ends - 1), take_rows(backward_states, ends - lengths)
