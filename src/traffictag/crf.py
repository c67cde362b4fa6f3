"""Linear-chain CRF: exact log-partition, NLL and batched Viterbi.

A path through tags (y1..yn) scores

    start[y1] + sum_t emissions[t, yt] + sum_t transitions[y_t, y_{t+1}] + end[yn]

The partition function sums exp(score) over all T^n paths. ``nll`` and
``log_partition`` are one autodiff node each: the forward pass computes log Z
exactly with the alpha recursion in log space, and the backward pass runs the
beta recursion to get the forward-backward marginals. The gradient of the
negative log-likelihood is the expected feature counts under those marginals
minus the gold path's counts (Lafferty, McCallum & Pereira, ICML 2001;
Sutton & McCallum, arXiv:1011.4088, section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bio
from .autodiff import Array, Tensor, _accum
from .layers import _plan

NEG_INF = -1e4  # soft minus-infinity for constrained decoding


@dataclass
class CrfModel:
    """Transition scores between tags plus start/end scores.

    ``transitions[i, j]`` scores tag j directly following tag i.
    """

    transitions: Tensor
    start: Tensor
    end: Tensor

    @property
    def num_tags(self) -> int:
        return self.transitions.data.shape[0]

    def __post_init__(self):
        t = self.num_tags
        if self.transitions.data.shape != (t, t):
            raise ValueError(f"transitions must be square, got {self.transitions.shape}")
        if self.start.data.shape != (t,) or self.end.data.shape != (t,):
            raise ValueError("start/end score shapes must match the tag count")


def _check_emissions(emissions: Tensor, crf: CrfModel) -> tuple[int, int]:
    if emissions.ndim != 2:
        raise ValueError(f"emissions must be [n, tags], got shape {emissions.shape}")
    n, t = emissions.data.shape
    if n < 1:
        raise ValueError("empty sequence: CRF needs at least one token")
    if t != crf.num_tags:
        raise ValueError(f"emission width {t} != tag count {crf.num_tags}")
    return n, t


def _logsumexp(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(x))) along ``axis``, shifted by the max for stability."""
    m = x.max(axis=axis, keepdims=True)
    out = np.log(np.exp(x - m).sum(axis=axis, keepdims=True)) + m
    return out.reshape(()) if axis is None else out.squeeze(axis)


def _crf_op(emissions: Tensor, crf: CrfModel, gold: np.ndarray | None) -> Tensor:
    """log Z, or log Z minus the gold path score, as one autodiff node.

    The forward pass runs the alpha recursion; the backward pass runs the
    beta recursion and turns both into marginals. The gradient of log Z is
    the unary marginals for emissions, the summed pairwise marginals for
    transitions, and the first and last marginal rows for start and end; a
    gold path subtracts its one-hot indicators and bigram counts.
    """
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
        value = log_z - (
            start[gold[0]] + e[rows, gold].sum() + trans[gold[:-1], gold[1:]].sum() + end[gold[-1]]
        )
    out = Tensor(value, (emissions, crf.transitions, crf.start, crf.end))

    def bw(g: Array) -> None:
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


def log_partition(emissions: Tensor, crf: CrfModel) -> Tensor:
    """log sum over all tag paths of exp(path score), differentiable."""
    _check_emissions(emissions, crf)
    return _crf_op(emissions, crf, None)


def nll(emissions: Tensor, crf: CrfModel, tags: Sequence[int]) -> Tensor:
    """Negative log-likelihood of a gold path; non-negative by construction."""
    n, t = _check_emissions(emissions, crf)
    gold = np.asarray(tags, dtype=np.intp)
    if gold.shape != (n,):
        raise ValueError(f"gold path length {gold.size} != sequence length {n}")
    if gold.min() < 0 or gold.max() >= t:
        raise ValueError(f"gold tag out of range [0, {t})")
    return _crf_op(emissions, crf, gold)


# additive masks (0 or NEG_INF) over the 9-tag BIO inventory, from the rule
# of ``bio.validate`` read at the last position only, since
# validate(("I-x", "I-x")) also flags position 0: row i of the transition mask
# holds the tags that may not follow tag i, and the start mask forbids an
# initial I- tag
BIO_TRANSITION_MASK = np.array([
    [NEG_INF if any(i == 1 for i, _ in bio.validate((prev, tag))) else 0.0 for tag in bio.TAGS]
    for prev in bio.TAGS
])
BIO_START_MASK = np.array([NEG_INF if bio.validate((tag,)) else 0.0 for tag in bio.TAGS])
BIO_TRANSITION_MASK.flags.writeable = BIO_START_MASK.flags.writeable = False


def viterbi(emissions: Tensor, crf: CrfModel, lengths: Sequence[int] | None = None,
            constrained: bool = False) -> tuple[list[list[int]], list[float]]:
    """Highest-scoring tag path of each sentence in a batch, and its score.

    ``emissions`` holds the sentences' rows back to back, ``lengths[r]`` rows
    for sentence r (default: one sentence), longest first, padded time-major
    by ``layers._plan``, so step i extends the k_i sentences still running, a
    prefix of ``delta`` [B, tags]. Ties break toward the lowest tag index at
    every backtracking step. With ``constrained`` set, transitions that would
    produce an invalid BIO bigram (and I- tags at position 0) are masked out.
    """
    n, t = _check_emissions(emissions, crf)
    lens = [n] if lengths is None else [int(m) for m in lengths]
    if (not lens or lens[-1] < 1 or sum(lens) != n
            or any(a < b for a, b in zip(lens, lens[1:]))):
        raise ValueError(f"sentence lengths {lens} do not split {n} emission rows longest first")
    trans, start = crf.transitions.data, crf.start.data
    if constrained:
        if t != bio.NUM_TAGS:
            raise ValueError(f"constrained decode needs the {bio.NUM_TAGS}-tag BIO inventory")
        trans, start = trans + BIO_TRANSITION_MASK, start + BIO_START_MASK
    ks, src, _ = _plan(tuple(lens), False)
    e = emissions.data[src].reshape(len(ks), len(lens), t)  # [step, sentence, tag]
    delta = e[0] + start
    backptr = np.zeros((len(ks), len(lens), t), dtype=np.intp)  # [step, sentence, tag]
    for i, k in enumerate(ks[1:], 1):  # the k sentences longer than i are still running
        scores = delta[:k, :, None] + trans  # [sentence, prev, cur]
        scores.argmax(axis=1, out=backptr[i, :k])  # argmax takes the lowest index on ties
        np.maximum.reduce(scores, axis=1, out=delta[:k])
        delta[:k] += e[i, :k]
    delta += crf.end.data
    backptr = backptr.tolist()
    paths, best_scores = [], []
    for r in range(len(lens)):
        path = [int(delta[r].argmax())]
        best_scores.append(float(delta[r, path[0]]))
        for i in range(lens[r] - 1, 0, -1):
            path.append(backptr[i][r][path[-1]])
        paths.append(path[::-1])
    return paths, best_scores
