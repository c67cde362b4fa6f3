"""Linear-chain CRF over a packed batch of sentences: NLL and Viterbi.

A path through tags (y1..yn) scores

    start[y1] + sum_t emissions[t, yt] + sum_t transitions[y_t, y_{t+1}] + end[yn]

The partition function sums exp(score) over all T^n paths. ``nll`` is one
autodiff node per batch: the forward pass computes log Z exactly with the
alpha recursion in log space, and the backward pass runs the beta recursion
to get the forward-backward marginals. The gradient of the negative
log-likelihood is the expected feature counts under those marginals minus
the gold path's counts (Lafferty, McCallum & Pereira, ICML 2001; Sutton &
McCallum, arXiv:1011.4088, section 4.1). Every entry point takes a batch;
one sentence is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bio
from .autodiff import Array, Tensor, _accum
from .layers import _walk

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
    if t != crf.num_tags:
        raise ValueError(f"emission width {t} != tag count {crf.num_tags}")
    return n, t


def _logsumexp(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(x))) along ``axis``, shifted by the max for stability."""
    m = x.max(axis=axis, keepdims=True)
    out = np.log(np.exp(x - m).sum(axis=axis, keepdims=True)) + m
    return out.reshape(()) if axis is None else out.squeeze(axis)


def _crf_op(emissions: Tensor, crf: CrfModel, lens: Sequence[int],
            gold: np.ndarray | None) -> Tensor:
    """Σ log Z of a packed batch of sentences of ``lens`` tokens, longest
    first, minus the score of the gold paths in ``gold`` if any, as one node.

    The alpha (forward) and beta (backward) recursions run over
    ``layers._plan``'s time-major rows. The gradient of Σ log Z is the unary
    marginals for emissions, the summed pairwise marginals for transitions,
    and the sentences' summed first and last unary rows for start and end;
    gold paths subtract their one-hot indicators and bigram counts.
    """
    trans, start, end = crf.transitions.data, crf.start.data, crf.end.data
    ks, offs, src, out, prev = _walk(lens, emissions.data.shape[0])
    batch = ks[0]
    e = emissions.data[src]  # time-major: step 0 is rows [0, B), each sentence's first
    before = prev[batch:] - batch  # for the rows of steps >= 1, their previous row
    last = out[np.cumsum(lens) - 1]  # each sentence's last row
    alphas = np.empty_like(e)
    alphas[:batch] = e[:batch] + start
    for k, lo, lo_prev in zip(ks[1:], offs[1:], offs):
        alphas[lo : lo + k] = (_logsumexp(alphas[lo_prev : lo_prev + k, :, None] + trans, axis=1)
                               + e[lo : lo + k])
    log_z = _logsumexp(alphas[last] + end, axis=1)
    value = log_z.sum()
    if gold is not None:
        gold = gold[src]
        value -= (start[gold[:batch]].sum() + e[np.arange(len(e)), gold].sum()
                  + trans[gold[before], gold[batch:]].sum() + end[gold[last]].sum())
    out_t = Tensor(value, (emissions, crf.transitions, crf.start, crf.end))

    def bw(g: Array) -> None:
        betas = np.empty_like(e)
        betas[last] = end
        for k, lo, lo_next in zip(ks[1:][::-1], offs[-2::-1], offs[:0:-1]):
            # the first k rows of step s go on to step s + 1; the others end at s
            betas[lo : lo + k] = _logsumexp(
                trans + (e[lo_next : lo_next + k] + betas[lo_next : lo_next + k])[:, None, :],
                axis=2)
        z = np.repeat(log_z, lens)[src][:, None]  # each row's own sentence's log Z
        unary = np.exp(alphas + betas - z)
        pairwise = alphas[before, :, None] + trans  # [row, prev, cur], one array
        pairwise += (e[batch:] + betas[batch:] - z[batch:])[:, None, :]
        pairwise = np.exp(pairwise, out=pairwise).sum(axis=0)
        if gold is not None:
            unary[np.arange(len(e)), gold] -= 1.0
            np.add.at(pairwise, (gold[before], gold[batch:]), -1.0)
        _accum(emissions, g * unary[out])
        _accum(crf.transitions, g * pairwise)
        _accum(crf.start, g * unary[:batch].sum(axis=0))
        _accum(crf.end, g * unary[last].sum(axis=0))

    out_t._backward = bw
    return out_t


def nll(emissions: Tensor, crf: CrfModel, paths: Sequence[Sequence[int]]) -> Tensor:
    """Summed negative log-likelihood of the gold paths of sentences whose
    emission rows lie back to back, longest first; non-negative by construction."""
    _, t = _check_emissions(emissions, crf)
    gold = np.array([tag for path in paths for tag in path], dtype=np.intp)
    if np.any((gold < 0) | (gold >= t)):
        raise ValueError(f"gold tag out of range [0, {t})")
    return _crf_op(emissions, crf, [len(path) for path in paths], gold)


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


def viterbi(emissions: Tensor, crf: CrfModel, lengths: Sequence[int],
            constrained: bool = False) -> tuple[list[list[int]], list[float]]:
    """Highest-scoring tag path of each sentence in a batch, and its score.

    ``emissions`` holds the sentences' rows back to back, ``lengths[r]`` rows
    for sentence r, longest first, read in ``layers._plan``'s time-major
    rows, so step i extends the k_i sentences still running, a prefix of
    ``delta`` [B, tags]. Ties break toward the lowest tag index at every
    backtracking step. With ``constrained`` set, transitions that would
    produce an invalid BIO bigram (and I- tags at position 0) are masked out.
    """
    n, t = _check_emissions(emissions, crf)
    trans, start = crf.transitions.data, crf.start.data
    if constrained:
        if t != bio.NUM_TAGS:
            raise ValueError(f"constrained decode needs the {bio.NUM_TAGS}-tag BIO inventory")
        trans, start = trans + BIO_TRANSITION_MASK, start + BIO_START_MASK
    ks, offs, src, _, _ = _walk(lengths, n)
    e = emissions.data[src]  # time-major rows, step 0 first
    batch = ks[0]
    delta = e[:batch] + start  # [sentence, tag]
    backptr = np.zeros((n, t), dtype=np.intp)  # by time-major row
    for k, lo in zip(ks[1:], offs[1:]):  # the k sentences longer than the step still run
        scores = delta[:k, :, None] + trans  # [sentence, prev, cur]
        scores.argmax(axis=1, out=backptr[lo : lo + k])  # argmax takes the lowest index on ties
        np.maximum.reduce(scores, axis=1, out=delta[:k])
        delta[:k] += e[lo : lo + k]
    delta += crf.end.data
    backptr = backptr.tolist()
    paths, best_scores = [], []
    for r in range(batch):
        path = [int(delta[r].argmax())]
        best_scores.append(float(delta[r, path[0]]))
        for i in range(lengths[r] - 1, 0, -1):
            path.append(backptr[offs[i] + r][path[-1]])
        paths.append(path[::-1])
    return paths, best_scores
