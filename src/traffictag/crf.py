"""Linear-chain CRF over a packed batch of sentences: NLL and Viterbi.

A path through tags (y1..yn) scores

    start[y1] + sum_t emissions[t, yt] + sum_t transitions[y_t, y_{t+1}] + end[yn]

The partition function sums exp(score) over all T^n paths. ``nll`` is one
autodiff node per batch, a scaled forward-backward in probability space
(Rabiner, Proc. IEEE 77(2), 1989; Sutton & McCallum, arXiv:1011.4088, 4.1):
each alpha step is one [k, T] @ [T, T] product with exp(transitions - max),
times exp(emissions - row max), over its row sums c, and log Z adds up the
log c and the removed maxima. The beta steps reuse c, the unary marginals are
alpha * beta, and the gradient is the expected feature counts under the
marginals minus the gold path's (Lafferty, McCallum & Pereira, ICML 2001).
While each of transitions, start and end spreads (max - min) at most
``SPREAD_BOUND`` = 300, every c stays >= e^-300 and every scaled beta
<= e^300 whatever the emissions, so no product leaves float64's range (e^709);
past it the loss and its gradients are NaN, which training reports as
divergence. Every entry point takes a batch; one sentence is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bio
from .autodiff import Array, Tensor, _accum
from .layers import _rows_dot, _walk

NEG_INF = -1e4  # soft minus-infinity for constrained decoding
SPREAD_BOUND = 300.0  # largest max - min of transitions, start or end that nll represents


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


def _crf_op(emissions: Tensor, crf: CrfModel, lens: Sequence[int],
            gold: np.ndarray | None) -> Tensor:
    """Σ log Z of a packed batch of sentences of ``lens`` tokens, longest
    first, minus the score of the gold paths in ``gold`` if any, as one node
    over ``layers._plan``'s time-major rows. The gradient of Σ log Z is the
    unary marginals for emissions, the summed pairwise marginals for
    transitions, and the sentences' summed first and last unary rows for start
    and end; gold paths subtract their one-hot indicators and bigram counts."""
    trans, start, end = scores = crf.transitions.data, crf.start.data, crf.end.data
    ks, offs, src, out, prev = _walk(lens, emissions.data.shape[0])
    batch = ks[0]
    e = emissions.data[src]  # time-major: step 0 is rows [0, B), each sentence's first
    before = prev[batch:] - batch  # for the rows of steps >= 1, their previous row
    last = out[np.cumsum(lens) - 1]  # each sentence's last row
    tops = [s.max() for s in scores]
    exp_trans, exp_start, exp_end = (np.exp(s - top) for s, top in zip(scores, tops))
    row_tops = e.max(axis=1)
    p = np.exp(e - row_tops[:, None])  # each row's largest entry is 1
    if any(top - s.min() > SPREAD_BOUND for s, top in zip(scores, tops)):
        p.fill(np.nan)  # past the bound the products can overflow: NaN, not a wrong log Z
    alphas, c, ones = np.empty_like(e), np.empty(len(e)), np.ones(e.shape[1])
    np.multiply(p[:batch], exp_start, out=alphas[:batch])
    for k, lo, lo_prev in zip(ks, offs, (None,) + offs):  # each alphas row sums to 1
        a = alphas[lo : lo + k]
        if lo_prev is not None:
            np.dot(alphas[lo_prev : lo_prev + k], exp_trans, out=a)
            a *= p[lo : lo + k]
        np.dot(a, ones, out=c[lo : lo + k])  # the row sums, as one call
        a /= c[lo : lo + k, None]
    ends = alphas[last] @ exp_end
    value = (np.log(c).sum() + row_tops.sum() + np.log(ends).sum()
             + batch * (tops[1] + tops[2]) + (len(e) - batch) * tops[0])
    if gold is not None:
        gold = gold[src]
        value -= (start[gold[:batch]].sum() + e[np.arange(len(e)), gold].sum()
                  + trans[gold[before], gold[batch:]].sum() + end[gold[last]].sum())
    out_t = Tensor(value, (emissions, crf.transitions, crf.start, crf.end))

    def bw(g: Array) -> None:
        # betas scaled so that alphas * betas are the unary marginals; pb = p * betas
        betas, pb, exp_trans_t = np.empty_like(e), np.empty_like(e), exp_trans.T.copy()
        betas[last] = exp_end / ends[:, None]
        for k, lo, lo_next in zip(ks[1:][::-1], offs[-2::-1], offs[:0:-1]):
            # the first k rows of step s go on to step s + 1; the others end at s
            nxt = slice(lo_next, lo_next + k)
            np.multiply(p[nxt], betas[nxt], out=pb[nxt])
            np.dot(pb[nxt], exp_trans_t, out=betas[lo : lo + k])
            betas[lo : lo + k] /= c[nxt, None]
        unary = alphas * betas
        # the alpha side takes the division by c, so each factor stays at or below e^300
        pairwise = _rows_dot(alphas[before] / c[batch:, None], pb[batch:]) * exp_trans
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
