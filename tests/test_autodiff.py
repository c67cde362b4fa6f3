"""Autodiff core and neural layers against the finite-difference oracle."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import traffictag
from helpers import adam_step_reference, cotangent, grad_check, lstm_seq_reference, project
from traffictag.autodiff import (
    Tensor,
    add,
    backward,
    concat,
    take_rows,
)
from traffictag.layers import (
    _plan,
    _rows_dot,
    affine,
    bilstm,
    conv_max_pool,
    dropout,
    embedding_lookup,
    lstm_seq,
    softmax_probs,
    softmax_xent,
)
from traffictag.optim import ParamStore, adam_step, clip_global_norm, sgd_step


class TestSoftmaxXent:
    def test_uniform_two_way(self):
        loss = softmax_xent(Tensor([[0.0, 0.0]]), [0])
        assert float(loss.data) == pytest.approx(math.log(2), abs=1e-12)
        assert softmax_probs(np.array([[0.0, 0.0]])).tolist() == [[0.5, 0.5]]

    def test_huge_logits_no_overflow(self):
        loss = softmax_xent(Tensor([[1000.0, 0.0]]), [0])
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(softmax_probs(np.array([[1000.0, 0.0]]))))

    def test_three_way_hand_value(self):
        # independent evaluation of -log softmax: log(e + e^2 + e^3) - 3
        expected = math.log(math.e + math.e**2 + math.e**3) - 3.0
        loss = softmax_xent(Tensor([[1.0, 2.0, 3.0]]), [2])
        assert float(loss.data) == pytest.approx(expected, abs=1e-12)
        assert float(loss.data) == pytest.approx(0.4076059644443806, abs=1e-12)

    def test_probs_on_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = rng.uniform(-50, 50, size=(rng.integers(1, 5), rng.integers(2, 9)))
            probs = softmax_probs(z)
            assert np.all(probs >= 0)
            assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_gold_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            softmax_xent(Tensor([[0.0, 0.0]]), [2])
        with pytest.raises(ValueError, match="n gold indices"):  # one gold index per row
            softmax_xent(Tensor([[0.0, 0.0], [1.0, 0.0]]), [0])
        with pytest.raises(ValueError, match=r"\[n, classes\]"):  # only [n, classes] logits
            softmax_xent(Tensor([0.0, 0.0]), 0)

    def test_rows_sums_per_row(self):
        logits = Tensor([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        loss = softmax_xent(logits, [2, 0])
        a = softmax_xent(Tensor([[1.0, 2.0, 3.0]]), [2])
        b = softmax_xent(Tensor([[0.0, 0.0, 0.0]]), [0])
        assert float(loss.data) == pytest.approx(float(a.data) + float(b.data), abs=1e-12)


class TestBackward:
    def test_quadratic_gradient(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.standard_normal((3, 3)))
        backward(project(affine(w, w, Tensor(np.zeros(3)))))
        r = cotangent((3, 3))
        # d<w @ w, R>/dw = R @ w^T + w^T @ R
        assert np.allclose(w.grad, r @ w.data.T + w.data.T @ r)

    def test_accumulation_without_zeroing_doubles(self):
        w = Tensor(np.random.default_rng(2).standard_normal((2, 2)))
        loss = project(affine(w, w, Tensor(np.zeros(2))))
        backward(loss)
        once = w.grad.copy()
        backward(loss)
        assert np.allclose(w.grad, 2 * once)

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError):
            backward(Tensor([1.0, 2.0]))

    def test_shared_subexpression(self):
        x = Tensor(np.array(3.0))
        backward(add(x, x))  # both parents are the same tensor
        assert x.grad == pytest.approx(2.0)


def _gc(build, *tensors, eps=1e-5):
    return grad_check(lambda: build(), tensors, epsilon=eps)


class TestGradCheckPerOp:
    """Every differentiable op at rel error <= 1e-4 on small random shapes."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def t(self, *shape):
        return Tensor(self.rng.standard_normal(shape))

    def test_add_same_shape(self):
        a, b = self.t(4, 3), self.t(4, 3)
        assert _gc(lambda: project(add(a, b)), a, b) < 1e-6
        with pytest.raises(ValueError, match=r"\(4, 3\) \+ \(3,\)"):
            add(a, self.t(3))  # no broadcasting

    def test_affine_matrix_of_rows(self):
        a, w, b, v = self.t(4, 3), self.t(3, 5), self.t(5), self.t(3)
        assert _gc(lambda: project(affine(a, w, b)), a, w, b) < 1e-6
        with pytest.raises(ValueError, match="mismatch"):
            affine(a, v, b)  # only a matrix of weights

    def test_concat(self):
        a, c = self.t(2, 3), self.t(2, 5)
        assert _gc(lambda: project(concat((a, c))), a, c) < 1e-6

    def test_take_rows_with_duplicates(self):
        x = self.t(5, 3)
        assert _gc(lambda: project(take_rows(x, [0, 2, 2, 4])), x) < 1e-6

    def test_affine_embedding(self):
        e = self.t(6, 4)
        w, b = self.t(4, 3), self.t(3)
        assert (
            _gc(lambda: project(affine(embedding_lookup(e, [1, 3, 1, 5]), w, b)), e, w, b)
            < 1e-6
        )

    def test_conv_and_pool(self):
        x = Tensor(self.t(12, 3).data[:10])  # a 6-token row, then a 4-token row
        w, b = self.t(9, 4), self.t(4)  # width 3
        b.data[0] = -50.0  # filter 0's best window scores below 0: no output, no gradient
        out = conv_max_pool(x, [6, 4], w, b).data
        assert np.all(out[:, 0] == 0.0) and np.all(out[:, 1:] > 0)
        assert _gc(lambda: project(conv_max_pool(x, [6, 4], w, b)), x, w, b) < 1e-4

    def test_softmax_xent_ops(self):
        rows = self.t(4, 6)
        assert _gc(lambda: softmax_xent(rows, [0, 5, 2, 2]), rows) < 1e-6

    def test_lstm_both_directions(self):
        x = self.t(9, 3)  # rows of 5, 3 and 1 tokens
        w, b = self.t(7, 16), self.t(16)
        lengths = [5, 3, 1]
        assert _gc(lambda: project(lstm_seq(x, lengths, w, b)), x, w, b) < 1e-4
        assert _gc(lambda: project(lstm_seq(x, lengths, w, b, reverse=True)), x, w, b) < 1e-4

    def test_bilstm(self):
        x = self.t(6, 3)
        wf, bf, wb, bb = self.t(7, 16), self.t(16), self.t(7, 16), self.t(16)

        def build():
            states, hf, hb = bilstm(x, [4, 2], wf, bf, wb, bb)
            return add(add(project(states, 0), project(hf, 1)), project(hb, 2))

        assert _gc(build, x, wf, bf, wb, bb) < 1e-4

    def test_dropout_with_fixed_rng(self):
        x = self.t(6, 4)

        def build():
            rng = np.random.default_rng(123)
            return project(dropout(x, 0.5, True, rng))

        assert _gc(build, x) < 1e-6


class TestLayerContracts:
    def test_max_pool_hand_case(self):
        # width 1: filter 0 scores x, tied at windows 1 and 2; filter 1 scores
        # -x - 2.5, at most -0.5, so its output is 0 and it passes no gradient
        x = Tensor([[1.0], [3.0], [3.0], [-2.0]])
        w, b = Tensor([[1.0, -1.0]]), Tensor([0.0, -2.5])
        out = conv_max_pool(x, [4], w, b)
        assert out.data.tolist() == [[3.0, 0.0]] and not np.signbit(out.data[0, 1])
        backward(project(out))
        r0 = cotangent((1, 2))[0, 0]
        assert x.grad.tolist() == [[0.0], [r0], [0.0], [0.0]]  # the earliest best window
        assert w.grad.tolist() == [[3.0 * r0, 0.0]]
        assert b.grad.tolist() == [r0, 0.0]

    def test_conv_positions(self):
        x = Tensor(np.zeros((8, 2)))
        w, b = Tensor(np.zeros((6, 4))), Tensor(np.zeros(4))  # width 3
        assert conv_max_pool(x, [5, 3], w, b).shape == (2, 4)

    def test_conv_too_short(self):
        with pytest.raises(ValueError):
            conv_max_pool(Tensor(np.zeros((5, 2))), [3, 2], Tensor(np.zeros((6, 4))),
                          Tensor(np.zeros(4)))

    def test_conv_batch_rows_equal_single_rows(self):
        """Each sentence of a packed batch is convolved on its own windows
        only: its output and gradients are bit-identical to a batch of that
        sentence alone."""
        rng = np.random.default_rng(4)
        lengths = [3, 9, 5, 3]
        starts = np.cumsum(lengths) - lengths
        x_data = rng.standard_normal((sum(lengths), 2))
        w_data, b_data = rng.standard_normal((6, 3)), rng.standard_normal(3)
        x, w, b = Tensor(x_data), Tensor(w_data), Tensor(b_data)
        out = conv_max_pool(x, lengths, w, b)
        backward(project(out))
        r = cotangent(out.shape)
        w_sum = np.zeros_like(w_data)
        for row, (start, n) in enumerate(zip(starts, lengths)):
            xr, wr, br = Tensor(x_data[start : start + n]), Tensor(w_data), Tensor(b_data)
            single = conv_max_pool(xr, [n], wr, br)
            assert np.array_equal(single.data[0], out.data[row])
            single._backward(r[row : row + 1])
            assert np.array_equal(xr.grad, x.grad[start : start + n])
            w_sum += wr.grad
        assert np.abs(w.grad - w_sum).max() <= 1e-12

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
        with pytest.raises(ValueError, match=r"\(4,\) @ \(4, 5\)"):  # only a matrix of rows
            affine(Tensor(np.zeros(4)), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))

    def test_dropout_zero_rate_identity(self):
        x = Tensor([1.0, 2.0])
        assert dropout(x, 0.0, True, np.random.default_rng(0)) is x

    def test_dropout_eval_identity(self):
        x = Tensor([1.0, 2.0])
        assert dropout(x, 0.5, False, None) is x

    def test_dropout_inverted_scaling(self):
        rng = np.random.default_rng(5)
        x = Tensor(np.ones(20000))
        out = dropout(x, 0.25, True, rng)
        kept = out.data[out.data > 0]
        assert kept[0] == pytest.approx(1 / 0.75)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropout_bad_rate(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, True, np.random.default_rng(0))

    def test_bilstm_output_shapes_and_finals(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((7, 3)))  # rows of 5 and 2 tokens
        wf, bf = Tensor(rng.standard_normal((7, 16))), Tensor(np.zeros(16))
        wb, bb = Tensor(rng.standard_normal((7, 16))), Tensor(np.zeros(16))
        states, hf, hb = bilstm(x, [5, 2], wf, bf, wb, bb)
        assert states.shape == (7, 8) and hf.shape == hb.shape == (2, 4)
        assert np.allclose(states.data[[4, 6], :4], hf.data)
        assert np.allclose(states.data[[0, 5], 4:], hb.data)

    @pytest.mark.parametrize("d,hidden", [(24, 24), (160, 128)])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_seq_matches_reference_loop(self, d, hidden, reverse):
        """The op reorders the per-token loop's arithmetic; on a batch of one
        its output and all three gradients stay within 1e-12 of the loop's at
        every length from 1 to 30, under a random cotangent."""
        rng = np.random.default_rng(d + reverse)
        w_data, b_data = _lstm_weights(rng, d, hidden)
        worst = 0.0
        for n in range(1, 31):
            x_data = rng.standard_normal((n, d))
            results = []
            for batch in (True, False):
                x, w, b = Tensor(x_data), Tensor(w_data), Tensor(b_data)
                out = lstm_seq(x, [n], w, b, reverse) if batch else lstm_seq_reference(
                    x, w, b, reverse)
                backward(project(out, seed=n))
                results.append((out.data, x.grad, w.grad, b.grad))
            for new, ref in zip(*results):
                assert new.shape == ref.shape
                worst = max(worst, float(np.abs(new - ref).max()))
        assert worst <= 1e-12

    @pytest.mark.parametrize("d,hidden", [(24, 24), (160, 128)])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_seq_batch_matches_reference_rows(self, d, hidden, reverse):
        """A packed batch of mixed lengths 1..30, longest first: each
        sentence's output and input gradient stay within 1e-12 of the loop run
        on that sentence alone, and the weight and bias gradients of the sum
        over sentences."""
        rng = np.random.default_rng(10 * d + reverse)
        w_data, b_data = _lstm_weights(rng, d, hidden)
        lengths = sorted([1, 30, 30, 2] + rng.integers(1, 31, 9).tolist(), reverse=True)
        starts = np.cumsum(lengths) - lengths
        x_data = rng.standard_normal((sum(lengths), d))
        r = cotangent((sum(lengths), hidden), seed=3)
        x, w, b = Tensor(x_data), Tensor(w_data), Tensor(b_data)
        out = lstm_seq(x, lengths, w, b, reverse=reverse)
        out._backward(r)
        w_sum, b_sum = np.zeros_like(w_data), np.zeros_like(b_data)
        worst = 0.0
        for start, n in zip(starts, lengths):
            rows = slice(start, start + n)
            xr, wr, br = Tensor(x_data[rows]), Tensor(w_data), Tensor(b_data)
            ref = lstm_seq_reference(xr, wr, br, reverse=reverse)
            ref._backward(r[rows])
            worst = max(worst, np.abs(out.data[rows] - ref.data).max(),
                        np.abs(x.grad[rows] - xr.grad).max())
            w_sum += wr.grad
            b_sum += br.grad
        worst = max(worst, np.abs(w.grad - w_sum).max(), np.abs(b.grad - b_sum).max())
        assert worst <= 1e-12

    def test_lstm_seq_rejects_unsorted_lengths(self):
        w, b = Tensor(np.zeros((5, 8))), Tensor(np.zeros(8))
        for lengths in ([2, 3], [3, 0], [4, 2], []):  # the lengths must sum to the 5 rows
            with pytest.raises(ValueError, match="descending"):
                lstm_seq(Tensor(np.zeros((5, 3))), lengths, w, b)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_seq_backward_twice_accumulates(self, reverse):
        rng = np.random.default_rng(7)
        x_data, w_data, b_data = (rng.uniform(-0.5, 0.5, s) for s in ((6, 5), (9, 16), (16,)))
        grads = []
        for batch in (True, False):
            x, w, b = Tensor(x_data), Tensor(w_data), Tensor(b_data)
            out = lstm_seq(x, [6], w, b, reverse) if batch else lstm_seq_reference(
                x, w, b, reverse)
            loss = project(out)
            backward(loss)
            once = [t.grad.copy() for t in (x, w, b)]
            backward(loss)
            for t, g in zip((x, w, b), once):
                assert np.array_equal(t.grad, 2.0 * g)
            grads.append([t.grad for t in (x, w, b)])
        for new, ref in zip(*grads):
            assert np.abs(new - ref).max() <= 1e-12

    def test_forward_finite_on_extreme_inputs(self):
        z = np.array([[1e3, -1e3], [-1e3, 1e3]])
        x = Tensor(np.array([[1e3, -1e3], [-1e3, 1e3], [1e3, 1e3], [-1e3, -1e3]]))
        w, b = Tensor(np.ones((4, 8))), Tensor(np.zeros(8))
        with np.errstate(over="raise"):
            for reverse in (False, True):
                out = lstm_seq(x, [3, 1], w, b, reverse=reverse)
                assert np.all(np.isfinite(out.data))
                out._backward(np.ones(out.shape))
                assert np.all(np.isfinite(x.grad)) and np.all(np.isfinite(w.grad))
        assert np.all(np.isfinite(softmax_probs(z)))

    def test_embedding_out_of_range(self):
        with pytest.raises(ValueError):
            embedding_lookup(Tensor(np.zeros((3, 2))), [0, 3])


# one lstm_seq and one affine head over 520 rows at the default widths; prints
# a digest of the weight gradients, which sum over all the rows
_THREAD_PROBE = """
import hashlib
import numpy as np
from traffictag.autodiff import Tensor, backward
from traffictag.layers import affine, lstm_seq, softmax_xent
rng = np.random.default_rng(0)
x = Tensor(rng.standard_normal((520, 160)))
w, b = Tensor(rng.uniform(-0.1, 0.1, (288, 512))), Tensor(np.zeros(512))
head_w, head_b = Tensor(rng.uniform(-0.1, 0.1, (128, 9))), Tensor(np.zeros(9))
logits = affine(lstm_seq(x, [30] * 10 + [20] * 10 + [10] * 2, w, b), head_w, head_b)
backward(softmax_xent(logits, rng.integers(0, 9, 520)))
print(hashlib.sha256(w.grad.tobytes() + head_w.grad.tobytes()).hexdigest())
"""


class TestRowsDot:
    def test_matches_one_product(self):
        rng = np.random.default_rng(23)
        for rows in (0, 1, 255, 256, 257, 700):
            a, b = rng.standard_normal((rows, 7)), rng.standard_normal((rows, 5))
            assert _rows_dot(a, b).shape == (7, 5)
            assert np.abs(_rows_dot(a, b) - a.T @ b).max() <= 1e-12 * max(1, rows)

    def test_weight_gradients_ignore_blas_thread_count(self):
        """Same inputs, one and two BLAS threads, in fresh processes: the
        weight gradients are bit-identical."""
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(traffictag.__file__).parents[1]))
            digests.add(subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                                       capture_output=True, text=True, check=True).stdout)
        assert len(digests) == 1


class TestPlan:
    """``layers._plan``, the time-major walk that ``lstm_seq`` and the CRF
    share: step s is rows offs[s] .. offs[s] + ks[s], sentence r at row
    offs[s] + r, and no row is padding."""

    @pytest.mark.parametrize("reverse", [False, True])
    def test_maps_are_inverse_on_active_slots(self, reverse):
        rng = np.random.default_rng(20 + reverse)
        cases = [(1,), (6,), (3, 3, 3), (1, 1, 1), (5, 1, 1), (7, 4, 4, 2, 1)]
        cases += [tuple(sorted(rng.integers(1, 12, rng.integers(1, 9)).tolist(), reverse=True))
                  for _ in range(100)]
        for lens in cases:
            ks, offs, src, out, prev = _plan(lens, reverse)
            batch, n = len(lens), sum(lens)
            starts = np.cumsum(lens) - lens
            # the rows active at step s are the prefix of rows longer than s
            assert ks == tuple(sum(m > s for m in lens) for s in range(lens[0]))
            assert offs == tuple(np.cumsum((0,) + ks[:-1]).tolist())
            assert src.shape == out.shape == prev.shape == (n,)
            for a in (src, out, prev):  # they are cached
                assert not a.flags.writeable
            # each packed row is read by exactly one time-major row, the one it maps to
            assert sorted(src) == list(range(n))
            assert out[src].tolist() == list(range(n))
            assert src[out].tolist() == list(range(n))
            first = starts + np.array(lens) - 1 if reverse else starts
            assert src[:batch].tolist() == first.tolist()  # a reversed row starts at its end
            for s, (k, lo) in enumerate(zip(ks, offs)):
                for r in range(k):
                    j = lo + r
                    assert src[j] == starts[r] + (lens[r] - 1 - s if reverse else s)
                    # the same sentence one step earlier, or its initial state
                    assert prev[j] == (r if s == 0 else batch + offs[s - 1] + r)
                    if s:
                        assert src[prev[j] - batch] == src[j] + (1 if reverse else -1)


def _lstm_weights(rng, d, hidden):
    scale = 1.0 / math.sqrt(d + hidden)
    return (rng.uniform(-scale, scale, (d + hidden, 4 * hidden)),
            rng.uniform(-scale, scale, 4 * hidden))


def _uniform_store(shape, seed):
    """A store of one uniform-initialized weight ``w``, drawn from ``seed``."""
    store = ParamStore([("w", shape, "uniform")])
    store.initialize(np.random.default_rng(seed))
    return store


class TestOptimizers:
    def test_sgd_hand_case(self):
        store = ParamStore([("p", (1,), "zeros")])
        p = store["p"]
        p.data[0] = 1.0
        p.grad = np.array([2.0])
        sgd_step(store, lr=0.015)
        assert p.data[0] == pytest.approx(0.97)

    def test_adam_first_step_magnitude_is_lr(self):
        # holds for any gradient scale well above the stabilizing epsilon
        for scale in (1e-4, 1.0, 1e6):
            store = ParamStore([("p", (1,), "zeros")])
            p = store["p"]
            p.grad = np.array([scale])
            adam_step(store, lr=0.01)
            assert abs(p.data[0]) == pytest.approx(0.01, rel=1e-3)

    def test_adam_in_place_equals_reference_bit_for_bit(self):
        # five steps, one parameter's gradient None (zero) at every step
        layout = [("w", (7, 5), "uniform"), ("e", (11, 3), "embedding"), ("b", (9,), "zeros")]
        stores = [ParamStore(layout), ParamStore(layout)]
        for store in stores:
            store.initialize(np.random.default_rng(4))
        moments = None
        for step in range(5):
            rng = np.random.default_rng(step)
            grads = {"w": rng.standard_normal((7, 5)) * 10.0 ** (step - 2), "e": None,
                     "b": rng.standard_normal(9)}
            for store in stores:
                for name, g in grads.items():
                    store[name].grad = None if g is None else g.copy()
            adam_step(stores[0], lr=0.01)
            adam_step_reference(stores[1], lr=0.01)
            ours, ref = stores
            for name in grads:
                for a, b in ((ours[name].data, ref[name].data), (ours.adam_m[name], ref.adam_m[name]),
                             (ours.adam_v[name], ref.adam_v[name])):
                    assert a.tobytes() == b.tobytes(), (step, name)
            # the moments are made at the first step and updated in place after it
            now = [id(ours.adam_m[n]) for n in grads] + [id(ours.adam_v[n]) for n in grads]
            assert moments in (None, now)
            moments = now

    def test_zero_gradient_leaves_params_unchanged(self):
        store = _uniform_store((3,), seed=0)
        p = store["w"]
        before = p.data.copy()
        p.grad = np.zeros(3)
        adam_step(store, lr=0.1)
        sgd_step(store, lr=0.1)
        assert np.array_equal(p.data, before)

    def test_clip_global_norm(self):
        store = ParamStore([("p", (2,), "zeros")])
        p = store["p"]
        p.grad = np.array([3.0, 4.0])
        norm = clip_global_norm(store, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_init_deterministic(self):
        a = _uniform_store((4, 5), seed=42)["w"]
        b = _uniform_store((4, 5), seed=42)["w"]
        assert np.array_equal(a.data, b.data)

    def test_uniform_init_bound(self):
        w = _uniform_store((16, 8), seed=1)["w"]
        assert np.all(np.abs(w.data) <= math.sqrt(1 / 16))
