"""Linear-chain CRF against the exhaustive-enumeration oracle."""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from helpers import brute_force_oracle, crf_reference, grad_check, log_partition
from traffictag import bio
from traffictag.autodiff import Tensor, backward, take_rows
from traffictag.crf import (
    BIO_START_MASK,
    BIO_TRANSITION_MASK,
    NEG_INF,
    CrfModel,
    nll,
    viterbi,
)


def zero_model(num_tags: int) -> CrfModel:
    return CrfModel(
        Tensor(np.zeros((num_tags, num_tags))),
        Tensor(np.zeros(num_tags)),
        Tensor(np.zeros(num_tags)),
    )


def random_instance(rng: np.random.Generator, n: int, t: int):
    emissions = Tensor(rng.uniform(-2, 2, size=(n, t)))
    model = CrfModel(
        Tensor(rng.uniform(-2, 2, size=(t, t))),
        Tensor(rng.uniform(-2, 2, size=t)),
        Tensor(rng.uniform(-2, 2, size=t)),
    )
    return emissions, model


def random_batch(rng: np.random.Generator, t: int, max_len: int):
    """A packed batch of 1-8 sentences of 1..max_len tokens, longest first,
    with one random gold path each."""
    lens = sorted(rng.integers(1, max_len + 1, int(rng.integers(1, 9))).tolist(), reverse=True)
    emissions, model = random_instance(rng, sum(lens), t)
    return emissions, model, [rng.integers(0, t, n).tolist() for n in lens]


def enumerated_nll_gradients(emissions, model, gold):
    """Gradients of the NLL by enumerating all T^n paths: expected feature
    counts under the path distribution minus the gold path's counts."""
    e = emissions.data
    n, t = e.shape
    paths = np.array(list(itertools.product(range(t), repeat=n)))  # [T^n, n]
    rows = np.arange(n)
    scores = (
        model.start.data[paths[:, 0]]
        + e[rows, paths].sum(axis=1)
        + model.transitions.data[paths[:, :-1], paths[:, 1:]].sum(axis=1)
        + model.end.data[paths[:, -1]]
    )
    probs = np.exp(scores - scores.max())
    probs /= probs.sum()

    def counts(ids, size, weights):
        return np.bincount(ids.ravel(), weights.ravel(), minlength=size)

    pair_ids = paths[:, :-1] * t + paths[:, 1:]
    pair_weights = np.broadcast_to(probs[:, None], pair_ids.shape)
    expected = [
        np.stack([counts(paths[:, i], t, probs) for i in range(n)]),
        counts(pair_ids, t * t, pair_weights).reshape(t, t),
        counts(paths[:, 0], t, probs),
        counts(paths[:, -1], t, probs),
    ]
    gold = np.asarray(gold)
    observed = [np.zeros((n, t)), np.zeros((t, t)), np.zeros(t), np.zeros(t)]
    observed[0][rows, gold] = 1.0
    np.add.at(observed[1], (gold[:-1], gold[1:]), 1.0)
    observed[2][gold[0]] = 1.0
    observed[3][gold[-1]] = 1.0
    return [a - b for a, b in zip(expected, observed)]


class TestLogPartition:
    def test_uniform_two_by_two(self):
        value = log_partition(Tensor(np.zeros((2, 2))), zero_model(2))
        assert float(value.data) == pytest.approx(math.log(4), abs=1e-12)

    def test_single_token_is_logsumexp(self):
        emissions = Tensor([[0.3, -1.2, 2.0]])
        value = log_partition(emissions, zero_model(3))
        expected = math.log(sum(math.exp(v) for v in (0.3, -1.2, 2.0)))
        assert float(value.data) == pytest.approx(expected, abs=1e-12)

    def test_hand_enumerated_value(self):
        # four paths score 1, 2, 0, 1 -> log(e + e^2 + 1 + e), frozen from the
        # enumeration oracle
        emissions = Tensor([[1.0, 0.0], [0.0, 1.0]])
        value = log_partition(emissions, zero_model(2))
        assert float(value.data) == pytest.approx(2.6265233750364456, abs=1e-12)
        oracle_log_z, _, _ = brute_force_oracle(emissions, zero_model(2))
        assert float(value.data) == pytest.approx(oracle_log_z, abs=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            log_partition(Tensor(np.zeros((0, 2))), zero_model(2))

    def test_row_shift_moves_log_z_by_constant(self):
        rng = np.random.default_rng(3)
        emissions, model = random_instance(rng, 4, 3)
        base = float(log_partition(emissions, model).data)
        [base_path], _ = viterbi(emissions, model, [4])
        shifted = emissions.data.copy()
        shifted[2] += 1.7
        after = float(log_partition(Tensor(shifted), model).data)
        [after_path], _ = viterbi(Tensor(shifted), model, [4])
        assert after == pytest.approx(base + 1.7, abs=1e-10)
        assert after_path == base_path


class TestNll:
    def test_hand_value(self):
        emissions = Tensor([[1.0, 0.0], [0.0, 1.0]])
        loss = nll(emissions, zero_model(2), [[0, 1]])
        assert float(loss.data) == pytest.approx(2.6265233750364456 - 2.0, abs=1e-12)

    def test_uniform_any_gold(self):
        for gold in ([0, 0], [0, 1], [1, 0], [1, 1]):
            loss = nll(Tensor(np.zeros((2, 2))), zero_model(2), [gold])
            assert float(loss.data) == pytest.approx(math.log(4), abs=1e-12)

    def test_nonnegative_and_minimal_at_viterbi(self):
        emissions = Tensor([[1.0, 0.0], [0.0, 1.0]])
        model = zero_model(2)
        losses = {
            (a, b): float(nll(emissions, model, [[a, b]]).data)
            for a in range(2)
            for b in range(2)
        }
        assert all(v >= 0 for v in losses.values())
        [path], _ = viterbi(emissions, model, [2])
        assert losses[tuple(path)] == min(losses.values())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nll(Tensor(np.zeros((2, 2))), zero_model(2), [[0]])

    def test_gold_out_of_range(self):
        with pytest.raises(ValueError):
            nll(Tensor(np.zeros((2, 2))), zero_model(2), [[0, 5]])

    def test_single_token_has_zero_transition_gradient(self):
        rng = np.random.default_rng(4)
        emissions, model = random_instance(rng, 1, 5)
        backward(nll(emissions, model, [[3]]))
        assert np.array_equal(model.transitions.grad, np.zeros((5, 5)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        emissions, model = random_instance(rng, 4, 4)
        params = [emissions, model.transitions, model.start, model.end]
        err = grad_check(lambda: nll(emissions, model, [[0, 2, 1, 3]]), params)
        assert err < 1e-6
        assert grad_check(lambda: log_partition(emissions, model), params) < 1e-6


class TestBatchedNll:
    """``nll`` over a packed batch of mixed lengths: the sum of its
    sentences' terms, against the per-sentence reference op and the
    enumeration oracle."""

    def test_matches_per_sentence_reference(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            emissions, model, paths = random_batch(rng, int(rng.integers(2, 10)), 12)
            params = [emissions, model.transitions, model.start, model.end]
            loss = nll(emissions, model, paths)
            backward(loss)
            batched = [p.grad for p in params]
            for p in params:
                p.grad = None
            rows = np.cumsum([0] + [len(path) for path in paths])
            total = 0.0
            for i, path in enumerate(paths):
                one = crf_reference(take_rows(emissions, range(rows[i], rows[i + 1])), model, path)
                total += float(one.data)
                backward(one)
            assert abs(float(loss.data) - total) <= 1e-12 * max(1.0, abs(total))
            for got, p in zip(batched, params):
                assert np.abs(got - p.grad).max() <= 1e-12

    def test_matches_enumeration(self):
        rng = np.random.default_rng(62)
        for _ in range(60):
            emissions, model, paths = random_batch(rng, int(rng.integers(2, 5)), 5)
            params = [emissions, model.transitions, model.start, model.end]
            loss = nll(emissions, model, paths)
            backward(loss)
            rows = np.cumsum([0] + [len(path) for path in paths])
            value, expected = 0.0, [np.zeros_like(p.data) for p in params]
            for i, path in enumerate(paths):
                e = emissions.data[rows[i] : rows[i + 1]]
                log_z, _, _ = brute_force_oracle(e, model)
                value += log_z - (model.start.data[path[0]] + e[np.arange(len(path)), path].sum()
                                  + model.transitions.data[path[:-1], path[1:]].sum()
                                  + model.end.data[path[-1]])
                grads = enumerated_nll_gradients(Tensor(e), model, path)
                expected[0][rows[i] : rows[i + 1]] = grads[0]
                for want, g in zip(expected[1:], grads[1:]):
                    want += g
            assert abs(float(loss.data) - value) < 1e-10
            for p, want in zip(params, expected):
                assert np.abs(p.grad - want).max() < 1e-10

    def test_paths_must_split_the_rows(self):
        # [[0], [0, 1]] is not longest first
        for paths in ([[0], [0, 1]], [[0, 1]], [[0, 1, 1], []], []):
            with pytest.raises(ValueError, match="do not split"):
                nll(Tensor(np.zeros((3, 2))), zero_model(2), paths)


class TestViterbi:
    def test_emission_dominant(self):
        [path], [score] = viterbi(Tensor([[1.0, 0.0], [0.0, 1.0]]), zero_model(2), [2])
        assert path == [0, 1]
        assert score == pytest.approx(2.0)

    def test_tie_break_lowest_index(self):
        [path], [score] = viterbi(Tensor(np.zeros((3, 2))), zero_model(2), [3])
        assert path == [0, 0, 0]
        assert score == 0.0

    def test_transition_flips_emission_argmax(self):
        # emission-only argmax is [0, 1]; a hostile 0->1 transition flips it
        model = zero_model(2)
        model.transitions.data[0, 1] = -5.0
        emissions = Tensor([[1.0, 0.0], [0.0, 1.0]])
        [path], [score] = viterbi(emissions, model, [2])
        _, oracle_path, oracle_score = brute_force_oracle(emissions, model)
        assert path != [0, 1]
        assert path == oracle_path
        assert score == pytest.approx(oracle_score)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            viterbi(Tensor(np.zeros((0, 2))), zero_model(2), [0])

    def test_lengths_must_split_the_rows(self):
        for lengths in ([2, 2], [3, 0, 1], [], [1, 2]):  # [1, 2]: not longest first
            with pytest.raises(ValueError, match="do not split"):
                viterbi(Tensor(np.zeros((3, 2))), zero_model(2), lengths)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_batch_matches_oracle_per_sentence(self, constrained):
        """Sentences of mixed lengths, longest first, decoded as one batch:
        each path and score is the brute-force argmax of that sentence alone,
        under the masked scores when constrained, and the batch returns them
        in input order."""
        rng = np.random.default_rng(31 + constrained)
        t = bio.NUM_TAGS if constrained else 4
        for _ in range(12):
            lengths = sorted(rng.integers(1, 5 if constrained else 7, int(rng.integers(1, 9))).tolist(),
                             reverse=True)
            emissions, model = random_instance(rng, sum(lengths), t)
            if constrained:  # the oracle enumerates the masked scores
                masked = CrfModel(Tensor(model.transitions.data + BIO_TRANSITION_MASK),
                                  Tensor(model.start.data + BIO_START_MASK), model.end)
            paths, scores = viterbi(emissions, model, lengths, constrained=constrained)
            assert len(paths) == len(scores) == len(lengths)
            rows = np.cumsum([0] + lengths)
            for i, n in enumerate(lengths):
                single = Tensor(emissions.data[rows[i] : rows[i + 1]])
                _, oracle_path, oracle_score = brute_force_oracle(
                    single, masked if constrained else model)
                assert paths[i] == oracle_path
                assert scores[i] == pytest.approx(oracle_score, abs=1e-12)
                assert viterbi(single, model, [n], constrained=constrained) == ([paths[i]],
                                                                           [scores[i]])


class TestOracleAgreement:
    def test_200_random_instances(self):
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(1, 6))
            t = int(rng.integers(2, 7))
            emissions, model = random_instance(rng, n, t)
            oracle_log_z, oracle_path, oracle_score = brute_force_oracle(emissions, model)
            log_z = float(log_partition(emissions, model).data)
            [path], [score] = viterbi(emissions, model, [n])
            assert abs(log_z - oracle_log_z) < 1e-10
            assert path == oracle_path
            assert score == pytest.approx(oracle_score, abs=1e-12)
            assert log_z >= score - 1e-12
        assert time.perf_counter() - started < 10.0

    def test_200_random_instances_gradients(self):
        # gradients = forward-backward marginals - gold indicators, checked
        # against expected counts over every enumerated path
        rng = np.random.default_rng(2025)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            t = int(rng.integers(2, 7))
            emissions, model = random_instance(rng, n, t)
            gold = rng.integers(0, t, n).tolist()
            params = [emissions, model.transitions, model.start, model.end]
            backward(nll(emissions, model, [gold]))
            expected = enumerated_nll_gradients(emissions, model, gold)
            for p, want in zip(params, expected):
                assert np.max(np.abs(p.grad - want)) < 1e-10

    def test_single_token_reduces_to_max_and_logsumexp(self):
        rng = np.random.default_rng(8)
        emissions, model = random_instance(rng, 1, 5)
        total = emissions.data[0] + model.start.data + model.end.data
        oracle_log_z, oracle_path, oracle_score = brute_force_oracle(emissions, model)
        assert oracle_score == pytest.approx(total.max())
        assert oracle_path == [int(total.argmax())]
        assert oracle_log_z == pytest.approx(
            math.log(np.exp(total - total.max()).sum()) + total.max()
        )

    def test_oracle_refuses_huge_instances(self):
        with pytest.raises(ValueError):
            brute_force_oracle(Tensor(np.zeros((10, 9))), zero_model(9))


class TestConstrainedDecode:
    def test_masks_forbid_illegal_bio(self):
        mask = BIO_TRANSITION_MASK
        idx = {tag: i for i, tag in enumerate(bio.TAGS)}
        assert mask[idx["O"], idx["I-when"]] < 0
        assert mask[idx["B-when"], idx["I-when"]] == 0
        assert mask[idx["I-when"], idx["I-when"]] == 0
        assert mask[idx["B-where"], idx["I-when"]] < 0
        start = BIO_START_MASK
        assert start[idx["I-what"]] < 0
        assert start[idx["B-what"]] == 0
        # each of the 4 I- tags may follow only its own B- and I-: 4 * 7 bans
        assert set(np.unique(mask)) == set(np.unique(start)) == {0.0, NEG_INF}
        assert int((mask == NEG_INF).sum()) == 28
        assert int((start == NEG_INF).sum()) == 4
        assert not mask.flags.writeable and not start.flags.writeable  # built once, shared

    def test_constrained_paths_always_valid(self):
        rng = np.random.default_rng(5)
        model = CrfModel(
            Tensor(rng.uniform(-1, 1, (bio.NUM_TAGS, bio.NUM_TAGS))),
            Tensor(rng.uniform(-1, 1, bio.NUM_TAGS)),
            Tensor(rng.uniform(-1, 1, bio.NUM_TAGS)),
        )
        for _ in range(100):
            n = int(rng.integers(1, 10))
            emissions = Tensor(rng.uniform(-3, 3, (n, bio.NUM_TAGS)))
            [path], _ = viterbi(emissions, model, [n], constrained=True)
            tags = [bio.TAGS[i] for i in path]
            assert bio.validate(tags) == []

    def test_wrong_inventory_rejected(self):
        with pytest.raises(ValueError, match="9-tag BIO inventory"):
            viterbi(Tensor(np.zeros((2, 5))), zero_model(5), [2], constrained=True)
