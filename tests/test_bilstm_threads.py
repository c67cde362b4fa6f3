"""The BiLSTM's two directions on two threads: the same bits as running them
one after the other, and the gate that chooses between the two."""

from __future__ import annotations

import dataclasses
import os
import signal
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import project
from traffictag import layers, subword
from traffictag.autodiff import Tensor, add, backward
from traffictag.corpus import GeneratorConfig, generate_synthetic
from traffictag.models import ARCHITECTURES, ModelConfig, WordVocab, build_model, save_checkpoint
from traffictag.training import ExperimentConfig, evaluate, train_model

SEQUENTIAL, CONCURRENT = 2**62, 0  # gate values that keep every batch on one side


class CountingPool:
    """A single-worker pool that keeps every future it hands out."""

    def __init__(self):
        self.futures = []
        self._pool = ThreadPoolExecutor(max_workers=1)

    def submit(self, fn, *args, **kwargs):
        self.futures.append(self._pool.submit(fn, *args, **kwargs))
        return self.futures[-1]


@pytest.fixture
def pool(monkeypatch):
    """The counting pool in the worker's place, on a process that may use two
    CPUs (the concurrent path is then taken on any machine)."""
    counting = CountingPool()
    monkeypatch.setattr(layers, "_reverse_worker", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield counting
    counting._pool.shutdown(wait=True)


def both_ways(monkeypatch, pool, run):
    """``run()`` sequentially, then concurrently; checks which path each took."""
    monkeypatch.setattr(layers, "CONCURRENT_MIN_MACS", SEQUENTIAL)
    sequential = run()
    assert pool.futures == []
    monkeypatch.setattr(layers, "CONCURRENT_MIN_MACS", CONCURRENT)
    concurrent = run()
    assert pool.futures and all(f.done() for f in pool.futures)
    return sequential, concurrent


def lstm_weights(d, h, seed=0):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=shape) * 0.3) for shape in ((d + h, 4 * h), (4 * h,)) * 2]


def packed(lengths, d, seed=1):
    return Tensor(np.random.default_rng(seed).normal(size=(sum(lengths), d)))


def test_bilstm_outputs_and_gradients_are_the_same_bits(monkeypatch, pool):
    lengths, d, h = [9, 7, 7, 4, 2, 1], 6, 5
    x, weights = packed(lengths, d), lstm_weights(d, h)

    def run():
        for t in (x, *weights):
            t.grad = None
        states, hf, hb = layers.bilstm(x, lengths, *weights)
        backward(add(add(project(states, 1), project(hf, 2)), project(hb, 3)))
        return [states.data, hf.data, hb.data] + [t.grad for t in (x, *weights)]

    sequential, concurrent = both_ways(monkeypatch, pool, run)
    assert len(pool.futures) == 1
    for a, b in zip(sequential, concurrent):
        assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(GeneratorConfig(size=80), seed=23)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_presets_predict_and_evaluate_the_same_bits(monkeypatch, pool, corpus, arch):
    """Every preset at the default ModelConfig, over chunks of 32, 32 and 16
    tweets: the logits, the predictions and the report."""
    config = ModelConfig()
    model = build_model(arch, config, 5, WordVocab.build(corpus),
                        subword.build_vocab(corpus, config.subword_vocab_size))
    rows = [model._ids(t.tokens) for t in corpus.tweets[:32]]
    rows.sort(key=lambda r: len(r[0]), reverse=True)

    def run():
        logits = [t.data for t in model.forward(rows)[:2] if t is not None]
        return logits, model.predict(corpus.tweets), evaluate(model, corpus)

    if arch == "cnn":  # no BiLSTM: nothing to hand to the worker
        monkeypatch.setattr(layers, "CONCURRENT_MIN_MACS", CONCURRENT)
        run()
        assert pool.futures == []
        return
    (logits_a, preds_a, report_a), (logits_b, preds_b, report_b) = both_ways(
        monkeypatch, pool, run)
    assert len(logits_a) == len(logits_b) > 0
    for a, b in zip(logits_a, logits_b):
        assert np.array_equal(a, b)
    assert preds_a == preds_b
    assert report_a.to_json() == report_b.to_json()


def test_one_epoch_checkpoint_bytes_are_the_same(monkeypatch, pool, corpus, tmp_path):
    config = ExperimentConfig(architecture="enhanced_joint", seed=2, model=ModelConfig(),
                              optimizer="adam", learning_rate=1e-3, epoch_candidates=(1,),
                              batch_size=32)
    train = dataclasses.replace(corpus, tweets=corpus.tweets[:64])
    dev = dataclasses.replace(corpus, tweets=corpus.tweets[64:])

    def run():
        model, _ = train_model(config, train, dev)
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(model, path)
        return path.read_bytes()

    sequential, concurrent = both_ways(monkeypatch, pool, run)
    assert sequential == concurrent


@pytest.mark.parametrize("bad", ["forward", "reverse"])
def test_bad_weight_raises_the_sequential_error_and_joins(monkeypatch, pool, bad):
    lengths, d, h = [6, 5, 3], 4, 3
    x, weights = packed(lengths, d), lstm_weights(d, h)
    wrong = 0 if bad == "forward" else 2
    weights[wrong] = Tensor(np.zeros((d + h + 1, 4 * h)))
    messages = []
    for gate in (SEQUENTIAL, CONCURRENT):
        monkeypatch.setattr(layers, "CONCURRENT_MIN_MACS", gate)
        with pytest.raises(ValueError) as caught:
            layers.bilstm(x, lengths, *weights)
        messages.append(str(caught.value))
    expected = f"lstm weight shape {(d + h + 1, 4 * h)} != {(d + h, 4 * h)}"
    assert messages == [expected, expected]
    assert len(pool.futures) == 1 and pool.futures[0].done()


@pytest.mark.parametrize("batch,d,h,submits", [
    (1, 160, 128, 0),  # one-tweet predict at the default size
    (64, 24, 24, 0),  # a large batch of a small model
    (8, 160, 128, 1),  # the smallest batch past the gate at the default size
])
def test_gate_on_the_first_step(pool, batch, d, h, submits):
    lengths = [3] * batch
    layers.bilstm(packed(lengths, d), lengths, *lstm_weights(d, h))
    assert len(pool.futures) == submits


def test_one_cpu_stays_on_the_calling_thread(monkeypatch, pool):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    lengths = [3] * 32
    layers.bilstm(packed(lengths, 160), lengths, *lstm_weights(160, 128))
    assert pool.futures == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_worker(monkeypatch):
    """A child forked after the worker started has no copy of its thread;
    handing work to the parent's pool would wait forever."""
    monkeypatch.setattr(layers, "CONCURRENT_MIN_MACS", CONCURRENT)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    lengths = [4, 2]
    x, weights = packed(lengths, 3), lstm_weights(3, 2)
    expected = layers.bilstm(x, lengths, *weights)[0].data
    assert layers._reverse_worker is not None
    pid = os.fork()
    if pid == 0:  # the child leaves only through os._exit
        code = 2
        try:
            signal.alarm(20)
            states = layers.bilstm(x, lengths, *weights)[0].data
            code = 0 if np.array_equal(states, expected) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
