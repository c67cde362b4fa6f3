"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines
as they complete. The learnability and transfer criteria train real models on
synthetic corpora and take a couple of minutes combined.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from helpers import (
    brute_force_oracle,
    grad_check,
    log_partition,
    random_span_set,
    random_tag_sequence,
)
from traffictag import bio, subword
from traffictag.autodiff import Tensor
from traffictag.cli import main
from traffictag.corpus import (
    TRAFFIC,
    GeneratorConfig,
    SlotSpan,
    check_spans,
    generate_synthetic,
    split_corpus,
)
from traffictag.crf import CrfModel, viterbi
from traffictag.metrics import classification_f1, sentence_accuracy, span_f1
from traffictag.models import ModelConfig, WordVocab, build_model
from traffictag.training import ExperimentConfig, train_and_test

GRADCHECK_CONFIG = ModelConfig(
    embed_dim=6,
    classifier_hidden=5,
    tagger_hidden=6,
    joint_hidden=5,
    cnn_filters=4,
    subword_vocab_size=200,
    dropout=0.5,
)

LEARN_MODEL = dict(
    embed_dim=24,
    classifier_hidden=24,
    tagger_hidden=24,
    joint_hidden=24,
    cnn_filters=12,
    subword_vocab_size=300,
    dropout=0.2,
)

# architecture -> (optimizer, lr, epoch candidates, metric, threshold)
LEARN_SETTINGS = {
    "cnn": ("adam", 2e-3, (2,), "f1c", 0.95),
    "lstm_classifier": ("adam", 2e-3, (2,), "f1c", 0.95),
    "lstm_crf": ("sgd", 0.4, (4, 8), "f1s", 0.95),
    "joint": ("adam", 5e-3, (4, 8), "sen_acc", 0.90),
    "enhanced_joint": ("adam", 5e-3, (4, 8), "sen_acc", 0.90),
}


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_crf_oracle_equivalence():
    rng = np.random.default_rng(20240601)
    started = time.perf_counter()
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(2, 7))
        emissions = Tensor(rng.uniform(-3, 3, size=(n, t)))
        model = CrfModel(
            Tensor(rng.uniform(-3, 3, size=(t, t))),
            Tensor(rng.uniform(-3, 3, size=t)),
            Tensor(rng.uniform(-3, 3, size=t)),
        )
        oracle_log_z, oracle_path, oracle_score = brute_force_oracle(emissions, model)
        log_z = float(log_partition(emissions, model).data)
        [path], [score] = viterbi(emissions, model, [n])
        worst_gap = max(worst_gap, abs(log_z - oracle_log_z))
        assert abs(log_z - oracle_log_z) < 1e-10
        assert path == oracle_path and score == pytest.approx(oracle_score, abs=1e-12)
    elapsed = time.perf_counter() - started
    _criterion(
        "crf-oracle-equivalence",
        elapsed < 10.0,
        f"200 instances, max |logZ gap| {worst_gap:.2e}, viterbi exact, {elapsed:.1f}s",
    )


def test_gradient_checks_all_architectures():
    corpus = generate_synthetic(GeneratorConfig(size=60), seed=100)
    word_vocab = WordVocab.build(corpus)
    sub_vocab = subword.build_vocab(corpus, GRADCHECK_CONFIG.subword_vocab_size)
    source = next(t for t in corpus if t.class_label == TRAFFIC and len(t.tokens) >= 4)
    tweet = type(source)(
        "gc", " ".join(source.tokens[:4]), source.tokens[:4], TRAFFIC,
        tuple(s for s in source.spans if s.end <= 4),
    )
    started = time.perf_counter()
    worst = {}
    for arch in ("cnn", "lstm_classifier", "lstm_tagger", "lstm_crf", "joint", "enhanced_joint"):
        model = build_model(arch, GRADCHECK_CONFIG, seed=41,
                            word_vocab=word_vocab, subword_vocab=sub_vocab)
        worst[arch] = grad_check(lambda: model.loss([tweet]), model.store.params.values())
        assert worst[arch] <= 1e-4, f"{arch}: rel error {worst[arch]:.3e}"
    elapsed = time.perf_counter() - started
    _criterion(
        "gradient-checks",
        elapsed < 60.0,
        "max rel errors " + ", ".join(f"{a}={e:.1e}" for a, e in worst.items())
        + f", {elapsed:.1f}s",
    )


def test_bio_round_trip_and_repair():
    rng = random.Random(2468)
    for _ in range(1000):
        n = rng.randint(1, 25)
        spans = random_span_set(rng, n)
        decoded = bio.decode_tags(bio.encode_spans(n, spans))
        assert sorted(decoded, key=lambda s: s.start) == spans
    for _ in range(1000):
        n = rng.randint(1, 25)
        decoded = bio.decode_tags(random_tag_sequence(rng, n))
        check_spans(decoded, n)  # raises on any overlap
    _criterion(
        "bio-round-trip",
        True,
        "1000 legal span sets round-trip, 1000 arbitrary tag sequences decode overlap-free",
    )


def test_metric_oracles():
    # frozen hand case first: one matching span out of two on each side
    gold = [[SlotSpan("where", 2, 4), SlotSpan("when", 5, 6)]]
    pred = [[SlotSpan("where", 2, 4), SlotSpan("what", 0, 1)]]
    assert span_f1(pred, gold) == (0.5, 0.5, 0.5)

    rng = random.Random(13579)
    for _ in range(500):
        n = rng.randint(1, 8)
        gold_classes, pred_classes, gold_spans, pred_spans = [], [], [], []
        for _ in range(n):
            tokens = rng.randint(1, 12)
            gc = rng.choice((TRAFFIC, "non_traffic"))
            gold_classes.append(gc)
            gold_spans.append(random_span_set(rng, tokens) if gc == TRAFFIC else [])
            pred_classes.append(rng.choice((TRAFFIC, "non_traffic")))
            pred_spans.append(
                list(gold_spans[-1]) if rng.random() < 0.5 else random_span_set(rng, tokens)
            )

        tp = sum(p == g == TRAFFIC for p, g in zip(pred_classes, gold_classes))
        np_, ng = pred_classes.count(TRAFFIC), gold_classes.count(TRAFFIC)
        ep = tp / np_ if np_ else 0.0
        er = tp / ng if ng else 0.0
        ef = 2 * ep * er / (ep + er) if ep + er else 0.0
        assert classification_f1(pred_classes, gold_classes) == pytest.approx((ep, er, ef))

        stp = spred = sgold = 0
        for ps, gs in zip(pred_spans, gold_spans):
            pool = [g.key() for g in gs]
            for s in ps:
                if s.key() in pool:
                    pool.remove(s.key())
                    stp += 1
            spred += len(ps)
            sgold += len(gs)
        ep = stp / spred if spred else 0.0
        er = stp / sgold if sgold else 0.0
        ef = 2 * ep * er / (ep + er) if ep + er else 0.0
        assert span_f1(pred_spans, gold_spans) == pytest.approx((ep, er, ef))

        correct = sum(
            pc == gc and sorted(s.key() for s in ps) == sorted(s.key() for s in gs)
            for pc, ps, gc, gs in zip(pred_classes, pred_spans, gold_classes, gold_spans)
        )
        assert sentence_accuracy(
            pred_classes, pred_spans, gold_classes, gold_spans
        ) == pytest.approx(correct / n)
    _criterion("metric-oracles", True, "500 random pairs match brute-force recounts; hand case exact")


def test_enhanced_reduction_property():
    corpus = generate_synthetic(GeneratorConfig(size=60), seed=200)
    sub_vocab = subword.build_vocab(corpus, 200)
    plain = build_model("joint", GRADCHECK_CONFIG, seed=1, subword_vocab=sub_vocab)
    wide = build_model("enhanced_joint", GRADCHECK_CONFIG, seed=2, subword_vocab=sub_vocab)
    for name, tensor in plain.store.params.items():
        if name != "slot.w":
            wide.store[name].data[...] = tensor.data
    d_tok = 2 * GRADCHECK_CONFIG.joint_hidden
    wide.store["slot.w"].data[:d_tok] = plain.store["slot.w"].data
    wide.store["slot.w"].data[d_tok:] = 0.0
    worst = 0.0
    for tweet in list(corpus)[:25]:
        cls_a, slot_a, _ = plain.forward([plain._ids(tweet.tokens)])
        cls_b, slot_b, _ = wide.forward([wide._ids(tweet.tokens)])
        worst = max(
            worst,
            float(np.abs(cls_a.data - cls_b.data).max()),
            float(np.abs(slot_a.data - slot_b.data).max()),
        )
    _criterion(
        "enhanced-reduction",
        worst <= 1e-12,
        f"zeroed sentence block reproduces the plain joint logits (max gap {worst:.1e})",
    )


@pytest.fixture(scope="module")
def learnability_splits():
    corpus = generate_synthetic(GeneratorConfig(size=2000), seed=42)
    return split_corpus(corpus, seed=42)


@pytest.mark.parametrize("arch", list(LEARN_SETTINGS))
def test_learnability(arch, learnability_splits):
    train_c, dev_c, test_c = learnability_splits
    optimizer, lr, candidates, metric, threshold = LEARN_SETTINGS[arch]
    config = ExperimentConfig(
        architecture=arch,
        seed=1,
        model=ModelConfig(**LEARN_MODEL),
        optimizer=optimizer,
        learning_rate=lr,
        epoch_candidates=candidates,
        batch_size=32,
    )
    started = time.perf_counter()
    model, log, report = train_and_test(config, train_c, dev_c, test_c)
    elapsed = time.perf_counter() - started
    value = getattr(report, metric)
    if arch == "enhanced_joint":
        # end to end: a trained joint model reproduces class and typed spans
        gold = next(t for t in test_c if t.class_label == TRAFFIC and t.spans)
        [pred] = model.predict([gold])
        assert pred.class_label == gold.class_label
        assert sorted(s.key() for s in pred.spans) == sorted(s.key() for s in gold.spans)
    _criterion(
        f"learnability-{arch}",
        value >= threshold and elapsed < 300.0,
        f"test {metric}={value:.4f} (>= {threshold}), epoch {log.selected_epoch}, {elapsed:.0f}s",
    )


def test_transfer_analog(tmp_path):
    data = tmp_path / "data"
    for region, seed in (("BRU", 7), ("BE", 8)):
        assert main([
            "generate", "--size", "1200", "--seed", str(seed), "--out", str(data),
            "--region", region, "--overlap", "0.7", "--name", region.lower(),
        ]) == 0

    run = tmp_path / "run"
    config = {
        "architecture": "enhanced_joint",
        "seed": 3,
        "corpus": str(data / "bru.jsonl"),
        "optimizer": "adam",
        "learning_rate": 5e-3,
        "epoch_candidates": [4, 8],
        "batch_size": 32,
        "out_dir": str(run),
        **LEARN_MODEL,
    }
    config_path = tmp_path / "transfer_config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path)]) == 0

    transfer_report = tmp_path / "transfer_report.json"
    assert main([
        "transfer", "--checkpoint", str(run / "checkpoint.npz"),
        "--corpus", str(data / "be.jsonl"), "--out", str(transfer_report),
    ]) == 0

    in_domain = json.loads((run / "report.json").read_text())
    transfer = json.loads(transfer_report.read_text())
    for key in ("f1c", "f1s", "sen_acc"):
        assert transfer[key] is not None, f"transfer report missing {key}"

    # end to end through the prediction command: raw text of held-out tweets
    # comes back with the gold class and spans for nearly every sentence
    from traffictag.corpus import load_corpus

    held_out = load_corpus(run / "test.jsonl")
    raw = tmp_path / "raw.jsonl"
    raw.write_text(
        "".join(json.dumps({"id": t.id, "text": t.raw_text}) + "\n" for t in held_out)
    )
    annotated = tmp_path / "annotated.jsonl"
    assert main(["predict", "--checkpoint", str(run / "checkpoint.npz"),
                 "--input", str(raw), "--out", str(annotated)]) == 0
    by_id = {t.id: t for t in held_out}
    exact = 0
    for line in annotated.read_text().splitlines():
        record = json.loads(line)
        gold = by_id[record["id"]]
        pred_spans = sorted((s["type"], s["start"], s["end"]) for s in record["spans"])
        if record["label"] == gold.class_label and pred_spans == sorted(
            s.key() for s in gold.spans
        ):
            exact += 1
    assert exact / len(held_out) >= 0.9

    _criterion(
        "transfer-analog",
        in_domain["f1s"] >= transfer["f1s"],
        f"in-domain F1s {in_domain['f1s']:.4f} >= transfer F1s {transfer['f1s']:.4f} "
        f"(transfer SenAcc {transfer['sen_acc']:.4f})",
    )


def test_determinism(tmp_path):
    reports = []
    logs = []
    for run_dir in ("run_a", "run_b"):
        config = {
            "architecture": "cnn",
            "seed": 9,
            "generate_size": 300,
            "epoch_candidates": [2],
            "batch_size": 32,
            "learning_rate": 2e-3,
            "out_dir": str(tmp_path / run_dir),
            **LEARN_MODEL,
        }
        config_path = tmp_path / f"{run_dir}.json"
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 0
        reports.append((tmp_path / run_dir / "report.json").read_bytes())
        log = json.loads((tmp_path / run_dir / "runlog.json").read_text())
        log.pop("wall_clock_s")
        logs.append(log)
    _criterion(
        "determinism",
        reports[0] == reports[1] and logs[0] == logs[1],
        "two train+eval runs with one seed produced byte-identical reports",
    )
