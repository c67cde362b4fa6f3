"""Training harness and command-line surface."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    NoArchiveForm,
    evaluate_reference,
    read_archive,
    validate_report_dict,
    write_archive,
)
from traffictag import models, training
from traffictag.autodiff import Tensor, _accum
from traffictag.cli import main
from traffictag.corpus import (
    CorpusError,
    GeneratorConfig,
    generate_synthetic,
    load_corpus,
    save_corpus,
    split_corpus,
)
from traffictag.models import METADATA_MEMBER, ModelConfig
from traffictag.optim import ParamStore
from traffictag.training import (
    EPOCH_CANDIDATES,
    ExperimentConfig,
    TrainingDiverged,
    criterion_value,
    evaluate,
    train_and_test,
    train_model,
)

TINY_MODEL = dict(
    embed_dim=12,
    classifier_hidden=8,
    tagger_hidden=8,
    joint_hidden=8,
    cnn_filters=6,
    subword_vocab_size=150,
    dropout=0.2,
)


def tiny_config(arch, **kwargs):
    defaults = dict(
        architecture=arch,
        seed=5,
        model=ModelConfig(**TINY_MODEL),
        epoch_candidates=(1, 2),
        batch_size=16,
        learning_rate=2e-3 if arch in ("cnn", "lstm_classifier") else None,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def splits():
    corpus = generate_synthetic(GeneratorConfig(size=120), seed=9)
    return split_corpus(corpus, seed=9)


class TestExperimentConfig:
    def test_flat_round_trip(self):
        config = tiny_config("joint")
        again = ExperimentConfig.from_flat_dict(config.to_flat_dict())
        assert again == config
        assert again.config_hash() == config.config_hash()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_flat_dict({"architecture": "cnn", "seed": 1, "bogus": 2})

    def test_default_epoch_candidates(self):
        config = ExperimentConfig(architecture="cnn", seed=1)
        assert config.epoch_candidates == EPOCH_CANDIDATES == (10, 15, 20, 25, 30, 40)

    def test_clip_norm_defaults(self):
        assert ExperimentConfig(architecture="cnn", seed=1).clip_norm == 0
        assert ExperimentConfig(architecture="lstm_crf", seed=1).clip_norm == 5.0
        assert ExperimentConfig(architecture="joint", seed=1, clip_norm=0).clip_norm == 0
        assert ExperimentConfig(architecture="cnn", seed=1, clip_norm=2.5).clip_norm == 2.5

    def test_default_optimizers(self):
        def optimizer(arch):
            config = ExperimentConfig(architecture=arch, seed=1)
            return config.optimizer, config.learning_rate

        assert optimizer("cnn") == ("adam", 1e-3)
        assert optimizer("lstm_classifier") == ("adam", 1e-3)
        assert optimizer("lstm_crf") == ("sgd", 0.015)
        assert optimizer("lstm_tagger") == ("sgd", 0.015)
        assert optimizer("joint") == ("adam", 1e-4)
        assert optimizer("enhanced_joint") == ("adam", 1e-4)

    @pytest.mark.parametrize("arch,spelled_out", [
        ("lstm_crf", dict(optimizer="sgd", learning_rate=0.015, clip_norm=5.0)),
        ("cnn", dict(optimizer="adam", learning_rate=1e-3, clip_norm=0)),
    ])
    def test_defaults_resolved_once(self, arch, spelled_out):
        implicit = ExperimentConfig(architecture=arch, seed=1)
        explicit = ExperimentConfig(architecture=arch, seed=1, **spelled_out)
        assert implicit == explicit
        assert implicit.config_hash() == explicit.config_hash()
        assert ExperimentConfig.from_flat_dict(implicit.to_flat_dict()) == implicit


class TestTraining:
    def test_runlog_selected_epoch_attains_max(self, splits):
        train_c, dev_c, test_c = splits
        model, log, report = train_and_test(tiny_config("cnn"), train_c, dev_c, test_c)
        assert log.selected_epoch in (1, 2)
        dev_values = [
            e["dev"]["f1c"] for e in log.epochs if "dev" in e
        ]
        selected = next(e for e in log.epochs if e["epoch"] == log.selected_epoch)
        assert selected["dev"]["f1c"] == max(dev_values)
        validate_report_dict(report.to_dict())

    def test_deterministic_reports_and_params(self, splits):
        train_c, dev_c, test_c = splits
        runs = []
        for _ in range(2):
            model, log, report = train_and_test(tiny_config("lstm_tagger"), train_c, dev_c, test_c)
            runs.append((model, report))
        (model_a, rep_a), (model_b, rep_b) = runs
        assert rep_a == rep_b
        for name in model_a.store.params:
            assert np.array_equal(model_a.store[name].data, model_b.store[name].data)

    @staticmethod
    def _spy_store(monkeypatch):
        """The names of ParamStore's snapshot and restore calls, in order."""
        calls = []
        for name in ("snapshot", "restore"):
            method = getattr(ParamStore, name)
            monkeypatch.setattr(ParamStore, name, lambda self, *a, _m=method, _n=name:
                                calls.append(_n) or _m(self, *a))
        return calls

    def test_last_candidate_epoch_takes_no_snapshot(self, splits, monkeypatch):
        train_c, dev_c, _ = splits
        calls = self._spy_store(monkeypatch)
        _, log = train_model(tiny_config("lstm_tagger", epoch_candidates=(1,)), train_c, dev_c)
        assert log.selected_epoch == 1 and calls == []

    def test_earlier_best_epoch_is_restored(self, splits, monkeypatch):
        train_c, dev_c, _ = splits
        first, _ = train_model(tiny_config("lstm_tagger", epoch_candidates=(1,)), train_c, dev_c)
        # epoch 1 scores best, so the epoch-1 parameters come back after epoch 2
        values = iter([0.9, 0.5])
        monkeypatch.setattr(training, "criterion_value", lambda report, kind: next(values))
        calls = self._spy_store(monkeypatch)
        model, log = train_model(tiny_config("lstm_tagger", epoch_candidates=(1, 2)),
                                 train_c, dev_c)
        assert log.selected_epoch == 1 and calls == ["snapshot", "restore"]
        for name, p in first.store.params.items():
            assert p.data.tobytes() == model.store[name].data.tobytes()

    def test_empty_training_corpus_rejected(self, splits):
        _, dev_c, _ = splits
        empty = dataclasses.replace(dev_c, tweets=())
        with pytest.raises(CorpusError, match="cannot train on an empty corpus"):
            train_model(tiny_config("lstm_tagger"), empty, dev_c)

    def test_divergence_detected(self, splits, monkeypatch):
        """A non-finite batch loss names the batch: its size and tweet ids."""
        train_c, dev_c, _ = splits
        batches = []
        monkeypatch.setattr(
            models.Model, "loss",
            lambda self, tweets, train=False, rng=None: batches.append(tweets) or Tensor(np.nan),
        )
        with pytest.raises(TrainingDiverged) as caught:
            train_model(tiny_config("cnn"), train_c, dev_c)
        [first] = batches
        assert len(first) == 16
        assert f"epoch 1 on the batch of 16 tweets {first[0].id}, " in str(caught.value)
        assert str(caught.value).endswith(f", {first[-1].id}")

    @pytest.mark.parametrize("arch", ["cnn", "lstm_tagger"])  # unclipped, clipped
    def test_non_finite_gradient_names_first_parameter(self, splits, monkeypatch, arch):
        train_c, dev_c, _ = splits
        poisoned = ("tag.w", "lstm_f.b") if arch == "lstm_tagger" else ("out.w", "conv4.w")

        def poisoned_loss(self, tweet, train=False, rng=None):
            params = tuple(self.store[name] for name in poisoned)

            def bw(g):
                for p in params:
                    _accum(p, np.full(p.shape, np.inf))

            out = Tensor(1.0, params)
            out._backward = bw
            return out

        monkeypatch.setattr(models.Model, "loss", poisoned_loss)
        with pytest.raises(TrainingDiverged, match=rf"epoch 1\b.*{poisoned[1]}$"):
            train_model(tiny_config(arch), train_c, dev_c)

    @pytest.mark.parametrize("poison,tail", [
        ({"lstm_f.w": 1e200, "tag.w": np.inf}, "tag.w"),
        ({"lstm_f.w": 1e200}, None),
        ({"lstm_f.w": 1e308}, "only their norm overflowed"),
    ], ids=["inf_after_huge", "huge_only", "norm_overflows"])
    def test_huge_finite_gradient_is_not_named(self, splits, monkeypatch, poison, tail):
        """A gradient whose squares overflow is still finite: with a finite
        norm it is clipped and training finishes (tail None), logging the
        norm before clipping; otherwise the message names the first gradient
        with a non-finite entry, or says there is none."""
        train_c, dev_c, _ = splits

        def poisoned_loss(self, tweets, train=False, rng=None):
            params = tuple(self.store[name] for name in poison)

            def bw(g):
                for p, value in zip(params, poison.values()):
                    _accum(p, np.full(p.shape, value))

            out = Tensor(1.0, params)
            out._backward = bw
            return out

        monkeypatch.setattr(models.Model, "loss", poisoned_loss)
        if tail is None:
            model, log = train_model(tiny_config("lstm_tagger"), train_c, dev_c)
            size = model.store["lstm_f.w"].data.size
            assert [e["grad_norm_max"] for e in log.epochs] == [
                pytest.approx(1e200 * math.sqrt(size), rel=1e-12)] * 2
            assert all(np.isfinite(t.data).all() for t in model.store.params.values())
            return
        with pytest.raises(TrainingDiverged, match=rf"epoch 1\b.*{tail}$"):
            train_model(tiny_config("lstm_tagger"), train_c, dev_c)

    def test_grad_norm_max_is_logged_before_clipping(self, splits):
        train_c, dev_c, _ = splits
        _, log = train_model(tiny_config("lstm_tagger", clip_norm=1e-3), train_c, dev_c)
        _, again = train_model(tiny_config("lstm_tagger", clip_norm=1e-3), train_c, dev_c)
        norms = [entry["grad_norm_max"] for entry in log.epochs]
        assert len(norms) == 2 and all(n > 1e-3 for n in norms)
        assert again.epochs == log.epochs

    def test_evaluate_fields_by_kind(self, splits):
        train_c, dev_c, _ = splits
        wv = models.WordVocab.build(train_c)
        classifier = models.build_model("cnn", ModelConfig(**TINY_MODEL), 1, word_vocab=wv)
        tagger = models.build_model("lstm_tagger", ModelConfig(**TINY_MODEL), 1, word_vocab=wv)
        rc = evaluate(classifier, dev_c)
        rt = evaluate(tagger, dev_c)
        assert rc.f1c is not None and rc.f1s is None and rc.sen_acc is None
        assert rt.f1s is not None and rt.f1c is None and rt.sen_acc is None
        assert criterion_value(rc, "classifier") == rc.f1c
        assert criterion_value(rt, "tagger") == rt.f1s

    @pytest.mark.parametrize("arch, optimizer, lr", [
        ("cnn", "adam", 2e-3), ("lstm_tagger", "sgd", 0.4),
        ("lstm_crf", "sgd", 0.4), ("joint", "adam", 5e-3),
    ])
    def test_evaluate_equals_multi_pass_reference(self, arch, optimizer, lr):
        # trained far enough that scores, and joint sentence accuracy, lie inside (0, 1)
        corpus = generate_synthetic(GeneratorConfig(size=400), seed=9)
        train_c, dev_c, test_c = split_corpus(corpus, seed=9)
        config = tiny_config(arch, epoch_candidates=(8,), optimizer=optimizer, learning_rate=lr)
        model, _ = train_model(config, train_c, dev_c)
        report, expected = evaluate(model, test_c), evaluate_reference(model, test_c)
        assert report.to_json() == expected.to_json()
        # the run log is dumped unsorted: the support keys keep their order too
        assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())


def _config(**fields):
    """Checkpoint damage: overwrite model_config fields."""
    return lambda p: {**p, "model_config": {**p["model_config"], **fields}}


def _emb(**fields):
    """Checkpoint damage: overwrite fields of the embedding's parameter entry."""
    return lambda p: {**p, "params": {**p["params"], "emb": {**p["params"]["emb"], **fields}}}


def _npy_header(header):
    """Archive damage: replace the npy header text of the member emb.npy.
    numpy's header parser raises TokenError or SyntaxError, not ValueError,
    on some texts."""
    def damage(data):
        with zipfile.ZipFile(io.BytesIO(data)) as z:
            members = {name: z.read(name) for name in z.namelist()}
        npy = members["emb.npy"]
        size = int.from_bytes(npy[8:10], "little")  # the header length of npy version 1.0
        members["emb.npy"] = npy[:10] + header.encode().ljust(size - 1) + b"\n" + npy[10 + size:]
        out = io.BytesIO()
        with zipfile.ZipFile(out, "w") as z:
            for name, member in members.items():
                z.writestr(name, member)
        return out.getvalue()
    return damage


class TestCli:
    def test_generate_twins_consistent_and_reproducible(self, tmp_path):
        out = tmp_path / "corpus"
        args = ["generate", "--size", "40", "--seed", "3", "--out", str(out), "--name", "demo"]
        assert main(args) == 0
        jsonl = load_corpus(out / "demo.jsonl")
        conll = load_corpus(out / "demo.conll")
        assert len(jsonl) == len(conll) == 40
        for a, b in zip(jsonl, conll):
            assert a.tokens == b.tokens
            assert a.class_label == b.class_label
            assert sorted(s.key() for s in a.spans) == sorted(s.key() for s in b.spans)
        first = (out / "demo.jsonl").read_bytes()
        assert main(args) == 0
        assert (out / "demo.jsonl").read_bytes() == first

    def test_generate_matches_checked_in_digests(self, tmp_path):
        # the corpus whose digests CI checks with sha256sum on each Python version
        args = ["generate", "--size", "60", "--seed", "2", "--out", str(tmp_path), "--name", "tiny"]
        assert main(args) == 0
        for line in (Path(__file__).parent / "data" / "tiny_corpus.sha256").read_text().splitlines():
            digest, name = line.split()
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_generate_size_zero_is_error(self, tmp_path):
        assert main(["generate", "--size", "0", "--seed", "1", "--out", str(tmp_path)]) == 2

    def test_usage_error_exit_code(self):
        assert main(["generate", "--size", "10"]) == 1  # missing required flags
        assert main(["bogus-verb"]) == 1

    def _write_config(self, tmp_path, **overrides):
        config = {
            "architecture": "cnn",
            "seed": 4,
            "generate_size": 60,
            "epoch_candidates": [1, 2],
            "batch_size": 16,
            "learning_rate": 2e-3,
            "out_dir": str(tmp_path / "run"),
            **TINY_MODEL,
            **overrides,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_train_eval_predict_flow(self, tmp_path):
        config_path = self._write_config(tmp_path)
        assert main(["train", "--config", str(config_path)]) == 0
        run = tmp_path / "run"
        for artifact in ("checkpoint.npz", "runlog.json", "report.json",
                         "train.jsonl", "dev.jsonl", "test.jsonl"):
            assert (run / artifact).exists()
        assert (run / "checkpoint.npz").read_bytes()[:4] == b"PK\x03\x04"
        report_data = json.loads((run / "report.json").read_text())
        validate_report_dict(report_data)

        # eval must agree with an offline recount on the same corpus
        out_report = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                     "--corpus", str(run / "test.jsonl"), "--out", str(out_report)]) == 0
        offline = evaluate(models.load_checkpoint(run / "checkpoint.npz"),
                           load_corpus(run / "test.jsonl"))
        assert json.loads(out_report.read_text()) == offline.to_dict()

        # transfer on the identical corpus equals in-domain eval
        transfer_out = tmp_path / "transfer.json"
        before = (run / "checkpoint.npz").read_bytes()
        assert main(["transfer", "--checkpoint", str(run / "checkpoint.npz"),
                     "--corpus", str(run / "test.jsonl"), "--out", str(transfer_out)]) == 0
        assert json.loads(transfer_out.read_text()) == json.loads(out_report.read_text())
        assert (run / "checkpoint.npz").read_bytes() == before

        # predict: empty input -> empty output, exit 0
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out_pred = tmp_path / "pred.jsonl"
        assert main(["predict", "--checkpoint", str(run / "checkpoint.npz"),
                     "--input", str(empty), "--out", str(out_pred)]) == 0
        assert out_pred.read_text() == ""

        # predict: malformed line skipped with warning, exit 2, good lines kept
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(
            '{"id": "a", "text": "file op e40 https://t.co/x"}\n'
            "not json\n"
            '{"id": "b", "text": "https://t.co/onlyurl"}\n'
        )
        assert main(["predict", "--checkpoint", str(run / "checkpoint.npz"),
                     "--input", str(mixed), "--out", str(out_pred)]) == 2
        lines = [json.loads(l) for l in out_pred.read_text().splitlines()]
        assert [l["id"] for l in lines] == ["a"]
        assert lines[0]["tokens"] == ["file", "op", "e40"]
        assert lines[0]["label"] in ("traffic", "non_traffic")

    def _untrained_checkpoint(self, tmp_path, arch):
        corpus = generate_synthetic(GeneratorConfig(size=20), seed=2)
        model = models.build_model(arch, ModelConfig(**TINY_MODEL), 1,
                                   word_vocab=models.WordVocab.build(corpus))
        checkpoint = tmp_path / f"{arch}.npz"
        models.save_checkpoint(model, checkpoint)
        corpus_path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, corpus_path)
        raw = tmp_path / "raw.jsonl"
        raw.write_text("".join(json.dumps({"id": t.id, "text": t.raw_text}) + "\n" for t in corpus))
        return str(checkpoint), str(corpus_path), str(raw)

    @pytest.mark.parametrize("arch", ["cnn", "lstm_tagger"])
    def test_constrained_decode_rejected_without_crf(self, tmp_path, capsys, arch):
        checkpoint, corpus_path, raw = self._untrained_checkpoint(tmp_path, arch)
        for argv in (
            ["eval", "--checkpoint", checkpoint, "--corpus", corpus_path],
            ["transfer", "--checkpoint", checkpoint, "--corpus", corpus_path],
            ["predict", "--checkpoint", checkpoint, "--input", raw],
        ):
            assert main(argv + ["--constrained-decode"]) == 1
            assert arch in capsys.readouterr().err

    @pytest.mark.parametrize("damage,message", [
        (lambda p: {**p, "word_vocab": None}, "lstm_crf on words needs a word vocabulary"),
        (lambda p: {k: v for k, v in p.items() if k not in ("architecture", "params")},
         r"lacks the fields \['architecture', 'params'\]"),
        (lambda p: [p], "JSON list, not an object"),
        (lambda p: {**p, "model_config": {**p["model_config"], "bogus": 1}},
         r"unknown model config keys \['bogus'\]"),
        (lambda p: {**p, "model_config": [p["model_config"]]},
         "model config is a JSON list, not an object"),
        (lambda p: {**p, "params": {**p["params"], "emb": [p["params"]["emb"]]}},
         "parameter 'emb' is not an object of exactly shape and values"),
        (lambda p: {**p, "params": {**p["params"], "emb": {**p["params"]["emb"], "x": 0}}},
         "'emb' is not an object of exactly shape and values"),
        (_config(embed_dim="x"), "embed_dim must be an int >= 1, got 'x'"),
        (_config(embed_dim=True), "embed_dim must be an int >= 1, got True"),
        (_config(embed_dim=4.0), "embed_dim must be an int >= 1, got 4.0"),
        (_config(cnn_widths=[]), r"cnn_widths must be a non-empty list, got \[\]"),
        (_config(cnn_widths=[0]), "cnn_widths must be an int >= 1, got 0"),
        (_config(cnn_widths="345"), "cnn_widths must be a non-empty list, got '345'"),
        (_config(dropout="0.2"), "dropout must be a number"),
        (_config(constrained_decode=1), "constrained_decode must be a bool"),
        (_emb(shape=5), "parameter 'emb' shape 5 is not a list of ints >= 0"),
        (_emb(shape=[5]), r"parameter 'emb' cannot reshape array of size \d+ into shape \(5,\)"),
        (_emb(values={}), "parameter 'emb' values are not all numbers"),
        (_emb(values=[[1.0, 2.0], [3.0]]), "parameter 'emb' .*inhomogeneous shape"),
        (lambda p: _emb(values=[True] + p["params"]["emb"]["values"][1:])(p),
         "parameter 'emb' values are not all numbers"),
        (lambda p: {**p, "seed": "s"}, "checkpoint seed must be an int >= 0, got 's'"),
        (lambda p: {**p, "word_vocab": 5}, "checkpoint word_vocab is not a list of strings"),
        (lambda p: {**p, "architecture": []}, r"unknown architecture \[\]"),
    ])
    def test_predict_rejects_broken_checkpoint(self, tmp_path, capsys, damage, message):
        """Each fault, in a format-2 archive and in a format-1 JSON file, is a
        data error that names it and the file. A parameter entry's JSON
        structure exists only in format 1; test_predict_rejects_broken_archive
        damages archive members."""
        checkpoint, _, raw = self._untrained_checkpoint(tmp_path, "lstm_crf")
        payload = read_archive(checkpoint)
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(damage({**payload, "format_version": 1})))
        targets = [v1]
        try:
            write_archive(damage(payload), checkpoint)
            targets.append(checkpoint)
        except NoArchiveForm:
            assert "'emb'" in message
        for target in targets:
            assert main(["predict", "--checkpoint", str(target), "--input", raw]) == 2
            err = capsys.readouterr().err
            assert re.search(message, err) and str(target) in err

    @pytest.mark.parametrize("damage,message", [
        (lambda a: {**a, "emb": a["emb"].astype(np.int64)}, "parameter 'emb' is int64, not float64"),
        (lambda a: {**a, "emb": a["emb"] > 0}, "parameter 'emb' is bool, not float64"),
        (lambda a: {**a, "emb": a["emb"][:5, 0]}, r"parameter 'emb' shape \[5\] != \[\d+, 12\]"),
        (lambda a: {**a, "emb": np.array([{}], dtype=object)}, "Object arrays cannot be loaded"),
        (lambda a: {k: v for k, v in a.items() if k != "crf.end"},
         r"lacks lstm_crf parameters \['crf.end'\]"),
        (lambda a: {**a, "bogus": a["emb"]}, "parameter 'bogus' unknown to lstm_crf"),
        (lambda a: {k: v for k, v in a.items() if k != METADATA_MEMBER},
         "archive has no '__metadata__' member"),
        (lambda a: {**a, METADATA_MEMBER: np.array("{")}, "Expecting property name"),
        (lambda a: {**a, METADATA_MEMBER: np.array([1.0])}, "metadata is not a 0-d unicode array"),
        (lambda a: {**a, METADATA_MEMBER: np.array(json.dumps(
            {**json.loads(a[METADATA_MEMBER].item()), "format_version": 1}))},
         "unsupported checkpoint version 1"),
        (lambda a: {**a, METADATA_MEMBER: np.array(json.dumps(
            {**json.loads(a[METADATA_MEMBER].item()), "params": {}}))},
         "metadata holds a params field"),
    ])
    def test_predict_rejects_broken_archive(self, tmp_path, capsys, damage, message):
        checkpoint, _, raw = self._untrained_checkpoint(tmp_path, "lstm_crf")
        with np.load(checkpoint) as archive:
            members = {name: archive[name] for name in archive.files}
        with open(checkpoint, "wb") as f:
            np.savez(f, **damage(members))
        assert main(["predict", "--checkpoint", checkpoint, "--input", raw]) == 2
        err = capsys.readouterr().err
        assert re.search(message, err) and checkpoint in err

    @pytest.mark.parametrize("damage,error", [
        (lambda data: data[:4], "BadZipFile"),
        (lambda data: data[: len(data) // 2], "BadZipFile"),
        (lambda data: data[:-10], "BadZipFile"),
        (_npy_header("{'descr': '<f8', 'fortran_order': False, 'shape': (3,"), "TokenError"),
        (_npy_header("{'descr': '<f8,,', 'fortran_order': False, 'shape': (3,), }"),
         "SyntaxError"),
    ])
    def test_predict_rejects_unreadable_archive(self, tmp_path, capsys, damage, error):
        checkpoint, _, raw = self._untrained_checkpoint(tmp_path, "lstm_crf")
        path = Path(checkpoint)
        path.write_bytes(damage(path.read_bytes()))
        assert main(["predict", "--checkpoint", checkpoint, "--input", raw]) == 2
        assert f"{checkpoint}: unreadable checkpoint ({error}" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ('{"id": 7, "text": null}', "text must be a string, got NoneType"),
        ('{"id": 7, "text": ["file", "e40"]}', "text must be a string, got list"),
        ('{"id": 7, "text": 40}', "text must be a string, got int"),
        ('{"id": true, "text": "file e40"}', "id must be a string or an int, got bool"),
        ('{"id": null, "text": "file e40"}', "id must be a string or an int, got NoneType"),
        ('{"id": 1.5, "text": "file e40"}', "id must be a string or an int, got float"),
        # json.loads raises a plain ValueError past the int-string digit limit
        pytest.param('{"id": ' + "1" * 5000 + ', "text": "x"}', "Exceeds the limit (4300 digits)",
                     id="over-long-int-id"),
        # json.loads raises RecursionError, not a ValueError, on deep nesting
        pytest.param("[" * 100_000, "maximum recursion depth exceeded", id="deep-nesting"),
    ])
    def test_predict_skips_mistyped_lines(self, tmp_path, capsys, line, message):
        checkpoint, _, _ = self._untrained_checkpoint(tmp_path, "cnn")
        raw = tmp_path / "raw.jsonl"
        raw.write_text(line + '\n{"id": 8, "text": "file e40"}\n')
        out = tmp_path / "pred.jsonl"
        assert main(["predict", "--checkpoint", checkpoint, "--input", str(raw),
                     "--out", str(out)]) == 2
        assert f"skipped line 1: {message}" in capsys.readouterr().err
        assert [json.loads(l)["id"] for l in out.read_text().splitlines()] == ["8"]

    def test_constrained_decode_applied_to_crf(self, tmp_path):
        checkpoint, corpus_path, raw = self._untrained_checkpoint(tmp_path, "lstm_crf")
        constrained = models.load_checkpoint(checkpoint)
        constrained.config = dataclasses.replace(constrained.config, constrained_decode=True)
        expected = evaluate(constrained, load_corpus(corpus_path)).to_dict()
        for verb in ("eval", "transfer"):
            out = tmp_path / f"{verb}.json"
            assert main([verb, "--checkpoint", checkpoint, "--corpus", corpus_path,
                         "--out", str(out), "--constrained-decode"]) == 0
            assert json.loads(out.read_text()) == expected
        out = tmp_path / "pred.jsonl"
        assert main(["predict", "--checkpoint", checkpoint, "--input", raw,
                     "--out", str(out), "--constrained-decode"]) == 0
        assert len(out.read_text().splitlines()) == 20

    def test_train_missing_corpus_errors_before_training(self, tmp_path):
        config_path = self._write_config(
            tmp_path, generate_size=None, corpus=str(tmp_path / "missing.jsonl")
        )
        assert main(["train", "--config", str(config_path)]) == 2

    def test_train_out_dir_checked_before_training(self, tmp_path, monkeypatch):
        """An out_dir that is an existing file is a data error found before
        the corpus is loaded, so no training run is lost to it."""
        def no_training(*args, **kwargs):
            raise AssertionError("train_model ran")

        monkeypatch.setattr(training, "train_model", no_training)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        config_path = self._write_config(tmp_path, out_dir=str(blocker))
        assert main(["train", "--config", str(config_path)]) == 2
        assert blocker.read_text() == "not a directory"

    def test_train_missing_seed_is_usage_error(self, tmp_path):
        config = {"architecture": "cnn", "generate_size": 30}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path)]) == 1

    @pytest.mark.parametrize("override,message", [
        ({"epoch_candidates": [0]}, "epoch_candidates must be an int >= 1, got 0"),
        ({"epoch_candidates": 5}, "epoch_candidates must be a non-empty list, got 5"),
        ({"seed": "s"}, "seed must be an int >= 0, got 's'"),
        ({"batch_size": 2.5}, "batch_size must be an int >= 1, got 2.5"),
        ({"cnn_widths": []}, r"cnn_widths must be a non-empty list, got \[\]"),
        ({"embed_dim": "x"}, "embed_dim must be an int >= 1, got 'x'"),
        ({"optimizer": "adagrad"}, "optimizer must be adam or sgd, got 'adagrad'"),
        ({"learning_rate": "fast"}, "learning_rate must be a number"),
        ({"out_dir": 3}, "out_dir must be a string, got 3"),
        ({"generate_pool_size": "x"}, "pool_size must be an int, got 'x'"),
        ({"generate_region": ["BRU"]}, r"unknown region \['BRU'\]"),
        ({"model": {}}, r"unknown config keys: \['model'\]"),
    ])
    def test_train_config_fault_is_data_error(self, tmp_path, capsys, override, message):
        config_path = self._write_config(tmp_path, **override)
        assert main(["train", "--config", str(config_path)]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_train_config_not_an_object_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[]")
        assert main(["train", "--config", str(path), "--seed", "1"]) == 2
        assert "config is a JSON list, not an object" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("{", "invalid JSON (Expecting property name"),
        ("[" * 100_000, "invalid JSON (maximum recursion depth exceeded"),
    ], ids=["unparsable", "deep-nesting"])
    def test_train_config_unparsable_is_data_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["train", "--config", str(path), "--seed", "1"]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    def test_seed_override_changes_hash(self, tmp_path):
        config_path = self._write_config(tmp_path, generate_size=60)
        run = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--seed", "123"]) == 0
        log = json.loads((run / "runlog.json").read_text())
        assert log["seed"] == 123
        assert log["selected_epoch"] in (1, 2)
