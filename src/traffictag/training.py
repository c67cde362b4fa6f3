"""Training loop, evaluation, epoch selection, and run logging.

A run is fully determined by its ExperimentConfig: the seed drives parameter
initialization, per-epoch batch shuffling (epoch-indexed child seeds), and
dropout, so two runs with the same config produce identical metric reports.
Training proceeds to the largest candidate epoch count; at every candidate
the dev set is scored and the best-scoring snapshot (by the architecture's
criterion) becomes the final model.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from . import metrics
from .autodiff import backward, mul_const
from .corpus import Corpus, CorpusError, GeneratorConfig, Tweet, check_number
from .models import (
    ARCHITECTURES,
    Model,
    ModelConfig,
    WordVocab,
    build_model,
    uses_subwords,
)
from .optim import ParamStore, adam_step, clip_global_norm, global_norm, sgd_step
from .subword import SubwordVocab, build_vocab

EPOCH_CANDIDATES = (10, 15, 20, 25, 30, 40)

# architecture -> (optimizer, learning rate)
DEFAULT_OPTIMIZER = {
    "cnn": ("adam", 1e-3),
    "lstm_classifier": ("adam", 1e-3),
    "lstm_tagger": ("sgd", 0.015),
    "lstm_crf": ("sgd", 0.015),
    "joint": ("adam", 1e-4),
    "enhanced_joint": ("adam", 1e-4),
}

# dev-selection criterion per model kind
CRITERION = {"classifier": "f1c", "tagger": "f1s", "joint": "sen_acc"}


class TrainingDiverged(RuntimeError):
    """Loss or gradient norm became non-finite; training aborts with a
    diagnostic."""


@dataclass(frozen=True)
class ExperimentConfig:
    architecture: str
    seed: int
    corpus: str | None = None
    corpus_format: str | None = None
    out_dir: str | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: str | None = None  # None -> DEFAULT_OPTIMIZER
    learning_rate: float | None = None  # None -> DEFAULT_OPTIMIZER
    batch_size: int = 32
    epoch_candidates: tuple[int, ...] = EPOCH_CANDIDATES
    clip_norm: float | None = None  # None -> 5.0, off (0) for the cnn; 0 disables
    generate_size: int | None = None
    generate_traffic_fraction: float = 0.5
    generate_region: str = "BRU"
    generate_overlap: float = 0.7
    generate_pool_size: int = 20

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        # resolve the defaults first, so a config and its spelled-out twin hash alike
        default_name, default_lr = DEFAULT_OPTIMIZER[self.architecture]
        defaults = {"optimizer": default_name, "learning_rate": default_lr,
                    "clip_norm": 0 if self.architecture == "cnn" else 5.0}
        for name, value in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        check_number("seed", self.seed, integer=True, minimum=0)
        check_number("batch_size", self.batch_size, integer=True, minimum=1)
        if not isinstance(self.epoch_candidates, (list, tuple)) or not self.epoch_candidates:
            raise ValueError(f"epoch_candidates must be a non-empty list, "
                             f"got {self.epoch_candidates!r}")
        for epochs in self.epoch_candidates:
            check_number("epoch_candidates", epochs, integer=True, minimum=1)
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        for name in ("learning_rate", "clip_norm"):
            check_number(name, getattr(self, name), minimum=0.0)
        for name in ("corpus", "corpus_format", "out_dir"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.generate_size is not None:
            self.generator_config()  # raises on a mistyped or out-of-range setting
        object.__setattr__(self, "epoch_candidates", tuple(sorted(self.epoch_candidates)))

    def to_flat_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name == "model":
                continue
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        out.update(self.model.to_dict())
        return out

    @classmethod
    def from_flat_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        model_keys = {f.name for f in fields(ModelConfig)}
        model_kwargs = {k: data.pop(k) for k in list(data) if k in model_keys}
        own_keys = {f.name for f in fields(cls)} - {"model"}
        unknown = [k for k in data if k not in own_keys]
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        return cls(model=ModelConfig.from_dict(model_kwargs), **data)

    @functools.lru_cache(maxsize=64)  # frozen, so each distinct config is hashed once
    def config_hash(self) -> str:
        """Identifies the experiment; the output directory is not part of it."""
        flat = self.to_flat_dict()
        flat.pop("out_dir")
        canonical = json.dumps(flat, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def generator_config(self) -> GeneratorConfig:
        if self.generate_size is None:
            raise ValueError("config has no generator settings")
        return GeneratorConfig(
            size=self.generate_size,
            traffic_fraction=self.generate_traffic_fraction,
            region=self.generate_region,
            shared_vocab_fraction=self.generate_overlap,
            pool_size=self.generate_pool_size,
        )


@dataclass
class RunLog:
    seed: int
    config_hash: str
    criterion: str
    epochs: list[dict] = field(default_factory=list)
    selected_epoch: int | None = None
    test: dict | None = None
    wall_clock_s: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def evaluate(model: Model, corpus: Corpus) -> metrics.MetricReport:
    """Score a model on a corpus with the metrics its kind supports."""
    if len(corpus) == 0:
        raise CorpusError("cannot evaluate on an empty corpus")
    predictions = model.predict(corpus.tweets)
    return metrics.score(
        None if model.kind == "tagger" else [p.class_label for p in predictions],
        None if model.kind == "classifier" else [p.spans for p in predictions],
        [t.class_label for t in corpus],
        [t.spans for t in corpus],
    )


def criterion_value(report: metrics.MetricReport, kind: str) -> float:
    value = getattr(report, CRITERION[kind])
    if value is None:
        raise ValueError(f"report lacks the {CRITERION[kind]} criterion")
    return value


def build_vocabularies(
    config: ExperimentConfig, train_corpus: Corpus
) -> tuple[WordVocab | None, SubwordVocab | None]:
    if uses_subwords(config.architecture, config.model):
        return None, build_vocab(train_corpus, config.model.subword_vocab_size)
    return WordVocab.build(train_corpus), None


def _first_non_finite_gradient(store: ParamStore) -> str:
    """The first parameter with a non-finite gradient entry, or that none has one."""
    for name, t in store.params.items():
        if t.grad is not None and not np.isfinite(t.grad).all():
            return f"first non-finite parameter gradient: {name}"
    return "every parameter gradient is finite; only their norm overflowed"


def train_model(
    config: ExperimentConfig, train_corpus: Corpus, dev_corpus: Corpus
) -> tuple[Model, RunLog]:
    """Train one model and return it with its run log (test not yet filled)."""
    started = time.perf_counter()
    if len(train_corpus) == 0:
        raise CorpusError("cannot train on an empty corpus")
    word_vocab, sub_vocab = build_vocabularies(config, train_corpus)
    model = build_model(
        config.architecture, config.model, config.seed, word_vocab, sub_vocab
    )
    kind = model.kind
    step = adam_step if config.optimizer == "adam" else sgd_step
    dropout_rng = np.random.default_rng([config.seed, 7])
    log = RunLog(seed=config.seed, config_hash=config.config_hash(), criterion=CRITERION[kind])

    tweets: Sequence[Tweet] = train_corpus.tweets
    best_value = -1.0
    best_epoch: int | None = None
    best_snapshot = None
    last = config.epoch_candidates[-1]  # the candidates are sorted
    for epoch in range(1, last + 1):
        order = np.random.default_rng([config.seed, 11, epoch]).permutation(len(tweets))
        loss_sum = 0.0
        grad_norm_max = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = [tweets[i] for i in order[lo : lo + config.batch_size].tolist()]
            model.store.zero_grad()
            loss = model.loss(batch, train=True, rng=dropout_rng)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch} on the batch of "
                                       f"{len(batch)} tweets {', '.join(t.id for t in batch)}")
            loss_sum += value
            backward(mul_const(loss, 1.0 / len(batch)))
            del loss  # frees the batch's graph before the optimizer's temporaries
            if config.clip_norm > 0:
                norm = clip_global_norm(model.store, config.clip_norm)
            else:
                norm = global_norm(model.store)
            if not np.isfinite(norm):
                raise TrainingDiverged(f"non-finite gradient norm at epoch {epoch}; "
                                       f"{_first_non_finite_gradient(model.store)}")
            grad_norm_max = max(grad_norm_max, norm)
            step(model.store, config.learning_rate)
        entry = {
            "epoch": epoch,
            "train_loss": loss_sum / len(tweets),
            "grad_norm_max": grad_norm_max,
        }
        if epoch in config.epoch_candidates:
            report = evaluate(model, dev_corpus)
            entry["dev"] = report.to_dict()
            value = criterion_value(report, kind)
            if value > best_value:
                best_value = value
                best_epoch = epoch
                # none at the last epoch, whose parameters the model ends with
                best_snapshot = model.store.snapshot() if epoch < last else None
        log.epochs.append(entry)

    if best_snapshot is not None:
        model.store.restore(best_snapshot)
    log.selected_epoch = best_epoch
    log.wall_clock_s = time.perf_counter() - started
    return model, log


def train_and_test(
    config: ExperimentConfig,
    train_corpus: Corpus,
    dev_corpus: Corpus,
    test_corpus: Corpus,
) -> tuple[Model, RunLog, metrics.MetricReport]:
    model, log = train_model(config, train_corpus, dev_corpus)
    report = evaluate(model, test_corpus)
    log.test = report.to_dict()
    return model, log, report
