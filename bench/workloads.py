"""The benchmark's workloads: seeded inputs, timed phases and their checks.

A run is one closed-loop caller in one process. It sets up its inputs
several times, trains the model it serves (untimed, training workloads
only), then repeats rounds through the program's public entry points until
another round would overrun ``--seconds``:

    setup      generate and split the corpora, write the CLI input
    train      training.train_model, one epoch (its dev evaluation subtracted)
    eval       training.evaluate
    predict    models.predict, one tweet per call
    checkpoint models.save_checkpoint + models.load_checkpoint
    annotate   cli.main(["predict", ...])

Each metric is the median of its samples over all rounds. Every check is one
more operation; a failed check is a failed operation, reported by name on
stderr.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

from traffictag import bio, cli, corpus, models, training

import checks

# the acceptance suite's LEARN_MODEL sizes
LEARN_MODEL = dict(
    embed_dim=24, classifier_hidden=24, tagger_hidden=24, joint_hidden=24,
    cnn_filters=12, subword_vocab_size=300, dropout=0.2,
)
# a trained model's test criterion must beat its own initialization by this
CRITERION_MARGIN = 0.2
BRUTE_FORCE_MAX_TOKENS = 5
# least save/load time and pairs per round: a small model's checkpoint is
# timed often, the default-size one (1.2 s a pair) at least twice a round
CHECKPOINT_SLICE_S = 0.25
CHECKPOINT_MIN_PAIRS = 2


@dataclass(frozen=True)
class Sizes:
    corpus: int = 2000  # BRU tweets, split 60/20/20 by split_corpus
    dev: int = 16  # dev tweets train_model scores at its last epoch
    train_slice: int = 300  # training tweets of each timed 1-epoch train_model call
    serve: int = 100  # tweets each eval, predict and annotate operation handles
    # epochs over the whole training split of the one untimed training run
    # whose model is served and checked; 0 serves the seeded model that
    # set-up builds, on a BE-region corpus of ``serve`` tweets
    quality_epochs: int = 0
    setup_repeats: int = 5


@dataclass(frozen=True)
class Workload:
    name: str
    architecture: str
    model: dict
    optimizer: str
    learning_rate: float
    sizes: Sizes = field(default_factory=Sizes)
    criterion: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-crf", "lstm_crf", LEARN_MODEL, "sgd", 0.4,
                 sizes=Sizes(quality_epochs=3), criterion="f1s"),
        Workload("serve-default", "enhanced_joint", {}, "adam", 1e-4,
                 sizes=Sizes(train_slice=32)),
    )
}


def toy(workload: Workload) -> Workload:
    """The same workload on a toy corpus (and serve-default at the
    acceptance sizes), so it runs in seconds. Trained on 36 tweets, a model
    learns too little for the criterion check, which is left out."""
    sizes = Sizes(corpus=60, dev=4, train_slice=16, serve=12, setup_repeats=2,
                  quality_epochs=workload.sizes.quality_epochs)
    model = dict(LEARN_MODEL, **workload.model)
    return replace(workload, model=model, sizes=sizes, criterion=None)


@dataclass
class Inputs:
    config: training.ExperimentConfig  # of the timed 1-epoch training calls
    train: corpus.Corpus  # the whole training split
    fit: corpus.Corpus  # what each timed training call trains on
    dev: corpus.Corpus
    test: corpus.Corpus
    serve: corpus.Corpus  # what eval, predict and annotate handle
    raw_path: Path  # the raw texts of ``serve``, as CLI input
    seeded_model: object | None  # serve-default's model, built by set-up


def _sub(c: corpus.Corpus, n: int) -> corpus.Corpus:
    return corpus.Corpus(name=c.name, tweets=c.tweets[:n], provenance=c.provenance)


def setup(w: Workload, seed: int, workdir: Path) -> Inputs:
    s = w.sizes
    bru = corpus.generate_synthetic(
        corpus.GeneratorConfig(size=s.corpus, region="BRU", shared_vocab_fraction=0.7), seed
    )
    train, dev, test = corpus.split_corpus(bru, seed)
    config = training.ExperimentConfig(
        architecture=w.architecture, seed=seed, model=models.ModelConfig(**w.model),
        optimizer=w.optimizer, learning_rate=w.learning_rate,
        epoch_candidates=(1,), batch_size=32,
    )
    seeded_model = None
    serve = _sub(test, s.serve)
    if not s.quality_epochs:
        serve = corpus.generate_synthetic(
            corpus.GeneratorConfig(size=s.serve, region="BE", shared_vocab_fraction=0.7),
            seed + 1,
        )
        word_vocab, sub_vocab = training.build_vocabularies(config, train)
        seeded_model = models.build_model(
            w.architecture, config.model, seed, word_vocab, sub_vocab
        )
    raw_path = workdir / "raw.jsonl"
    raw_path.write_text(
        "".join(json.dumps({"id": t.id, "text": t.raw_text}) + "\n" for t in serve),
        encoding="utf-8",
    )
    return Inputs(config, train, _sub(train, s.train_slice), _sub(dev, s.dev), test, serve,
                  raw_path, seeded_model)


class Run:
    """One benchmark run of one workload.

    A round is one operation of every phase (the predict phase: one call per
    tweet to serve; the checkpoint phase: save/load pairs for at least
    ``CHECKPOINT_SLICE_S`` and ``CHECKPOINT_MIN_PAIRS``). Short rounds
    interleave the phases and spread every metric's samples over the whole
    run, so a few seconds of a slower machine weigh on all metrics a little
    instead of on one phase entirely.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path, once: bool = False):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.once = once  # exactly one operation per phase and round
        self.attempted = 0
        self.failed: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.timed_s = 0.0  # wall time of the timed operations
        self.model = None
        self.inputs: Inputs | None = None
        self.first_losses = None
        self.first_report = None
        self.annotated: bytes | None = None
        self.checkpoint_mb = 0.0
        self._serve_ckpt: Path | None = None
        # context for work that is not the program's: warm-ups and checks
        self.untimed = contextlib.nullcontext

    # -- bookkeeping -------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
            print(f"FAILED {name}: {detail}", file=sys.stderr)

    def _timed(self, fn, *args):
        """Call into the program after a gc pass; (result, seconds)."""
        gc.collect()
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        self.timed_s += elapsed
        self.attempted += 1
        return result, elapsed

    # -- phases ------------------------------------------------------------

    def setup(self, repeats: int) -> None:
        for _ in range(repeats):
            self.inputs, elapsed = self._timed(setup, self.w, self.seed, self.workdir)
            self.samples["setup_s"].append(elapsed)
        if self.model is None:
            self.model = self.inputs.seeded_model

    def train_served_model(self) -> None:
        """Untimed: train the model the other phases serve, on the whole
        training split, and check that it learned."""
        if self.model is not None:
            return
        inp = self.inputs
        config = replace(inp.config, epoch_candidates=(self.w.sizes.quality_epochs,))
        with self.untimed():
            self.model, log = training.train_model(config, inp.train, inp.dev)
        losses = [entry["train_loss"] for entry in log.epochs]
        self.check("train.losses_finite", all(math.isfinite(x) for x in losses), str(losses))
        self.check("train.loss_decreases", losses[-1] < losses[0], str(losses))

    def round(self) -> None:
        self.setup(1)
        self.train()
        self.evaluate()
        self.predict()
        self.checkpoint()
        self.annotate()

    def train(self) -> None:
        inp = self.inputs
        (model, log), elapsed = self._timed(training.train_model, inp.config, inp.fit, inp.dev)
        with self.untimed():
            t0 = time.perf_counter()
            training.evaluate(model, inp.dev)  # what train_model spent scoring dev
            dev_s = time.perf_counter() - t0
            self._check_train_log(log)
        tweets = len(inp.fit)
        self.samples["train_tweets_per_s"].append(tweets / (elapsed - dev_s))

    def _check_train_log(self, log) -> None:
        losses = [entry["train_loss"] for entry in log.epochs]
        self.check("train.losses_finite", all(math.isfinite(x) for x in losses), str(losses))
        if self.first_losses is None:
            self.first_losses = losses
        else:
            self.check("train.same_seed_same_losses", losses == self.first_losses,
                       f"{losses} vs {self.first_losses}")

    def evaluate(self) -> None:
        corpus_ = self.inputs.serve
        if self.first_report is None:
            with self.untimed():
                self.first_report = training.evaluate(self.model, corpus_)  # warm-up
                preds = [models.predict(self.model, t) for t in corpus_]
                ok, detail = checks.report_matches(self.first_report, preds, corpus_.tweets)
                self.check("eval.report_recount", ok, detail)
        report, elapsed = self._timed(training.evaluate, self.model, corpus_)
        self.samples["eval_tweets_per_s"].append(len(corpus_) / elapsed)
        self.check("eval.report_repeats", report.to_dict() == self.first_report.to_dict())

    def predict(self) -> None:
        latencies = self.samples["predict_s"]
        gc.collect()
        for tweet in self.inputs.serve:
            t0 = time.perf_counter()
            models.predict(self.model, tweet)
            latencies.append(time.perf_counter() - t0)
            self.timed_s += latencies[-1]
            self.attempted += 1

    def checkpoint(self) -> None:
        params = {n: t.data for n, t in self.model.store.params.items()}
        spent, pairs = 0.0, 0
        while True:
            target = self.workdir / "ckpt"
            target.mkdir()
            _, save_s = self._timed(models.save_checkpoint, self.model, target / "checkpoint.json")
            self.checkpoint_mb = sum(
                p.stat().st_size for p in target.rglob("*") if p.is_file()
            ) / 1e6
            loaded, load_s = self._timed(models.load_checkpoint, target / "checkpoint.json")
            shutil.rmtree(target)
            self.samples["checkpoint_save_s"].append(save_s)
            self.samples["checkpoint_load_s"].append(load_s)
            ok, detail = checks.bit_identical(
                params, {n: t.data for n, t in loaded.store.params.items()}
            )
            self.check("checkpoint.bit_identical", ok, detail)
            spent, pairs = spent + save_s + load_s, pairs + 1
            if self.once or (spent >= CHECKPOINT_SLICE_S and pairs >= CHECKPOINT_MIN_PAIRS):
                break
        with self.untimed():
            same = all(
                models.predict(loaded, t) == models.predict(self.model, t)
                for t in self.inputs.serve.tweets[:20]
            )
        self.check("checkpoint.same_predictions", same)

    def annotate(self) -> None:
        out = self.workdir / "annotated.jsonl"
        if self._serve_ckpt is None:
            self._serve_ckpt = self.workdir / "serve" / "checkpoint.json"
            self._serve_ckpt.parent.mkdir()
            with self.untimed():
                models.save_checkpoint(self.model, self._serve_ckpt)
        argv = ["predict", "--checkpoint", str(self._serve_ckpt),
                "--input", str(self.inputs.raw_path), "--out", str(out)]
        code, elapsed = self._timed(cli.main, argv)
        self.check("annotate.exit_code", code == 0, f"exit code {code}")
        self.samples["annotate_tweets_per_s"].append(len(self.inputs.serve) / elapsed)
        produced = out.read_bytes()
        if self.annotated is None:
            self.annotated = produced
            with self.untimed():
                self._check_annotations(produced.decode("utf-8"))
        else:
            self.check("annotate.repeats", produced == self.annotated)

    def _check_annotations(self, text: str) -> None:
        lines = text.splitlines()
        self.check("annotate.line_count", len(lines) == len(self.inputs.serve),
                   f"{len(lines)} lines")
        bad = []
        for line in lines:
            record = json.loads(line)
            tokens = corpus.normalize_tweet(record["text"])
            tweet = corpus.Tweet(record["id"], record["text"], tuple(tokens), "non_traffic", ())
            pred = models.predict(self.model, tweet)
            expected = sorted(checks.span_keys(pred.spans))
            got = sorted((s["type"], s["start"], s["end"]) for s in record["spans"])
            if (record["tokens"] != tokens or record["label"] != pred.class_label
                    or got != expected
                    or not checks.spans_well_formed(record["spans"], len(tokens))):
                bad.append(record["id"])
        self.check("annotate.matches_in_process_predict", not bad, f"mismatched ids {bad[:5]}")

    # -- checks that need a trained model ----------------------------------

    def final_checks(self) -> None:
        with self.untimed():
            if self.w.architecture == "lstm_crf":
                self._check_viterbi()
            if self.w.criterion:
                self._check_criterion()

    def _check_viterbi(self) -> None:
        """Every short test tweet's decoded path is the brute-force argmax."""
        store = self.model.store
        trans, start, end = (store[n].data for n in ("crf.trans", "crf.start", "crf.end"))
        for tweet in self.inputs.test:
            if len(tweet.tokens) > BRUTE_FORCE_MAX_TOKENS:
                continue
            emissions = self.model.emissions(tweet.tokens).data
            expected = checks.brute_force_path(emissions, trans, start, end)
            got = [bio.TAGS.index(tag) for tag in models.predict(self.model, tweet).tags]
            self.check("crf.viterbi_brute_force", got == expected,
                       f"{tweet.id}: {got} vs {expected}")

    def _check_criterion(self) -> None:
        """The trained model beats the same seeded model at initialization."""
        cfg = self.inputs.config
        word_vocab, sub_vocab = training.build_vocabularies(cfg, self.inputs.train)
        initial = models.build_model(cfg.architecture, cfg.model, cfg.seed, word_vocab, sub_vocab)
        before = getattr(training.evaluate(initial, self.inputs.test), self.w.criterion)
        after = getattr(training.evaluate(self.model, self.inputs.test), self.w.criterion)
        self.check("train.beats_initialization", after >= before + CRITERION_MARGIN,
                   f"test {self.w.criterion} {after:.4f} vs {before:.4f} at initialization")


def report_tail(latencies: list[float]) -> None:
    """Print the predict p99 when at least ten samples lie beyond it. It is
    not a benchmark metric: on a shared machine it does not repeat."""
    if len(latencies) < 1000:
        print(f"{len(latencies)} predict samples: too few for a p99", file=sys.stderr)
        return
    ordered = sorted(latencies)
    tail = ordered[math.ceil(0.99 * len(ordered)) - 1]
    print(f"{len(latencies)} predict samples; p99 {tail * 1e3:.3f} ms", file=sys.stderr)


def run_untraced(run: Run, seconds: float) -> dict[str, float]:
    """Every end-to-end metric, with tracing off: rounds until another one
    would overrun ``seconds``."""
    run.setup(run.w.sizes.setup_repeats)
    run.train_served_model()
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run.round()
        last = time.perf_counter() - t0
        if time.perf_counter() - started + last > seconds:
            break
    run.final_checks()
    report_tail(run.samples["predict_s"])
    s = {name: statistics.median(values) for name, values in run.samples.items()}
    return {
        "setup_s": s["setup_s"],
        "train_tweets_per_s": s["train_tweets_per_s"],
        "eval_tweets_per_s": s["eval_tweets_per_s"],
        "predict_ms_p50": s["predict_s"] * 1e3,
        "annotate_tweets_per_s": s["annotate_tweets_per_s"],
        "checkpoint_save_s": s["checkpoint_save_s"],
        "checkpoint_load_s": s["checkpoint_load_s"],
        "checkpoint_mb": run.checkpoint_mb,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_round(run: Run) -> float:
    """One round; returns the wall time of its timed operations."""
    if run.inputs is None:
        run.setup(1)
        run.train_served_model()
    before = run.timed_s
    run.round()
    return run.timed_s - before
