"""Command-line harness: generate, train, eval, transfer, predict.

Every command is reproducible from its flags plus a mandatory seed; rerunning
with identical inputs yields identical outputs (wall-clock time lives in its
own run-log field). Exit codes: 0 success, 1 usage error, 2 data error,
3 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

from .corpus import (
    Corpus,
    CorpusError,
    GeneratorConfig,
    Tweet,
    generate_synthetic,
    jsonl_line,
    load_corpus,
    normalize_tweet,
    read_field,
    save_corpus,
    split_corpus,
)
from .metrics import MetricReport
from .models import load_checkpoint, save_checkpoint, suppress_spans
from .training import ExperimentConfig, TrainingDiverged, evaluate, train_and_test


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="traffictag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic corpus as jsonl + conll twins")
    gen.add_argument("--size", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--traffic-fraction", type=float, default=0.5)
    gen.add_argument("--region", default="BRU", choices=("BRU", "BE"))
    gen.add_argument("--overlap", type=float, default=0.7,
                     help="cross-region shared vocabulary fraction")
    gen.add_argument("--pool-size", type=int, default=20)
    gen.add_argument("--name", default=None, help="basename for the output files")
    gen.set_defaults(func=cmd_generate)

    train = sub.add_parser("train", help="train a model and write checkpoint + run log")
    train.add_argument("--config", required=True, help="flat JSON experiment config")
    train.add_argument("--seed", type=int, default=None, help="override the config seed")
    train.add_argument("--out", default=None, help="override the config output directory")
    train.add_argument("--corpus", default=None, help="override the config corpus path")
    train.set_defaults(func=cmd_train)

    for verb, transfer in (("eval", False), ("transfer", True)):
        ev = sub.add_parser(verb, help=f"{verb} a checkpoint on a corpus")
        ev.add_argument("--checkpoint", required=True)
        ev.add_argument("--corpus", required=True)
        ev.add_argument("--format", default=None, choices=("jsonl", "conll"))
        ev.add_argument("--out", default=None, help="write the JSON report here")
        ev.add_argument("--constrained-decode", action="store_true")
        ev.set_defaults(func=functools.partial(_run_eval, transfer=transfer))

    pred = sub.add_parser("predict", help="annotate raw tweets from a jsonl file")
    pred.add_argument("--checkpoint", required=True)
    pred.add_argument("--input", required=True, help="jsonl lines with id + text")
    pred.add_argument("--out", default=None, help="output jsonl (default stdout)")
    pred.add_argument("--constrained-decode", action="store_true")
    pred.add_argument("--suppress-non-traffic-spans", action="store_true")
    pred.set_defaults(func=cmd_predict)

    return parser


def cmd_generate(args) -> int:
    config = GeneratorConfig(
        size=args.size,
        traffic_fraction=args.traffic_fraction,
        region=args.region,
        shared_vocab_fraction=args.overlap,
        pool_size=args.pool_size,
        name=args.name,
    )
    corpus = generate_synthetic(config, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = args.name or corpus.name
    save_corpus(corpus, out / f"{base}.jsonl")
    save_corpus(corpus, out / f"{base}.conll")
    print(f"wrote {len(corpus)} tweets to {out / base}.{{jsonl,conll}}")
    return 0


def _load_experiment_config(args) -> ExperimentConfig:
    path = Path(args.config)
    if not path.exists():
        raise CorpusError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config is a JSON {type(data).__name__}, not an object")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.out is not None:
        data["out_dir"] = args.out
    if args.corpus is not None:
        data["corpus"] = args.corpus
    missing = [key for key in ("architecture", "seed") if key not in data]
    if missing:
        raise _UsageError(f"incomplete config: missing {missing}")
    return ExperimentConfig.from_flat_dict(data)


def cmd_train(args) -> int:
    config = _load_experiment_config(args)
    if config.corpus is None and config.generate_size is None:
        raise _UsageError("config needs either a corpus path or generator settings")
    out = Path(config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)  # first: a bad out_dir costs no training run
    if config.corpus is not None:
        corpus = load_corpus(config.corpus, config.corpus_format)
    else:
        corpus = generate_synthetic(config.generator_config(), config.seed)
    train_c, dev_c, test_c = split_corpus(corpus, config.seed)
    model, log, report = train_and_test(config, train_c, dev_c, test_c)
    save_checkpoint(model, out / "checkpoint.npz", extra={"config_hash": config.config_hash()})
    (out / "runlog.json").write_text(log.to_json(), encoding="utf-8")
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    for name, part in (("train", train_c), ("dev", dev_c), ("test", test_c)):
        save_corpus(part, out / f"{name}.jsonl")
    print(f"architecture:   {config.architecture}")
    print(f"selected epoch: {log.selected_epoch} (dev {log.criterion})")
    _print_report(report)
    print(f"artifacts in {out}")
    return 0


def _print_report(report: MetricReport) -> None:
    rows = [
        ("F1c", report.f1c, report.precision_c, report.recall_c),
        ("F1s", report.f1s, report.precision_s, report.recall_s),
    ]
    for label, f1, precision, recall in rows:
        if f1 is not None:
            print(f"{label:7s} {f1:.4f}  (P {precision:.4f} / R {recall:.4f})")
    if report.sen_acc is not None:
        print(f"SenAcc  {report.sen_acc:.4f}")
    if report.per_type:
        for slot, scores in report.per_type.items():
            print(f"  {slot:12s} F1 {scores['f1']:.4f}")
    print(f"support {report.support}")


def _load_model(path, constrained_decode: bool):
    """Load a checkpoint; BIO-constrained decoding exists only for the CRF."""
    model = load_checkpoint(path)
    if constrained_decode:
        if model.tag_head != "crf":
            raise _UsageError(
                f"--constrained-decode needs a checkpoint with a CRF tag head, "
                f"got {model.architecture}"
            )
        model.config = dataclasses.replace(model.config, constrained_decode=True)
    return model


def _run_eval(args, transfer: bool) -> int:
    checkpoint_path = Path(args.checkpoint)
    if not checkpoint_path.exists():
        raise CorpusError(f"checkpoint not found: {checkpoint_path}")
    before = hashlib.sha256(checkpoint_path.read_bytes()).hexdigest()
    model = _load_model(checkpoint_path, args.constrained_decode)
    corpus = load_corpus(args.corpus, args.format)
    report = evaluate(model, corpus)
    if transfer:
        after = hashlib.sha256(checkpoint_path.read_bytes()).hexdigest()
        if before != after:
            raise CorpusError("checkpoint changed during transfer evaluation")
        print(f"transfer evaluation (no adaptation) on {corpus.name} (n={len(corpus)})")
    else:
        print(f"evaluation on {corpus.name} (n={len(corpus)})")
    _print_report(report)
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
        print(f"report written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = _load_model(args.checkpoint, args.constrained_decode)
    in_path = Path(args.input)
    if not in_path.exists():
        raise CorpusError(f"input file not found: {in_path}")
    tweets = []
    skipped = 0
    for lineno, line in enumerate(in_path.read_text(encoding="utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            text, tweet_id = read_field(record, "text"), read_field(record, "id")
            tokens = normalize_tweet(text)
        except (ValueError, RecursionError) as exc:  # a CorpusError, or an unparsable line
            print(f"warning: skipped line {lineno}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        tweets.append(Tweet(tweet_id, text, tuple(tokens), "non_traffic", ()))
    preds = model.predict(tweets)
    if args.suppress_non_traffic_spans:
        preds = [suppress_spans(pred) for pred in preds]
    output = "".join(jsonl_line(t, pred.class_label, pred.spans) for t, pred in zip(tweets, preds))
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    else:
        sys.stdout.write(output)
    if skipped:
        print(f"{skipped} line(s) skipped", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except (CorpusError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
