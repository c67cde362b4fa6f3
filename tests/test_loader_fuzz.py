"""Seeded mutation fuzz of the loaders the CLI reaches: a checkpoint in both
formats, a jsonl corpus and a conll corpus. Every mutant goes through
``cli.main`` (``predict`` or ``eval``) and must exit 0 or 2, never raise."""

from __future__ import annotations

import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import read_archive
from traffictag.bio import TAGS
from traffictag.cli import main
from traffictag.corpus import GeneratorConfig, generate_synthetic, save_corpus
from traffictag.models import METADATA_MEMBER, ModelConfig, WordVocab, build_model, save_checkpoint
from traffictag.subword import build_vocab

MUTANTS = 150  # per mutation kind
TINY = ModelConfig(embed_dim=4, tagger_hidden=3, joint_hidden=3, subword_vocab_size=60)
# values of every JSON type, for swapping into a field
JSON_VALUES = (None, True, False, 0, -1, 2.5, "x", "", [], {}, [1], {"a": 1})


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    corpus = generate_synthetic(GeneratorConfig(size=6), seed=3)
    checkpoints = []
    for arch in ("lstm_crf", "enhanced_joint"):
        model = build_model(arch, TINY, 1, word_vocab=WordVocab.build(corpus),
                            subword_vocab=build_vocab(corpus, TINY.subword_vocab_size))
        save_checkpoint(model, d / f"{arch}.npz")
        checkpoints.append(d / f"{arch}.npz")
    save_corpus(corpus, d / "corpus.jsonl")
    save_corpus(corpus, d / "corpus.conll")
    raw = d / "raw.jsonl"
    raw.write_text("".join(json.dumps({"id": t.id, "text": t.raw_text}) + "\n" for t in corpus))
    return SimpleNamespace(checkpoints=checkpoints, raw=raw,
                           jsonl=d / "corpus.jsonl", conll=d / "corpus.conll")


def _exits_cleanly(argv, capsys):
    code = main([str(a) for a in argv])
    capsys.readouterr()
    assert code in (0, 2), (code, argv)


def _mutate_json(rng: random.Random, value):
    """Drop one key or element, or swap one value for another JSON type, at a
    random depth; the root itself may be swapped."""
    if not isinstance(value, (dict, list)) or not value or rng.random() < 0.05:
        return rng.choice(JSON_VALUES)
    key = rng.choice(list(value)) if isinstance(value, dict) else rng.randrange(len(value))
    if rng.random() < 0.3:
        del value[key]
    elif isinstance(value[key], (dict, list)) and value[key] and rng.random() < 0.7:
        value[key] = _mutate_json(rng, value[key])
    else:
        value[key] = rng.choice(JSON_VALUES)
    return value


def _damage_bytes(rng: random.Random, data: bytes) -> bytes:
    """Truncate at a random offset, or XOR one to four random bytes."""
    if rng.random() < 0.4:
        return data[: rng.randrange(len(data))]
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        out[rng.randrange(len(out))] ^= rng.randrange(1, 256)
    return bytes(out)


def _archive_mutant(rng: random.Random, members: dict) -> dict:
    members = dict(members)
    name = rng.choice([n for n in members if n != METADATA_MEMBER])
    kind = rng.randrange(5)
    if kind == 0:  # drop a member, the metadata included
        del members[rng.choice(list(members))]
    elif kind == 1:
        members[name] = members[name].astype(np.int64)
    elif kind == 2:
        members[name] = members[name] > 0
    elif kind == 3:  # the wrong shape: a slice, a transpose or a scalar
        a = members[name]
        members[name] = rng.choice([a.reshape(-1)[:-1], a.T if a.ndim == 2 else a[None], a.sum()])
    else:  # the metadata JSON: a damaged value, or damaged text
        text = members[METADATA_MEMBER].item()
        if rng.random() < 0.6:
            text = json.dumps(_mutate_json(rng, json.loads(text)))
        else:
            text = _damage_bytes(rng, text.encode()).decode("utf-8", "replace")
        members[METADATA_MEMBER] = np.array(text)
    return members


def _corpus_line_mutant(rng: random.Random, line: str, conll: bool) -> str:
    if conll:
        if "\t" not in line:
            return rng.choice([line + "\tO", "# label=" + rng.choice(["traffic", "x", ""])])
        token, tag = line.split("\t", 1)
        return rng.choice([
            f"{token}\t{rng.choice(TAGS + ('B-bogus', 'I-', 'X', '', '0'))}",  # flip the tag
            token,  # drop the tag column
            f"\t{tag}",  # drop the token
            f"{token}\t{tag}\textra",
        ])
    if rng.random() < 0.1:  # nested deeper than json.loads can recurse
        return "[" * 100_000
    record = json.loads(line)
    if record["spans"] and rng.random() < 0.3:
        span = rng.choice(record["spans"])
        field = rng.choice(["type", "start", "end"])
        span[field] = rng.choice(["bogus", -1, 99, span["start"], None])
        return json.dumps(record)
    return json.dumps(_mutate_json(rng, record))


def test_checkpoint_archive_mutants(base, tmp_path, capsys):
    rng = random.Random(11)
    target = tmp_path / "mutant.npz"
    for checkpoint in base.checkpoints:
        with np.load(checkpoint) as archive:
            members = {name: archive[name] for name in archive.files}
        data = checkpoint.read_bytes()
        for i in range(MUTANTS):
            target.write_bytes(_damage_bytes(rng, data))
            _exits_cleanly(["predict", "--checkpoint", target, "--input", base.raw], capsys)
            with open(target, "wb") as f:
                np.savez(f, **_archive_mutant(rng, members))
            verb = ["predict", "--input", base.raw] if i % 2 else ["eval", "--corpus", base.jsonl]
            _exits_cleanly(verb + ["--checkpoint", target], capsys)


def test_checkpoint_json_mutants(base, tmp_path, capsys):
    rng = random.Random(12)
    target = tmp_path / "mutant.json"
    for checkpoint in base.checkpoints:
        payload = {**read_archive(checkpoint), "format_version": 1}
        text = json.dumps(payload)
        for i in range(MUTANTS):
            if i % 4 == 3:
                target.write_bytes(_damage_bytes(rng, text.encode()))
            else:
                payload = json.loads(text)
                if rng.random() < 0.2:  # ragged values: a list of a list and a list of lists
                    entry = payload["params"][rng.choice(sorted(payload["params"]))]
                    entry["values"] = [entry["values"], [[0.0]]]
                else:
                    payload = _mutate_json(rng, payload)
                target.write_text(json.dumps(payload))
            verb = ["predict", "--input", base.raw] if i % 2 else ["eval", "--corpus", base.jsonl]
            _exits_cleanly(verb + ["--checkpoint", target], capsys)


@pytest.mark.parametrize("fmt", ["jsonl", "conll"])
def test_corpus_mutants(base, tmp_path, capsys, fmt):
    rng = random.Random(13)
    source = getattr(base, fmt)
    lines = source.read_text(encoding="utf-8").splitlines()
    target = tmp_path / f"mutant.{fmt}"
    for i in range(MUTANTS):
        if i % 4 == 3:
            target.write_bytes(_damage_bytes(rng, source.read_bytes()))
        else:
            mutant = list(lines)
            for k in rng.sample(range(len(mutant)), rng.randint(1, 3)):
                if mutant[k]:
                    mutant[k] = _corpus_line_mutant(rng, mutant[k], fmt == "conll")
            target.write_text("\n".join(mutant) + "\n", encoding="utf-8")
        _exits_cleanly(["eval", "--checkpoint", base.checkpoints[i % 2], "--corpus", target,
                        "--format", fmt], capsys)
        if fmt == "jsonl":  # predict reads id and text from the same lines
            _exits_cleanly(["predict", "--checkpoint", base.checkpoints[i % 2],
                            "--input", target], capsys)
