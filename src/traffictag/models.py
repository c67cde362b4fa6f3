"""One composable model; the six architectures are presets of it.

Every architecture shares the same skeleton: trainable embeddings feed an
encoder, and small affine heads produce class and/or per-token tag logits.
A preset fixes four choices:

* the encoder -- windowed convolutions (widths 3/4/5) with max-over-time
  pooling, or a BiLSTM whose per-token states feed the tag head and whose
  concatenated final states (the whole-sentence summary) feed the class head;
* whether there is a class head;
* the tag head -- none, a per-token softmax over the 9 BIO tags, or a
  linear-chain CRF;
* "enhanced" -- every token state is concatenated with the sentence state
  before the tag head, injecting sentence-level evidence into every tag
  decision.

==================  =======  ==========  ========  ========
preset              encoder  class head  tag head  enhanced
==================  =======  ==========  ========  ========
cnn                 cnn      yes         --        no
lstm_classifier     bilstm   yes         --        no
lstm_tagger         bilstm   no          softmax   no
lstm_crf            bilstm   no          crf       no
joint               bilstm   yes         softmax   no
enhanced_joint      bilstm   yes         softmax   yes
==================  =======  ==========  ========  ========

The joint presets (class head and tag head over one shared encoder) can read
words or subwords; in the subword case tag logits are gathered at each
token's first subtoken, so the prediction count always equals the original
token count. The other presets read words.
"""

from __future__ import annotations

import json
import tokenize
import zipfile
import zlib
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np
import numpy.lib.format as npy

from . import bio, crf as crf_mod, subword
from .autodiff import Tensor, add, concat, take_rows
from .corpus import CLASS_LABELS, NON_TRAFFIC, TRAFFIC, Corpus, SlotSpan, Tweet, check_number
from .layers import (
    affine,
    bilstm,
    conv_max_pool,
    dropout,
    embedding_lookup,
    softmax_probs,
    softmax_xent,
)
from .optim import ParamStore

# architecture -> (encoder, class head, tag head, enhanced)
_PRESETS = {
    "cnn": ("cnn", True, None, False),
    "lstm_classifier": ("bilstm", True, None, False),
    "lstm_tagger": ("bilstm", False, "softmax", False),
    "lstm_crf": ("bilstm", False, "crf", False),
    "joint": ("bilstm", True, "softmax", False),
    "enhanced_joint": ("bilstm", True, "softmax", True),
}

ARCHITECTURES = tuple(_PRESETS)

CLASS_INDEX = {label: i for i, label in enumerate(CLASS_LABELS)}

# tweets per forward pass at inference: bounds the batch's working memory
PREDICT_CHUNK = 32

# one tweet's vocabulary ids and the id position of each original token
Encoded = tuple[list[int], Sequence[int]]


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 160
    classifier_hidden: int = 256
    tagger_hidden: int = 100
    joint_hidden: int = 128
    cnn_filters: int = 64
    cnn_widths: tuple[int, ...] = (3, 4, 5)
    dropout: float = 0.5
    encoder: str = "subword"  # joint models: word | subword
    subword_vocab_size: int = 2000
    constrained_decode: bool = False

    def __post_init__(self):
        for name in ("embed_dim", "classifier_hidden", "tagger_hidden", "joint_hidden",
                     "cnn_filters", "subword_vocab_size"):
            check_number(name, getattr(self, name), integer=True, minimum=1)
        if not isinstance(self.cnn_widths, (list, tuple)) or not self.cnn_widths:
            raise ValueError(f"cnn_widths must be a non-empty list, got {self.cnn_widths!r}")
        for width in self.cnn_widths:
            check_number("cnn_widths", width, integer=True, minimum=1)
        check_number("dropout", self.dropout)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout outside [0, 1): {self.dropout}")
        if self.encoder not in ("word", "subword"):
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if not isinstance(self.constrained_decode, bool):
            raise ValueError(f"constrained_decode must be a bool, got {self.constrained_decode!r}")
        object.__setattr__(self, "cnn_widths", tuple(self.cnn_widths))

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["cnn_widths"] = list(self.cnn_widths)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        if not isinstance(data, dict):
            raise ValueError(f"model config is a JSON {type(data).__name__}, not an object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown model config keys {unknown}")
        return cls(**data)


class WordVocab:
    """Frequency-ranked word inventory with [PAD]=0 and [UNK]=1."""

    PAD = "[PAD]"
    UNK = "[UNK]"

    def __init__(self, words: Sequence[str]):
        self.itos: tuple[str, ...] = (self.PAD, self.UNK) + tuple(words)
        self.stoi = {w: i for i, w in enumerate(self.itos)}

    def __len__(self) -> int:
        return len(self.itos)

    @classmethod
    def build(cls, corpus: Corpus) -> "WordVocab":
        counts: Counter[str] = Counter()
        for tweet in corpus:
            counts.update(tweet.tokens)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls([w for w, _ in ranked])

    def encode(self, tokens: Sequence[str]) -> list[int]:
        unk = self.stoi[self.UNK]
        return [self.stoi.get(t, unk) for t in tokens]


@dataclass
class Prediction:
    class_label: str | None
    spans: tuple[SlotSpan, ...]
    tags: tuple[str, ...] | None = None


def uses_subwords(architecture: str, config: ModelConfig) -> bool:
    """Whether the preset reads subwords: only the joint presets can."""
    _, class_head, tag_head, _ = _PRESETS[architecture]
    return class_head and tag_head is not None and config.encoder == "subword"


def _gold_class(tweet: Tweet) -> int:
    return CLASS_INDEX[tweet.class_label]


def _gold_tag_ids(tweet: Tweet) -> list[int]:
    tags = bio.encode_spans(len(tweet.tokens), tweet.spans)
    return [bio.TAG_INDEX[t] for t in tags]


class Model:
    """An embedding and an encoder under an optional class head and an
    optional tag head, configured by one of the ``ARCHITECTURES`` presets.

    A tweet's loss sums the class cross-entropy and the tag head's loss:
    summed per-token cross-entropies, or the CRF negative log-likelihood.
    Continuation subtokens contribute nothing, since tag logits exist only at
    first-subtoken positions.
    """

    def __init__(
        self,
        architecture: str,
        config: ModelConfig,
        seed: int,
        word_vocab: WordVocab | None = None,
        subword_vocab: subword.SubwordVocab | None = None,
    ):
        if not isinstance(architecture, str) or architecture not in _PRESETS:
            raise ValueError(f"unknown architecture {architecture!r}")
        self.architecture = architecture
        self.encoder, self.class_head, self.tag_head, self.enhanced = _PRESETS[architecture]
        self.config = config
        self.seed = seed
        self.word_vocab: WordVocab | None = None
        self.subword_vocab: subword.SubwordVocab | None = None
        if uses_subwords(architecture, config):
            if subword_vocab is None:
                raise ValueError(f"{architecture} on subwords needs a subword vocabulary")
            self.subword_vocab = subword_vocab
        else:
            if word_vocab is None:
                raise ValueError(f"{architecture} on words needs a word vocabulary")
            self.word_vocab = word_vocab
        # the joint presets keep the parameter names of their own v1 class
        joint = self.kind == "joint"
        self._prefix = "enc." if joint else ""
        self._cls = "cls" if joint else "out"
        self._tag = "slot" if joint else "tag"
        self.store = ParamStore(self._layout())

    @property
    def kind(self) -> str:
        if self.class_head and self.tag_head:
            return "joint"
        return "classifier" if self.class_head else "tagger"

    def _layout(self) -> list[tuple[str, tuple[int, ...], str]]:
        """(name, shape, init kind) of every parameter, in store order."""
        def affine(name: str, n_in: int, n_out: int, bias: str = "zeros") -> list:
            return [(f"{name}.w", (n_in, n_out), "uniform"), (f"{name}.b", (n_out,), bias)]

        config, p = self.config, self._prefix
        d = config.embed_dim
        vocab = self.subword_vocab if self.subword_vocab is not None else self.word_vocab
        layout = [(f"{p}emb", (len(vocab), d), "embedding")]
        if self.encoder == "cnn":
            for w in config.cnn_widths:
                layout += affine(f"conv{w}", w * d, config.cnn_filters)
            d_tok, d_sent = 0, len(config.cnn_widths) * config.cnn_filters
        else:
            h = getattr(config, f"{self.kind}_hidden")
            for direction in ("f", "b"):
                layout += affine(f"{p}lstm_{direction}", d + h, 4 * h, "forget_bias")
            d_tok = d_sent = 2 * h
        if self.class_head:
            layout += affine(self._cls, d_sent, len(CLASS_LABELS))
        if self.tag_head:
            layout += affine(self._tag, d_tok + d_sent if self.enhanced else d_tok, bio.NUM_TAGS)
        if self.tag_head == "crf":
            layout += [("crf.trans", (bio.NUM_TAGS, bio.NUM_TAGS), "uniform"),
                       ("crf.start", (bio.NUM_TAGS,), "uniform"),
                       ("crf.end", (bio.NUM_TAGS,), "uniform")]
        return layout

    def _ids(self, tokens: Sequence[str]) -> Encoded:
        """Subword pieces and their first-subtoken alignment, or one word id
        per token."""
        if self.subword_vocab is not None:
            return subword.encode(tokens, self.subword_vocab)
        ids = self.word_vocab.encode(tokens)
        return ids, range(len(ids))

    def _encode(self, rows: Sequence[Encoded]) -> tuple[Tensor | None, Tensor | None, list[int]]:
        """(token states: each tweet's rows back to back, one row per original
        token, or None for the cnn; sentence states [B, ·] or None without a
        class head; the token count of each tweet) of encoded tweets, longest
        first."""
        store, p = self.store, self._prefix
        ids, gathers = zip(*rows)
        counts = [len(g) for g in gathers]
        if self.encoder == "cnn":  # a tweet shorter than the widest window gets [PAD]s, id 0
            ids = [row + [0] * (max(self.config.cnn_widths) - len(row)) for row in ids]
        lengths = [len(row) for row in ids]
        x = embedding_lookup(store[f"{p}emb"], [i for row in ids for i in row])
        if self.encoder == "cnn":
            pooled = [conv_max_pool(x, lengths, store[f"conv{w}.w"], store[f"conv{w}.b"])
                      for w in self.config.cnn_widths]
            return None, concat(pooled), counts
        states, hf, hb = bilstm(
            x, lengths, store[f"{p}lstm_f.w"], store[f"{p}lstm_f.b"],
            store[f"{p}lstm_b.w"], store[f"{p}lstm_b.b"],
        )
        if self.subword_vocab is not None:  # each token's state is its first piece's
            starts = (np.cumsum(lengths) - lengths).tolist()
            states = take_rows(states, [start + i for start, g in zip(starts, gathers) for i in g])
        return states, concat((hf, hb)) if self.class_head else None, counts

    def forward(
        self, rows: Sequence[Encoded], train: bool = False, rng=None
    ) -> tuple[Tensor | None, Tensor | None, list[int]]:
        """(class logits [B, classes], per-token tag logits with each tweet's
        rows back to back, each tweet's token count) of encoded tweets,
        longest first; None for no head. Dropout draws for the token states
        come before the sentence states'."""
        token_states, sentence_states, counts = self._encode(rows)
        rate, store = self.config.dropout, self.store
        class_logits = tag_logits = None
        if self.tag_head:
            token_states = dropout(token_states, rate, train, rng)
        if self.class_head:
            sentence_states = dropout(sentence_states, rate, train, rng)
            class_logits = affine(sentence_states, store[f"{self._cls}.w"],
                                  store[f"{self._cls}.b"])
        if self.tag_head:
            if self.enhanced:
                tiled = take_rows(sentence_states, np.repeat(np.arange(len(counts)), counts))
                token_states = concat((token_states, tiled))
            tag_logits = affine(token_states, store[f"{self._tag}.w"], store[f"{self._tag}.b"])
        return class_logits, tag_logits, counts

    def emissions(self, tokens: Sequence[str]) -> Tensor:
        """One tweet's per-token tag logits, the CRF's emission scores: a
        one-tweet view of ``forward`` that the benchmark's Viterbi check reads."""
        return self.forward([self._ids(tokens)])[1]

    @property
    def crf(self) -> crf_mod.CrfModel:
        store = self.store
        return crf_mod.CrfModel(store["crf.trans"], store["crf.start"], store["crf.end"])

    def loss(self, tweets: Sequence[Tweet], train: bool = False, rng=None) -> Tensor:
        """The summed loss of a batch of tweets: one forward pass, in the
        order ``predict`` gives a chunk."""
        rows = [self._ids(t.tokens) for t in tweets]
        order = sorted(range(len(rows)), key=lambda i: len(rows[i][0]))[::-1]
        tweets = [tweets[i] for i in order]
        class_logits, tag_logits, _ = self.forward([rows[i] for i in order], train, rng)
        terms = []
        if class_logits is not None:
            terms.append(softmax_xent(class_logits, [_gold_class(t) for t in tweets]))
        if tag_logits is not None:
            gold = [_gold_tag_ids(t) for t in tweets]
            if self.tag_head == "crf":
                terms.append(crf_mod.nll(tag_logits, self.crf, gold))
            else:
                terms.append(softmax_xent(tag_logits, [i for g in gold for i in g]))
        return terms[0] if len(terms) == 1 else add(*terms)

    def predict(self, tweets: Sequence[Tweet]) -> list[Prediction]:
        """Predictions in input order. The one place that orders a batch:
        tweets are encoded once and sorted stably by encoded length, and each
        run of PREDICT_CHUNK goes through one forward pass longest first, so
        the short remainder chunk holds the longest tweets."""
        rows = [self._ids(t.tokens) for t in tweets]
        order = sorted(range(len(rows)), key=lambda i: len(rows[i][0]))
        preds: list[Prediction | None] = [None] * len(tweets)
        for lo in range(0, len(order), PREDICT_CHUNK):
            chunk = order[lo : lo + PREDICT_CHUNK][::-1]
            for i, pred in zip(chunk, self._decode([rows[i] for i in chunk])):
                preds[i] = pred
        return preds

    def _decode(self, rows: Sequence[Encoded]) -> list[Prediction]:
        class_logits, tag_logits, counts = self.forward(rows)
        labels = [None] * len(counts)
        if class_logits is not None:
            probs = softmax_probs(class_logits.data)
            # strict inequality: a tie stays non_traffic
            traffic = probs[:, CLASS_INDEX[TRAFFIC]] > probs[:, CLASS_INDEX[NON_TRAFFIC]]
            labels = [TRAFFIC if t else NON_TRAFFIC for t in traffic]
        if tag_logits is None:
            return [Prediction(label, ()) for label in labels]
        if self.tag_head == "crf":
            paths, _ = crf_mod.viterbi(tag_logits, self.crf, counts,
                                       self.config.constrained_decode)
        else:
            best = softmax_probs(tag_logits.data).argmax(axis=1)
            paths = np.split(best, np.cumsum(counts)[:-1])
        tag_lists = [tuple(bio.TAGS[i] for i in path) for path in paths]
        return [Prediction(label, tuple(bio.decode_tags(tags)), tags)
                for label, tags in zip(labels, tag_lists)]


def predict(model: Model, tweet: Tweet) -> Prediction:
    """Run a trained model on one tweet: a batch of one through
    ``Model.predict``, the call whose latency the benchmark times.

    Span predictions are kept even when the tweet is classified non_traffic,
    so the two subtasks stay independently evaluable; ``suppress_spans``
    gives the pipeline-style prediction.
    """
    return model.predict([tweet])[0]


def suppress_spans(pred: Prediction) -> Prediction:
    """The prediction without its spans if it classifies the tweet
    non_traffic, else the prediction itself."""
    return replace(pred, spans=()) if pred.class_label == NON_TRAFFIC and pred.spans else pred


# ---------------------------------------------------------------------------
# Construction and checkpointing
# ---------------------------------------------------------------------------

def build_model(
    architecture: str,
    config: ModelConfig,
    seed: int,
    word_vocab: WordVocab | None = None,
    subword_vocab: subword.SubwordVocab | None = None,
) -> Model:
    """A model with its seeded initial parameters; loading draws none."""
    model = Model(architecture, config, seed, word_vocab, subword_vocab)
    model.store.initialize(np.random.default_rng(seed))
    return model


CHECKPOINT_VERSION = 2

# the archive member holding the metadata; no parameter name starts with "_"
METADATA_MEMBER = "__metadata__"
_ZIP_MAGIC = b"PK\x03\x04"
# besides ValueError, what reading a damaged file raises: zipfile's
# BadZipFile, EOFError and OSError (a bad offset); RuntimeError (an
# "encrypted" member, or NotImplementedError for an unknown compression
# method); zlib.error; and SyntaxError or tokenize.TokenError from numpy's
# parser of a damaged npy header
_READ_ERRORS = (
    zipfile.BadZipFile, EOFError, OSError, RuntimeError, zlib.error,
    tokenize.TokenError, SyntaxError,
)

_CHECKPOINT_FIELDS = (
    "architecture", "model_config", "seed", "tag_order", "class_order",
    "word_vocab", "subword_vocab", "params",
)


def checkpoint_metadata(model: Model, extra: dict | None = None) -> dict:
    """Everything a checkpoint holds besides the parameter values."""
    metadata = {
        "format_version": CHECKPOINT_VERSION,
        "architecture": model.architecture,
        "model_config": model.config.to_dict(),
        "seed": model.seed,
        "tag_order": list(bio.TAGS),
        "class_order": list(CLASS_LABELS),
        "word_vocab": list(model.word_vocab.itos[2:]) if model.word_vocab else None,
        "subword_vocab": list(model.subword_vocab.pieces) if model.subword_vocab else None,
    }
    if extra:
        overlap = set(extra) & (set(metadata) | {"params"})
        if overlap:
            raise ValueError(f"extra checkpoint metadata collides with {sorted(overlap)}")
        metadata.update(extra)
    return metadata


def save_checkpoint(model: Model, path: str | Path, extra: dict | None = None) -> None:
    """Write one uncompressed .npz archive at exactly ``path``: the metadata as
    a JSON string in a 0-d unicode member, then one member per parameter in
    store order; ``np.savez``'s bytes, but written from each array's buffer."""
    members = {METADATA_MEMBER: np.array(json.dumps(checkpoint_metadata(model, extra)))}
    members.update((name, t.data) for name, t in model.store.params.items())
    with open(path, "wb") as f, zipfile.ZipFile(f, "w", allowZip64=True) as archive:
        for name, array in members.items():
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                npy.write_array_header_1_0(member, npy.header_data_from_array_1_0(array))
                member.write(memoryview(array).cast("B"))


def load_checkpoint(path: str | Path) -> Model:
    """Load a format-2 archive or a format-1 JSON checkpoint, told apart by
    the leading bytes, not the suffix. Both pass the same checks; every fault
    is a ValueError naming the file."""
    try:
        with open(path, "rb") as f:
            try:
                payload = _read_archive(f) if f.read(4) == _ZIP_MAGIC else _read_json(f)
            except _READ_ERRORS as exc:
                raise ValueError(f"unreadable checkpoint ({type(exc).__name__}: {exc})") from exc
        return _restore(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _checkpoint_object(data, version: int) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"checkpoint is a JSON {type(data).__name__}, not an object")
    if data.get("format_version") != version:
        raise ValueError(f"unsupported checkpoint version {data.get('format_version')!r}")
    return data


def _read_archive(f) -> dict:
    """Format 2: the metadata plus params as {name: float64 array}."""
    f.seek(0)
    with np.load(f, allow_pickle=False) as archive:
        if METADATA_MEMBER not in archive.files:
            raise ValueError(f"checkpoint archive has no {METADATA_MEMBER!r} member")
        members = {name: archive[name] for name in archive.files}
    metadata = members.pop(METADATA_MEMBER)
    if not isinstance(metadata, np.ndarray) or metadata.shape != () or metadata.dtype.kind != "U":
        raise ValueError("checkpoint metadata is not a 0-d unicode array")
    payload = _checkpoint_object(json.loads(metadata.item()), 2)
    if "params" in payload:
        raise ValueError("checkpoint metadata holds a params field")
    for name, array in members.items():
        if not isinstance(array, np.ndarray):  # a member without the npy header
            raise ValueError(f"checkpoint member {name!r} is not an npy array")
        if array.dtype != np.float64:
            raise ValueError(f"checkpoint parameter {name!r} is {array.dtype}, not float64")
    if members:  # an archive of metadata alone lacks the params field
        payload["params"] = members
    return payload


def _read_json(f) -> dict:
    """Format 1: the payload, its params entries turned into float64 arrays."""
    f.seek(0)
    payload = _checkpoint_object(json.loads(f.read().decode("utf-8")), 1)
    if "params" not in payload:
        return payload
    params = payload["params"]
    if not isinstance(params, dict):
        raise ValueError(f"checkpoint params is a JSON {type(params).__name__}, not an object")
    for name, entry in params.items():
        if not isinstance(entry, dict) or set(entry) != {"shape", "values"}:
            raise ValueError(
                f"checkpoint parameter {name!r} is not an object of exactly shape and values"
            )
        shape = entry["shape"]
        if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
            raise ValueError(  # a bool, or a float equal to an int, is not an int
                f"checkpoint parameter {name!r} shape {shape!r} is not a list of ints >= 0")
        try:  # asarray fails on a ragged nested list and reads a bool among numbers as 1 or 0
            values = np.asarray(entry["values"])
            flat = np.asarray(entry["values"], dtype=object).flat  # the JSON scalars, bools kept
            if values.dtype.kind not in "fi" or any(type(v) is bool for v in flat):
                raise ValueError("values are not all numbers")
            params[name] = values.astype(np.float64).reshape(shape)
        except ValueError as exc:
            raise ValueError(f"checkpoint parameter {name!r} {exc}") from exc
    return payload


def _restore(payload: dict) -> Model:
    """The checks both formats pass, then the model they describe."""
    missing = [name for name in _CHECKPOINT_FIELDS if name not in payload]
    if missing:
        raise ValueError(f"checkpoint lacks the fields {missing}")
    if payload["tag_order"] != list(bio.TAGS):
        raise ValueError("checkpoint tag inventory does not match this build")
    if payload["class_order"] != list(CLASS_LABELS):
        raise ValueError("checkpoint class inventory does not match this build")
    config = ModelConfig.from_dict(payload["model_config"])
    check_number("checkpoint seed", payload["seed"], integer=True, minimum=0)
    for name in ("word_vocab", "subword_vocab"):
        vocab = payload[name]
        if vocab is not None and (
            not isinstance(vocab, list) or not all(isinstance(w, str) for w in vocab)
        ):
            raise ValueError(f"checkpoint {name} is not a list of strings")
    word_vocab = WordVocab(payload["word_vocab"]) if payload["word_vocab"] is not None else None
    sub_vocab = (
        subword.SubwordVocab(tuple(payload["subword_vocab"]))
        if payload["subword_vocab"] is not None
        else None
    )
    model = Model(payload["architecture"], config, payload["seed"], word_vocab, sub_vocab)
    params, store = payload["params"], model.store
    missing = [name for name in store.params if name not in params]
    if missing:
        raise ValueError(f"checkpoint lacks {payload['architecture']} parameters {missing}")
    for name, values in params.items():
        if name not in store.params:
            raise ValueError(f"checkpoint parameter {name!r} unknown to {payload['architecture']}")
        if values.shape != store[name].data.shape:
            raise ValueError(f"checkpoint parameter {name!r} shape {list(values.shape)} "
                             f"!= {list(store[name].data.shape)}")
    store.restore(params)
    return model
