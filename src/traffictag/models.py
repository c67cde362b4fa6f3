"""Model zoo: independent classifiers and taggers plus the two joint models.

Every architecture shares the same skeleton: trainable embeddings feed an
encoder, and small affine heads produce class and/or per-token tag logits.

* cnn             -- windowed convolutions (widths 3/4/5) + max-over-time
                     pooling, class head only.
* lstm_classifier -- BiLSTM; the concatenated final states feed the class head.
* lstm_tagger     -- BiLSTM; per-token softmax over the 9 BIO tags.
* lstm_crf        -- same trunk with a linear-chain CRF on top.
* joint           -- one shared BiLSTM encoder; the pooled sentence state
                     (concatenated final states, the whole-sentence summary)
                     feeds the class head and each token state feeds the slot
                     head.
* enhanced_joint  -- like joint, but every token state is concatenated with
                     the sentence state before the slot head, injecting
                     sentence-level evidence into every tag decision.

The joint models can run on a word-level encoder or on a subword encoder; in
the subword case tag logits are gathered at each token's first subtoken, so
the prediction count always equals the original token count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bio, crf as crf_mod, subword
from .autodiff import Tensor, add, concat, relu, take_rows
from .corpus import CLASS_LABELS, NON_TRAFFIC, TRAFFIC, Corpus, SlotSpan, Tweet
from .layers import (
    affine,
    bilstm,
    conv_window,
    dropout,
    embedding_lookup,
    max_pool_over_time,
    softmax_probs,
    softmax_xent,
    softmax_xent_rows,
    tile_rows,
)
from .optim import ParamStore

ARCHITECTURES = ("cnn", "lstm_classifier", "lstm_tagger", "lstm_crf", "joint", "enhanced_joint")

CLASS_INDEX = {label: i for i, label in enumerate(CLASS_LABELS)}

ARCH_KIND = {
    "cnn": "classifier",
    "lstm_classifier": "classifier",
    "lstm_tagger": "tagger",
    "lstm_crf": "tagger",
    "joint": "joint",
    "enhanced_joint": "joint",
}


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
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout outside [0, 1): {self.dropout}")
        if self.encoder not in ("word", "subword"):
            raise ValueError(f"unknown encoder {self.encoder!r}")
        object.__setattr__(self, "cnn_widths", tuple(self.cnn_widths))

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["cnn_widths"] = list(self.cnn_widths)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        kwargs = dict(data)
        if "cnn_widths" in kwargs:
            kwargs["cnn_widths"] = tuple(kwargs["cnn_widths"])
        return cls(**kwargs)


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
    def build(cls, corpus: Corpus, min_freq: int = 1) -> "WordVocab":
        from collections import Counter

        counts: Counter[str] = Counter()
        for tweet in corpus:
            counts.update(tweet.tokens)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls([w for w, c in ranked if c >= min_freq])

    def encode(self, tokens: Sequence[str]) -> list[int]:
        unk = self.stoi[self.UNK]
        return [self.stoi.get(t, unk) for t in tokens]


@dataclass
class Prediction:
    class_label: str | None
    spans: tuple[SlotSpan, ...]
    tags: tuple[str, ...] | None = None


@dataclass
class EncoderOutput:
    token_states: Tensor  # [n, d_tok], one row per original token
    sentence_state: Tensor  # [d_sent], the pooled whole-sentence summary


@dataclass
class JointOutput:
    class_probs: np.ndarray  # simplex over (non_traffic, traffic)
    tag_probs: np.ndarray  # [n, 9], each row a simplex point


def _gold_class(tweet: Tweet) -> int:
    return CLASS_INDEX[tweet.class_label]


def _gold_tag_ids(tweet: Tweet) -> list[int]:
    tags = bio.encode_spans(len(tweet.tokens), tweet.spans)
    return [bio.TAG_INDEX[t] for t in tags]


def _class_from_probs(probs: np.ndarray) -> str:
    # strict inequality: a tie stays non_traffic
    return TRAFFIC if probs[CLASS_INDEX[TRAFFIC]] > probs[CLASS_INDEX[NON_TRAFFIC]] else NON_TRAFFIC


def _tags_from_rows(tag_probs: np.ndarray) -> tuple[str, ...]:
    return tuple(bio.TAGS[i] for i in tag_probs.argmax(axis=1))


class _ModelBase:
    architecture: str

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        self.seed = seed
        self.store = ParamStore(np.random.default_rng(seed))
        self.word_vocab: WordVocab | None = None
        self.subword_vocab: subword.SubwordVocab | None = None

    @property
    def kind(self) -> str:
        return ARCH_KIND[self.architecture]

    def loss(self, tweet: Tweet, train: bool = False, rng=None) -> Tensor:
        raise NotImplementedError

    def predict(self, tweet: Tweet) -> Prediction:
        raise NotImplementedError


class CnnClassifier(_ModelBase):
    architecture = "cnn"

    def __init__(self, vocab: WordVocab, config: ModelConfig, seed: int):
        super().__init__(config, seed)
        self.word_vocab = vocab
        d, f = config.embed_dim, config.cnn_filters
        self.store.add("emb", (len(vocab), d), "embedding")
        for w in config.cnn_widths:
            self.store.add(f"conv{w}.w", (w * d, f))
            self.store.add(f"conv{w}.b", (f,), "zeros")
        self.store.add("out.w", (len(config.cnn_widths) * f, len(CLASS_LABELS)))
        self.store.add("out.b", (len(CLASS_LABELS),), "zeros")

    def class_logits(self, tokens: Sequence[str], train: bool = False, rng=None) -> Tensor:
        ids = self.word_vocab.encode(tokens)
        pad_to = max(self.config.cnn_widths)
        if len(ids) < pad_to:
            ids = ids + [self.word_vocab.stoi[WordVocab.PAD]] * (pad_to - len(ids))
        x = embedding_lookup(self.store["emb"], ids)
        pooled = [
            max_pool_over_time(relu(conv_window(x, self.store[f"conv{w}.w"], self.store[f"conv{w}.b"])))
            for w in self.config.cnn_widths
        ]
        h = dropout(concat(pooled), self.config.dropout, train, rng)
        return affine(h, self.store["out.w"], self.store["out.b"])

    def class_probs(self, tokens: Sequence[str]) -> np.ndarray:
        return softmax_probs(self.class_logits(tokens).data)

    def loss(self, tweet: Tweet, train: bool = False, rng=None) -> Tensor:
        loss, _ = softmax_xent(self.class_logits(tweet.tokens, train, rng), _gold_class(tweet))
        return loss

    def predict(self, tweet: Tweet) -> Prediction:
        return Prediction(_class_from_probs(self.class_probs(tweet.tokens)), ())


class LstmClassifier(_ModelBase):
    architecture = "lstm_classifier"

    def __init__(self, vocab: WordVocab, config: ModelConfig, seed: int):
        super().__init__(config, seed)
        self.word_vocab = vocab
        d, h = config.embed_dim, config.classifier_hidden
        self.store.add("emb", (len(vocab), d), "embedding")
        _add_lstm_params(self.store, "lstm", d, h)
        self.store.add("out.w", (2 * h, len(CLASS_LABELS)))
        self.store.add("out.b", (len(CLASS_LABELS),), "zeros")

    def class_logits(self, tokens: Sequence[str], train: bool = False, rng=None) -> Tensor:
        x = embedding_lookup(self.store["emb"], self.word_vocab.encode(tokens))
        _, hf, hb = bilstm(
            x, self.store["lstm_f.w"], self.store["lstm_f.b"],
            self.store["lstm_b.w"], self.store["lstm_b.b"],
        )
        h = dropout(concat((hf, hb)), self.config.dropout, train, rng)
        return affine(h, self.store["out.w"], self.store["out.b"])

    def class_probs(self, tokens: Sequence[str]) -> np.ndarray:
        return softmax_probs(self.class_logits(tokens).data)

    def loss(self, tweet: Tweet, train: bool = False, rng=None) -> Tensor:
        loss, _ = softmax_xent(self.class_logits(tweet.tokens, train, rng), _gold_class(tweet))
        return loss

    def predict(self, tweet: Tweet) -> Prediction:
        return Prediction(_class_from_probs(self.class_probs(tweet.tokens)), ())


def _add_lstm_params(store: ParamStore, prefix: str, input_dim: int, hidden: int) -> None:
    for direction in ("f", "b"):
        store.add(f"{prefix}_{direction}.w", (input_dim + hidden, 4 * hidden))
        b = store.add(f"{prefix}_{direction}.b", (4 * hidden,), "zeros")
        b.data[hidden : 2 * hidden] = 1.0  # forget-gate bias


class _TaggerBase(_ModelBase):
    def __init__(self, vocab: WordVocab, config: ModelConfig, seed: int):
        super().__init__(config, seed)
        self.word_vocab = vocab
        d, h = config.embed_dim, config.tagger_hidden
        self.store.add("emb", (len(vocab), d), "embedding")
        _add_lstm_params(self.store, "lstm", d, h)
        self.store.add("tag.w", (2 * h, bio.NUM_TAGS))
        self.store.add("tag.b", (bio.NUM_TAGS,), "zeros")

    def emissions(self, tokens: Sequence[str], train: bool = False, rng=None) -> Tensor:
        x = embedding_lookup(self.store["emb"], self.word_vocab.encode(tokens))
        states, _, _ = bilstm(
            x, self.store["lstm_f.w"], self.store["lstm_f.b"],
            self.store["lstm_b.w"], self.store["lstm_b.b"],
        )
        states = dropout(states, self.config.dropout, train, rng)
        return affine(states, self.store["tag.w"], self.store["tag.b"])


class LstmTagger(_TaggerBase):
    architecture = "lstm_tagger"

    def tag_probs(self, tokens: Sequence[str]) -> np.ndarray:
        return softmax_probs(self.emissions(tokens).data)

    def loss(self, tweet: Tweet, train: bool = False, rng=None) -> Tensor:
        loss, _ = softmax_xent_rows(
            self.emissions(tweet.tokens, train, rng), _gold_tag_ids(tweet)
        )
        return loss

    def predict(self, tweet: Tweet) -> Prediction:
        tags = _tags_from_rows(self.tag_probs(tweet.tokens))
        return Prediction(None, tuple(bio.decode_tags(tags)), tags)


class LstmCrfTagger(_TaggerBase):
    architecture = "lstm_crf"

    def __init__(self, vocab: WordVocab, config: ModelConfig, seed: int):
        super().__init__(vocab, config, seed)
        self.store.add("crf.trans", (bio.NUM_TAGS, bio.NUM_TAGS))
        self.store.add("crf.start", (bio.NUM_TAGS,))
        self.store.add("crf.end", (bio.NUM_TAGS,))

    @property
    def crf(self) -> crf_mod.CrfModel:
        return crf_mod.CrfModel(
            self.store["crf.trans"], self.store["crf.start"], self.store["crf.end"]
        )

    def loss(self, tweet: Tweet, train: bool = False, rng=None) -> Tensor:
        return crf_mod.nll(
            self.emissions(tweet.tokens, train, rng), self.crf, _gold_tag_ids(tweet)
        )

    def predict(self, tweet: Tweet) -> Prediction:
        path, _ = crf_mod.viterbi(
            self.emissions(tweet.tokens), self.crf,
            constrained=self.config.constrained_decode,
        )
        tags = tuple(bio.TAGS[i] for i in path)
        return Prediction(None, tuple(bio.decode_tags(tags)), tags)


class JointModel(_ModelBase):
    """Shared encoder with a class head and a slot head, trained jointly.

    The loss is the class cross-entropy plus the summed per-token tag
    cross-entropies (continuation subtokens contribute nothing: tag logits
    exist only at first-subtoken positions). The enhanced variant widens the
    slot head input with the sentence state.
    """

    def __init__(
        self,
        config: ModelConfig,
        seed: int,
        enhanced: bool,
        word_vocab: WordVocab | None = None,
        subword_vocab: subword.SubwordVocab | None = None,
    ):
        super().__init__(config, seed)
        self.enhanced = enhanced
        self.architecture = "enhanced_joint" if enhanced else "joint"
        if config.encoder == "word":
            if word_vocab is None:
                raise ValueError("word encoder needs a WordVocab")
            self.word_vocab = word_vocab
            vocab_rows = len(word_vocab)
        else:
            if subword_vocab is None:
                raise ValueError("subword encoder needs a SubwordVocab")
            self.subword_vocab = subword_vocab
            vocab_rows = len(subword_vocab)
        d, h = config.embed_dim, config.joint_hidden
        d_tok = d_sent = 2 * h
        self.store.add("enc.emb", (vocab_rows, d), "embedding")
        _add_lstm_params(self.store, "enc.lstm", d, h)
        self.store.add("cls.w", (d_sent, len(CLASS_LABELS)))
        self.store.add("cls.b", (len(CLASS_LABELS),), "zeros")
        slot_in = d_tok + d_sent if enhanced else d_tok
        self.store.add("slot.w", (slot_in, bio.NUM_TAGS))
        self.store.add("slot.b", (bio.NUM_TAGS,), "zeros")

    def encode(self, tokens: Sequence[str], train: bool = False, rng=None) -> EncoderOutput:
        if self.config.encoder == "word":
            ids = self.word_vocab.encode(tokens)
            gather = None
        else:
            ids, gather = subword.encode(tokens, self.subword_vocab)
        x = embedding_lookup(self.store["enc.emb"], ids)
        states, hf, hb = bilstm(
            x, self.store["enc.lstm_f.w"], self.store["enc.lstm_f.b"],
            self.store["enc.lstm_b.w"], self.store["enc.lstm_b.b"],
        )
        token_states = states if gather is None else take_rows(states, gather)
        sentence_state = concat((hf, hb))
        rate = self.config.dropout
        return EncoderOutput(
            token_states=dropout(token_states, rate, train, rng),
            sentence_state=dropout(sentence_state, rate, train, rng),
        )

    def logits(self, tokens: Sequence[str], train: bool = False, rng=None) -> tuple[Tensor, Tensor]:
        enc = self.encode(tokens, train, rng)
        class_logits = affine(enc.sentence_state, self.store["cls.w"], self.store["cls.b"])
        if self.enhanced:
            n = enc.token_states.data.shape[0]
            tiled = tile_rows(enc.sentence_state, n)
            slot_input = concat((enc.token_states, tiled), axis=1)
        else:
            slot_input = enc.token_states
        slot_logits = affine(slot_input, self.store["slot.w"], self.store["slot.b"])
        return class_logits, slot_logits

    def forward(self, tokens: Sequence[str]) -> JointOutput:
        class_logits, slot_logits = self.logits(tokens)
        return JointOutput(softmax_probs(class_logits.data), softmax_probs(slot_logits.data))

    def loss(self, tweet: Tweet, train: bool = False, rng=None) -> Tensor:
        class_logits, slot_logits = self.logits(tweet.tokens, train, rng)
        class_loss, _ = softmax_xent(class_logits, _gold_class(tweet))
        slot_loss, _ = softmax_xent_rows(slot_logits, _gold_tag_ids(tweet))
        return add(class_loss, slot_loss)

    def predict(self, tweet: Tweet) -> Prediction:
        out = self.forward(tweet.tokens)
        tags = _tags_from_rows(out.tag_probs)
        return Prediction(_class_from_probs(out.class_probs), tuple(bio.decode_tags(tags)), tags)


def joint_loss(output: JointOutput, gold_class: str, gold_tags: Sequence[str]) -> float:
    """Factorized joint negative log-likelihood from probabilities:
    -log p(class) - sum_i log p(tag_i)."""
    n = output.tag_probs.shape[0]
    if len(gold_tags) != n:
        raise ValueError(f"expected {n} gold tags, got {len(gold_tags)}")
    total = -float(np.log(output.class_probs[CLASS_INDEX[gold_class]]))
    for i, tag in enumerate(gold_tags):
        total -= float(np.log(output.tag_probs[i, bio.TAG_INDEX[tag]]))
    return total


def predict(model: _ModelBase, tweet: Tweet, suppress_non_traffic_spans: bool = False) -> Prediction:
    """Run a trained model on one tweet.

    By default span predictions are kept even when the tweet is classified
    non_traffic, so the two subtasks stay independently evaluable; the flag
    switches on pipeline-style suppression.
    """
    pred = model.predict(tweet)
    if (
        suppress_non_traffic_spans
        and pred.class_label == NON_TRAFFIC
        and pred.spans
    ):
        pred = replace(pred, spans=())
    return pred


# ---------------------------------------------------------------------------
# Construction and checkpointing
# ---------------------------------------------------------------------------

def build_model(
    architecture: str,
    config: ModelConfig,
    seed: int,
    word_vocab: WordVocab | None = None,
    subword_vocab: subword.SubwordVocab | None = None,
) -> _ModelBase:
    if architecture not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {architecture!r}")
    if architecture == "cnn":
        return CnnClassifier(word_vocab, config, seed)
    if architecture == "lstm_classifier":
        return LstmClassifier(word_vocab, config, seed)
    if architecture == "lstm_tagger":
        return LstmTagger(word_vocab, config, seed)
    if architecture == "lstm_crf":
        return LstmCrfTagger(word_vocab, config, seed)
    return JointModel(
        config,
        seed,
        enhanced=(architecture == "enhanced_joint"),
        word_vocab=word_vocab,
        subword_vocab=subword_vocab,
    )


CHECKPOINT_VERSION = 1


def checkpoint_payload(model: _ModelBase, extra: dict | None = None) -> dict:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "architecture": model.architecture,
        "model_config": model.config.to_dict(),
        "seed": model.seed,
        "tag_order": list(bio.TAGS),
        "class_order": list(CLASS_LABELS),
        "word_vocab": list(model.word_vocab.itos[2:]) if model.word_vocab else None,
        "subword_vocab": list(model.subword_vocab.pieces) if model.subword_vocab else None,
        "params": {
            name: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
            for name, t in model.store.params.items()
        },
    }
    if extra:
        overlap = set(extra) & set(payload)
        if overlap:
            raise ValueError(f"extra checkpoint metadata collides with {sorted(overlap)}")
        payload.update(extra)
    return payload


def save_checkpoint(model: _ModelBase, path: str | Path, extra: dict | None = None) -> None:
    Path(path).write_text(
        json.dumps(checkpoint_payload(model, extra)) + "\n", encoding="utf-8"
    )


def load_checkpoint(path: str | Path) -> _ModelBase:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('format_version')!r}")
    if payload["tag_order"] != list(bio.TAGS):
        raise ValueError("checkpoint tag inventory does not match this build")
    if payload["class_order"] != list(CLASS_LABELS):
        raise ValueError("checkpoint class inventory does not match this build")
    config = ModelConfig.from_dict(payload["model_config"])
    word_vocab = WordVocab(payload["word_vocab"]) if payload["word_vocab"] is not None else None
    sub_vocab = (
        subword.SubwordVocab(tuple(payload["subword_vocab"]))
        if payload["subword_vocab"] is not None
        else None
    )
    model = build_model(payload["architecture"], config, payload["seed"], word_vocab, sub_vocab)
    missing = [name for name in model.store.names() if name not in payload["params"]]
    if missing:
        raise ValueError(f"checkpoint lacks {payload['architecture']} parameters {missing}")
    for name, entry in payload["params"].items():
        if name not in model.store:
            raise ValueError(f"checkpoint parameter {name!r} unknown to {payload['architecture']}")
        tensor = model.store[name]
        shape = tuple(entry["shape"])
        if shape != tensor.data.shape:
            raise ValueError(f"checkpoint parameter {name!r} shape {shape} != {tensor.data.shape}")
        tensor.data[...] = np.asarray(entry["values"], dtype=np.float64).reshape(shape)
    return model
