"""The model and its presets: output contracts, the enhanced-joint
reduction, parameter layout, edge cases, checkpoints."""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import numpy as np
import pytest

from helpers import grad_check, random_span_set, read_archive, write_archive
from traffictag import bio, subword
from traffictag.autodiff import add, backward
from traffictag.corpus import (
    CLASS_LABELS,
    NON_TRAFFIC,
    TRAFFIC,
    GeneratorConfig,
    SlotSpan,
    Tweet,
    generate_synthetic,
    normalize_tweet,
)
from traffictag.crf import viterbi
from traffictag.layers import softmax_probs
from traffictag.models import (
    ARCHITECTURES,
    PREDICT_CHUNK,
    Model,
    ModelConfig,
    WordVocab,
    build_model,
    load_checkpoint,
    predict,
    save_checkpoint,
    suppress_spans,
)

SMALL = ModelConfig(
    embed_dim=6,
    classifier_hidden=5,
    tagger_hidden=5,
    joint_hidden=5,
    cnn_filters=4,
    subword_vocab_size=200,
    dropout=0.5,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(GeneratorConfig(size=80), seed=17)


@pytest.fixture(scope="module")
def word_vocab(corpus):
    return WordVocab.build(corpus)


@pytest.fixture(scope="module")
def sub_vocab(corpus):
    return subword.build_vocab(corpus, 200)


@pytest.fixture(scope="module")
def tweet(corpus):
    return next(t for t in corpus if t.class_label == TRAFFIC and len(t.tokens) >= 5)


def zero_params(model):
    for t in model.store.params.values():
        t.data[...] = 0.0
    return model


def logits(model, tokens):
    """(class logits [1, classes], tag logits) of one tweet, a batch of one."""
    return model.forward([model._ids(tokens)])[:2]


def class_probs(model, tokens):
    return softmax_probs(logits(model, tokens)[0].data)[0]


def tag_probs(model, tokens):
    return softmax_probs(logits(model, tokens)[1].data)


# parameter names and shapes, in store order, at PIN with WORDS and PIECES:
# the layout every v1 checkpoint was written with
PIN = ModelConfig(embed_dim=6, classifier_hidden=5, tagger_hidden=4, joint_hidden=3,
                  cnn_filters=2)
WORDS = WordVocab(["file", "op", "e40"])
PIECES = subword.SubwordVocab(subword.SPECIALS + ("f", "##f"))
PINNED_LAYOUT = {
    ("cnn", "subword"): [
        ("emb", (5, 6)), ("conv3.w", (18, 2)), ("conv3.b", (2,)), ("conv4.w", (24, 2)),
        ("conv4.b", (2,)), ("conv5.w", (30, 2)), ("conv5.b", (2,)), ("out.w", (6, 2)),
        ("out.b", (2,)),
    ],
    ("lstm_classifier", "subword"): [
        ("emb", (5, 6)), ("lstm_f.w", (11, 20)), ("lstm_f.b", (20,)), ("lstm_b.w", (11, 20)),
        ("lstm_b.b", (20,)), ("out.w", (10, 2)), ("out.b", (2,)),
    ],
    ("lstm_tagger", "subword"): [
        ("emb", (5, 6)), ("lstm_f.w", (10, 16)), ("lstm_f.b", (16,)), ("lstm_b.w", (10, 16)),
        ("lstm_b.b", (16,)), ("tag.w", (8, 9)), ("tag.b", (9,)),
    ],
    ("lstm_crf", "subword"): [
        ("emb", (5, 6)), ("lstm_f.w", (10, 16)), ("lstm_f.b", (16,)), ("lstm_b.w", (10, 16)),
        ("lstm_b.b", (16,)), ("tag.w", (8, 9)), ("tag.b", (9,)), ("crf.trans", (9, 9)),
        ("crf.start", (9,)), ("crf.end", (9,)),
    ],
    ("joint", "subword"): [
        ("enc.emb", (6, 6)), ("enc.lstm_f.w", (9, 12)), ("enc.lstm_f.b", (12,)),
        ("enc.lstm_b.w", (9, 12)), ("enc.lstm_b.b", (12,)), ("cls.w", (6, 2)), ("cls.b", (2,)),
        ("slot.w", (6, 9)), ("slot.b", (9,)),
    ],
    ("joint", "word"): [
        ("enc.emb", (5, 6)), ("enc.lstm_f.w", (9, 12)), ("enc.lstm_f.b", (12,)),
        ("enc.lstm_b.w", (9, 12)), ("enc.lstm_b.b", (12,)), ("cls.w", (6, 2)), ("cls.b", (2,)),
        ("slot.w", (6, 9)), ("slot.b", (9,)),
    ],
    ("enhanced_joint", "subword"): [
        ("enc.emb", (6, 6)), ("enc.lstm_f.w", (9, 12)), ("enc.lstm_f.b", (12,)),
        ("enc.lstm_b.w", (9, 12)), ("enc.lstm_b.b", (12,)), ("cls.w", (6, 2)), ("cls.b", (2,)),
        ("slot.w", (12, 9)), ("slot.b", (9,)),
    ],
    ("enhanced_joint", "word"): [
        ("enc.emb", (5, 6)), ("enc.lstm_f.w", (9, 12)), ("enc.lstm_f.b", (12,)),
        ("enc.lstm_b.w", (9, 12)), ("enc.lstm_b.b", (12,)), ("cls.w", (6, 2)), ("cls.b", (2,)),
        ("slot.w", (12, 9)), ("slot.b", (9,)),
    ],
}


def edge_tweets(vocab_tweet):
    """A single-token tweet, one made only of characters no vocabulary has
    seen, and a 300-token tweet with seeded random spans."""
    rng = random.Random(31)
    words = list(vocab_tweet.tokens)
    long_tokens = tuple(rng.choice(words) for _ in range(300))
    return [
        Tweet("one", "file", ("file",), TRAFFIC, (SlotSpan("what", 0, 1),)),
        Tweet("oov", "ǂǂ ŧŧŧ ǂ", ("ǂǂ", "ŧŧŧ", "ǂ"), TRAFFIC, (SlotSpan("where", 1, 3),)),
        Tweet("long", " ".join(long_tokens), long_tokens, TRAFFIC,
              tuple(random_span_set(rng, 300))),
    ]


class TestPresets:
    @pytest.mark.parametrize("arch,encoder", list(PINNED_LAYOUT))
    def test_parameter_layout_pinned(self, arch, encoder):
        config = dataclasses.replace(PIN, encoder=encoder)
        model = build_model(arch, config, seed=1, word_vocab=WORDS, subword_vocab=PIECES)
        assert [(name, t.shape) for name, t in model.store.params.items()] == \
            PINNED_LAYOUT[arch, encoder]

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_missing_vocabulary_rejected(self, arch, word_vocab, sub_vocab):
        # SMALL reads subwords wherever a preset can
        wanted = "subword" if arch in ("joint", "enhanced_joint") else "word"
        given = {"word_vocab": word_vocab} if wanted == "subword" else {"subword_vocab": sub_vocab}
        with pytest.raises(ValueError, match=f"{arch} on {wanted}s needs a {wanted} vocabulary"):
            build_model(arch, SMALL, seed=1, **given)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_edge_case_tweets(self, arch, word_vocab, sub_vocab, tweet):
        model = build_model(arch, SMALL, seed=14, word_vocab=word_vocab, subword_vocab=sub_vocab)
        rng = np.random.default_rng(0)
        for edge in edge_tweets(tweet):
            assert np.isfinite(float(model.loss([edge]).data)), edge.id
            assert np.isfinite(float(model.loss([edge], train=True, rng=rng).data)), edge.id
            pred = predict(model, edge)
            if model.tag_head:
                assert len(pred.tags) == len(edge.tokens), edge.id
            if model.class_head:
                assert pred.class_label in CLASS_LABELS


class TestBatchedPredict:
    @pytest.mark.parametrize("arch,encoder", [
        *((arch, "word") for arch in ARCHITECTURES),
        ("joint", "subword"), ("enhanced_joint", "subword"),
    ])
    def test_batch_equals_per_tweet(self, arch, encoder, word_vocab, sub_vocab, corpus, tweet):
        """More tweets than one chunk, of mixed lengths and with the edge
        cases, predicted together: each prediction equals that tweet's
        prediction alone, in input order."""
        config = dataclasses.replace(SMALL, encoder=encoder)
        model = build_model(arch, config, seed=15, word_vocab=word_vocab, subword_vocab=sub_vocab)
        tweets = edge_tweets(tweet) + list(corpus)[:40]
        assert len(tweets) > PREDICT_CHUNK
        assert model.predict(tweets) == [predict(model, t) for t in tweets]

    def test_chunks_follow_piece_lengths(self, sub_vocab, corpus, tweet, monkeypatch):
        """The subword joint preset orders its batch by pieces, not tokens:
        the chunks are consecutive runs of the ascending piece-length order,
        each one sent down longest first."""
        model = build_model("joint", SMALL, seed=17, subword_vocab=sub_vocab)
        tweets = edge_tweets(tweet) + list(corpus)[:40]
        pieces = [len(subword.encode(t.tokens, sub_vocab)[0]) for t in tweets]
        # the two orders disagree on some pair, so sorting by tokens would show
        assert any(len(a.tokens) < len(b.tokens) and pa > pb
                   for a, pa in zip(tweets, pieces) for b, pb in zip(tweets, pieces))
        chunks = []
        forward = Model.forward

        def recording(self, rows, *args, **kwargs):
            chunks.append([len(ids) for ids, _ in rows])
            return forward(self, rows, *args, **kwargs)

        monkeypatch.setattr(Model, "forward", recording)
        model.predict(tweets)
        assert [len(c) for c in chunks] == [PREDICT_CHUNK, len(tweets) - PREDICT_CHUNK]
        assert all(c == sorted(c, reverse=True) for c in chunks)
        assert [n for c in chunks for n in c[::-1]] == sorted(pieces)

    def test_constrained_batch_equals_per_tweet(self, word_vocab, corpus):
        config = dataclasses.replace(SMALL, constrained_decode=True)
        model = build_model("lstm_crf", config, seed=16, word_vocab=word_vocab)
        tweets = list(corpus)[:40]
        assert model.predict(tweets) == [predict(model, t) for t in tweets]
        assert model.predict([]) == []


class TestBatchedLoss:
    """``Model.loss`` runs a batch as one graph; it must equal the one-tweet
    graphs that training ran before."""

    @pytest.mark.parametrize("arch,encoder", [
        *((arch, "word") for arch in ARCHITECTURES),
        ("joint", "subword"), ("enhanced_joint", "subword"),
    ])
    def test_batch_equals_sum_of_single_tweets(self, arch, encoder, word_vocab, sub_vocab,
                                               corpus, tweet):
        """Mixed lengths, the edge cases among them, not given longest
        first, dropout off: the batch loss and every parameter gradient
        equal their sums over one-tweet batches."""
        config = dataclasses.replace(SMALL, encoder=encoder, dropout=0.0)
        model = build_model(arch, config, seed=18, word_vocab=word_vocab, subword_vocab=sub_vocab)
        tweets = list(corpus)[:20] + edge_tweets(tweet)
        assert len({len(t.tokens) for t in tweets}) > 5
        batched = model.loss(tweets)
        backward(batched)
        grads = {name: t.grad for name, t in model.store.params.items()}
        model.store.zero_grad()
        total = 0.0
        for t in tweets:
            loss = model.loss([t])
            total += float(loss.data)
            backward(loss)
        assert abs(float(batched.data) - total) <= 1e-12 * abs(total)
        for name, t in model.store.params.items():
            assert (grads[name] is None) == (t.grad is None), name
            if t.grad is not None:
                scale = max(1.0, np.abs(t.grad).max())
                assert np.abs(grads[name] - t.grad).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_gradcheck_batched_loss(self, arch, tweet):
        """Finite differences on a three-tweet batch of lengths 5, 2 and 4,
        over a vocabulary of the batch's own words and pieces."""
        batch = [Tweet(f"b{n}", " ".join(tweet.tokens[:n]), tweet.tokens[:n], label,
                       tuple(s for s in tweet.spans if s.end <= n))
                 for n, label in ((5, TRAFFIC), (2, NON_TRAFFIC), (4, TRAFFIC))]
        model = build_model(arch, SMALL, seed=19, word_vocab=WordVocab.build(batch),
                            subword_vocab=subword.build_vocab(batch, 60))
        err = grad_check(lambda: model.loss(batch), model.store.params.values())
        assert err < 1e-4, arch


class TestClassifiers:
    def test_cnn_simplex_output(self, word_vocab, tweet):
        model = build_model("cnn", SMALL, seed=1, word_vocab=word_vocab)
        probs = class_probs(model, tweet.tokens)
        assert probs.shape == (2,)
        assert probs.min() >= 0 and abs(probs.sum() - 1) < 1e-12

    def test_cnn_zero_params_uniform(self, word_vocab, tweet):
        model = zero_params(build_model("cnn", SMALL, seed=1, word_vocab=word_vocab))
        assert np.allclose(class_probs(model, tweet.tokens), [0.5, 0.5])

    def test_cnn_pads_short_sentences(self, word_vocab):
        model = build_model("cnn", SMALL, seed=1, word_vocab=word_vocab)
        probs = class_probs(model, ("file",))  # shorter than widest filter
        assert abs(probs.sum() - 1) < 1e-12

    def test_lstm_zero_params_uniform(self, word_vocab, tweet):
        model = zero_params(build_model("lstm_classifier", SMALL, seed=1, word_vocab=word_vocab))
        assert np.allclose(class_probs(model, tweet.tokens), [0.5, 0.5])

    def test_lstm_direction_sensitivity(self, word_vocab):
        model = build_model("lstm_classifier", SMALL, seed=3, word_vocab=word_vocab)
        forward = class_probs(model, ("file", "op", "de", "brug"))
        reversed_ = class_probs(model, ("brug", "de", "op", "file"))
        assert not np.allclose(forward, reversed_)

    def test_tie_breaks_to_non_traffic(self, word_vocab, tweet):
        model = zero_params(build_model("cnn", SMALL, seed=1, word_vocab=word_vocab))
        assert predict(model, tweet).class_label == NON_TRAFFIC


class TestTaggers:
    def test_one_row_per_token(self, word_vocab, tweet):
        model = build_model("lstm_tagger", SMALL, seed=2, word_vocab=word_vocab)
        probs = tag_probs(model, tweet.tokens)
        assert probs.shape == (len(tweet.tokens), bio.NUM_TAGS)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_decoded_spans_never_overlap(self, word_vocab, corpus):
        model = build_model("lstm_tagger", SMALL, seed=2, word_vocab=word_vocab)
        for tweet in list(corpus)[:20]:
            pred = predict(model, tweet)
            ordered = sorted(pred.spans, key=lambda s: s.start)
            assert all(a.end <= b.start for a, b in zip(ordered, ordered[1:]))

    def test_constrained_decode_always_valid(self, word_vocab, corpus):
        config = ModelConfig(**{**SMALL.to_dict(), "constrained_decode": True})
        model = build_model("lstm_crf", config, seed=4, word_vocab=word_vocab)
        for tweet in list(corpus)[:30]:
            pred = predict(model, tweet)
            assert bio.validate(list(pred.tags)) == []

    def test_oov_tokens_map_to_unk(self, word_vocab):
        model = build_model("lstm_crf", SMALL, seed=4, word_vocab=word_vocab)
        unseen = Tweet("x", "zzzq qqqz", ("zzzq", "qqqz"), TRAFFIC, ())
        pred = predict(model, unseen)
        assert len(pred.tags) == 2

    @pytest.mark.parametrize("constrained", [False, True])
    def test_emissions_are_forward_tag_logits(self, word_vocab, corpus, constrained):
        """``Model.emissions`` is one tweet's ``forward`` tag logits, and
        decoding them as a batch of one gives ``predict``'s tags."""
        config = dataclasses.replace(SMALL, constrained_decode=constrained)
        model = build_model("lstm_crf", config, seed=4, word_vocab=word_vocab)
        for tweet in list(corpus)[:10]:
            emissions = model.emissions(tweet.tokens)
            assert np.array_equal(emissions.data, logits(model, tweet.tokens)[1].data)
            [path], _ = viterbi(emissions, model.crf, [len(tweet.tokens)], constrained)
            assert predict(model, tweet).tags == tuple(bio.TAGS[i] for i in path)


class TestJoint:
    def test_simplex_outputs(self, word_vocab, sub_vocab, tweet):
        for encoder, vocabs in (("word", {"word_vocab": word_vocab}),
                                ("subword", {"subword_vocab": sub_vocab})):
            config = ModelConfig(**{**SMALL.to_dict(), "encoder": encoder})
            model = build_model("joint", config, seed=5, **vocabs)
            cls_p, tag_p = class_probs(model, tweet.tokens), tag_probs(model, tweet.tokens)
            assert cls_p.shape == (2,)
            assert tag_p.shape == (len(tweet.tokens), bio.NUM_TAGS)
            assert abs(cls_p.sum() - 1) < 1e-9
            assert np.allclose(tag_p.sum(axis=1), 1.0, atol=1e-9)

    def test_slot_head_widths(self, sub_vocab):
        plain = build_model("joint", SMALL, seed=5, subword_vocab=sub_vocab)
        wide = build_model("enhanced_joint", SMALL, seed=5, subword_vocab=sub_vocab)
        d_tok = 2 * SMALL.joint_hidden
        assert plain.store["slot.w"].shape == (d_tok, bio.NUM_TAGS)
        assert wide.store["slot.w"].shape == (2 * d_tok, bio.NUM_TAGS)

    def test_first_subtoken_gather_keeps_token_count(self, sub_vocab, tweet):
        model = build_model("enhanced_joint", SMALL, seed=6, subword_vocab=sub_vocab)
        pieces, first = subword.encode(tweet.tokens, sub_vocab)
        assert len(pieces) > len(tweet.tokens) + 2 or len(first) == len(tweet.tokens)
        assert tag_probs(model, tweet.tokens).shape[0] == len(tweet.tokens)

    def test_enhanced_with_zero_sentence_block_equals_joint(self, sub_vocab, tweet):
        plain = build_model("joint", SMALL, seed=7, subword_vocab=sub_vocab)
        wide = build_model("enhanced_joint", SMALL, seed=8, subword_vocab=sub_vocab)
        # share every parameter; zero the sentence half of the wide slot head
        for name, tensor in plain.store.params.items():
            if name != "slot.w":
                wide.store[name].data[...] = tensor.data
        d_tok = 2 * SMALL.joint_hidden
        wide.store["slot.w"].data[:d_tok] = plain.store["slot.w"].data
        wide.store["slot.w"].data[d_tok:] = 0.0
        cls_a, slot_a = logits(plain, tweet.tokens)
        cls_b, slot_b = logits(wide, tweet.tokens)
        assert np.allclose(cls_a.data, cls_b.data, atol=1e-12, rtol=0)
        assert np.allclose(slot_a.data, slot_b.data, atol=1e-12, rtol=0)

    def test_loss_paths_agree(self, sub_vocab, tweet):
        model = build_model("enhanced_joint", SMALL, seed=9, subword_vocab=sub_vocab)
        tensor_loss = float(model.loss([tweet]).data)
        # factorized joint NLL from the probabilities: -log p(class) - sum_i log p(tag_i)
        cls_p, tag_p = class_probs(model, tweet.tokens), tag_probs(model, tweet.tokens)
        gold_tags = bio.encode_spans(len(tweet.tokens), tweet.spans)
        expected = -np.log(cls_p[CLASS_LABELS.index(tweet.class_label)]) - sum(
            np.log(tag_p[i, bio.TAG_INDEX[tag]]) for i, tag in enumerate(gold_tags)
        )
        assert tensor_loss == pytest.approx(expected, abs=1e-9)

    def test_encoder_gradient_is_sum_of_head_gradients(self, sub_vocab, tweet):
        from traffictag.layers import softmax_xent
        from traffictag.models import _gold_class, _gold_tag_ids

        model = build_model("joint", SMALL, seed=10, subword_vocab=sub_vocab)
        emb = model.store["enc.emb"]

        def run(which):
            class_logits, slot_logits = logits(model, tweet.tokens)
            class_l = softmax_xent(class_logits, [_gold_class(tweet)])
            slot_l = softmax_xent(slot_logits, _gold_tag_ids(tweet))
            model.store.zero_grad()
            if which == "class":
                backward(class_l)
            elif which == "slot":
                backward(slot_l)
            else:
                backward(add(class_l, slot_l))
            return emb.grad.copy()

        total = run("both")
        assert np.allclose(total, run("class") + run("slot"), atol=1e-12)


class TestPredictGlue:
    def test_suppression_flag(self, word_vocab, sub_vocab, tweet):
        model = build_model("joint", SMALL, seed=11, subword_vocab=sub_vocab)
        model.store["cls.w"].data[...] = 0.0  # force uniform -> non_traffic tie-break
        model.store["cls.b"].data[...] = 0.0
        kept = predict(model, tweet)
        dropped = suppress_spans(kept)
        assert kept.class_label == NON_TRAFFIC
        assert dropped.spans == ()

    def test_gradcheck_representative_architectures(self, word_vocab, sub_vocab, tweet):
        short = Tweet("t", " ".join(tweet.tokens[:4]), tweet.tokens[:4], TRAFFIC,
                      tuple(s for s in tweet.spans if s.end <= 4))
        for arch in ("cnn", "lstm_crf", "enhanced_joint"):
            model = build_model(arch, SMALL, seed=12,
                                word_vocab=word_vocab, subword_vocab=sub_vocab)
            err = grad_check(lambda: model.loss([short]), model.store.params.values())
            assert err < 1e-4, arch


class TestCheckpoints:
    def test_round_trip_identical_predictions(self, word_vocab, sub_vocab, corpus, tmp_path):
        for arch in ARCHITECTURES:
            model = build_model(arch, SMALL, seed=13,
                                word_vocab=word_vocab, subword_vocab=sub_vocab)
            # one file at exactly the path given, whatever its suffix
            path = tmp_path / arch / "checkpoint.json"
            path.parent.mkdir()
            save_checkpoint(model, path)
            assert list(path.parent.iterdir()) == [path]
            again = load_checkpoint(path)
            for name in model.store.params:
                assert again.store[name].data.tobytes() == model.store[name].data.tobytes()
            save_checkpoint(again, path.with_name("again.npz"))
            assert path.with_name("again.npz").read_bytes() == path.read_bytes()
            for tweet in list(corpus)[:5]:
                a, b = predict(model, tweet), predict(again, tweet)
                assert a.class_label == b.class_label
                assert a.spans == b.spans

    @staticmethod
    def _damaged_copies(model, tmp_path, damage):
        """The model's checkpoint damaged as a format-2 archive and as a
        format-1 JSON file."""
        archive = tmp_path / "ckpt.npz"
        save_checkpoint(model, archive)
        payload = read_archive(archive)
        write_archive(damage(payload), archive)
        v1 = tmp_path / "ckpt.json"
        v1.write_text(json.dumps(damage({**payload, "format_version": 1})))
        return archive, v1

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_load_draws_no_initial_values(self, arch, word_vocab, sub_vocab, tmp_path,
                                          monkeypatch):
        """Both formats fill the parameters from the file alone: loading makes
        no random generator, and every array is the saved one bit for bit."""
        model = build_model(arch, SMALL, seed=13, word_vocab=word_vocab, subword_vocab=sub_vocab)
        paths = self._damaged_copies(model, tmp_path, lambda p: p)

        def no_generator(*args, **kwargs):
            raise AssertionError("loading a checkpoint made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for path in paths:
            loaded = load_checkpoint(path)
            assert list(loaded.store.params) == list(model.store.params)
            for name, tensor in model.store.params.items():
                assert loaded.store[name].data.dtype == np.float64
                assert loaded.store[name].data.tobytes() == tensor.data.tobytes()

    def test_format1_negative_dimension_rejected(self, word_vocab, tmp_path):
        """numpy's reshape would infer a -1 dimension from the value count."""
        model = build_model("cnn", SMALL, seed=1, word_vocab=word_vocab)
        _, v1 = self._damaged_copies(model, tmp_path, lambda p: {**p, "params": {
            **p["params"], "emb": {**p["params"]["emb"], "shape": [-1, 6]}}})
        with pytest.raises(ValueError, match=r"'emb' shape \[-1, 6\] is not a list of ints >= 0"):
            load_checkpoint(v1)

    def test_tag_order_mismatch_rejected(self, word_vocab, tmp_path):
        model = build_model("lstm_tagger", SMALL, seed=1, word_vocab=word_vocab)
        for path in self._damaged_copies(
            model, tmp_path, lambda p: {**p, "tag_order": p["tag_order"][::-1]}
        ):
            with pytest.raises(ValueError, match="tag inventory"):
                load_checkpoint(path)

    def test_missing_parameters_rejected(self, word_vocab, tmp_path):
        model = build_model("lstm_crf", SMALL, seed=1, word_vocab=word_vocab)
        drop = ("crf.trans", "tag.w")
        damage = lambda p: {**p, "params": {
            k: v for k, v in p["params"].items() if k not in drop}}
        for path in self._damaged_copies(model, tmp_path, damage):
            with pytest.raises(ValueError, match=r"'tag.w', 'crf.trans'"):
                load_checkpoint(path)

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            build_model("transformer", SMALL, seed=1)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(dropout=1.0)
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(encoder="bytes")

    @pytest.mark.parametrize("arch", ["cnn", "lstm_crf"])
    def test_v1_fixture_predictions_pinned(self, arch):
        """A trained format-1 checkpoint saved by an earlier build gives the
        labels and tags it gave then on ten raw tweets (all in tests/data)."""
        _assert_pinned_predictions(load_checkpoint(DATA / f"v1_{arch}.json"), arch)

    @pytest.mark.parametrize("arch", ["cnn", "lstm_crf"])
    def test_v1_fixture_migrates_to_archive(self, arch, tmp_path):
        """Format 1 loaded and saved again as format 2 keeps every parameter
        bit for bit, and the pinned predictions."""
        model = load_checkpoint(DATA / f"v1_{arch}.json")
        save_checkpoint(model, tmp_path / "v2.npz")
        again = load_checkpoint(tmp_path / "v2.npz")
        assert list(again.store.params) == list(model.store.params)
        for name in model.store.params:
            assert again.store[name].data.tobytes() == model.store[name].data.tobytes()
        _assert_pinned_predictions(again, arch)


DATA = Path(__file__).parent / "data"


def _assert_pinned_predictions(model, arch):
    pinned = json.loads((DATA / "v1_predictions.json").read_text())[arch]
    raw = [json.loads(line) for line in (DATA / "v1_tweets.jsonl").read_text().splitlines()]
    assert len(raw) == len(pinned) == 10
    for record, expected in zip(raw, pinned):
        tokens = tuple(normalize_tweet(record["text"]))
        pred = predict(model, Tweet(record["id"], record["text"], tokens, NON_TRAFFIC, ()))
        assert pred.class_label == expected["label"]
        assert (list(pred.tags) if pred.tags else None) == expected["tags"]
