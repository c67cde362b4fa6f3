"""Model zoo: output contracts, the enhanced-joint reduction, checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from traffictag import bio, subword
from traffictag.autodiff import backward, grad_check
from traffictag.corpus import (
    NON_TRAFFIC,
    TRAFFIC,
    GeneratorConfig,
    Tweet,
    generate_synthetic,
)
from traffictag.models import (
    ARCHITECTURES,
    CnnClassifier,
    JointModel,
    LstmClassifier,
    LstmCrfTagger,
    LstmTagger,
    ModelConfig,
    WordVocab,
    build_model,
    joint_loss,
    load_checkpoint,
    predict,
    save_checkpoint,
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
    for t in model.store.tensors():
        t.data[...] = 0.0
    return model


class TestClassifiers:
    def test_cnn_simplex_output(self, word_vocab, tweet):
        model = CnnClassifier(word_vocab, SMALL, seed=1)
        probs = model.class_probs(tweet.tokens)
        assert probs.shape == (2,)
        assert probs.min() >= 0 and abs(probs.sum() - 1) < 1e-12

    def test_cnn_zero_params_uniform(self, word_vocab, tweet):
        model = zero_params(CnnClassifier(word_vocab, SMALL, seed=1))
        assert np.allclose(model.class_probs(tweet.tokens), [0.5, 0.5])

    def test_cnn_pads_short_sentences(self, word_vocab):
        model = CnnClassifier(word_vocab, SMALL, seed=1)
        probs = model.class_probs(("file",))  # shorter than widest filter
        assert abs(probs.sum() - 1) < 1e-12

    def test_lstm_zero_params_uniform(self, word_vocab, tweet):
        model = zero_params(LstmClassifier(word_vocab, SMALL, seed=1))
        assert np.allclose(model.class_probs(tweet.tokens), [0.5, 0.5])

    def test_lstm_direction_sensitivity(self, word_vocab):
        model = LstmClassifier(word_vocab, SMALL, seed=3)
        forward = model.class_probs(("file", "op", "de", "brug"))
        reversed_ = model.class_probs(("brug", "de", "op", "file"))
        assert not np.allclose(forward, reversed_)

    def test_tie_breaks_to_non_traffic(self, word_vocab, tweet):
        model = zero_params(CnnClassifier(word_vocab, SMALL, seed=1))
        assert model.predict(tweet).class_label == NON_TRAFFIC


class TestTaggers:
    def test_one_row_per_token(self, word_vocab, tweet):
        model = LstmTagger(word_vocab, SMALL, seed=2)
        probs = model.tag_probs(tweet.tokens)
        assert probs.shape == (len(tweet.tokens), bio.NUM_TAGS)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_decoded_spans_never_overlap(self, word_vocab, corpus):
        model = LstmTagger(word_vocab, SMALL, seed=2)
        for tweet in list(corpus)[:20]:
            pred = model.predict(tweet)
            ordered = sorted(pred.spans, key=lambda s: s.start)
            assert all(a.end <= b.start for a, b in zip(ordered, ordered[1:]))

    def test_constrained_decode_always_valid(self, word_vocab, corpus):
        config = ModelConfig(**{**SMALL.to_dict(), "constrained_decode": True})
        model = LstmCrfTagger(word_vocab, config, seed=4)
        for tweet in list(corpus)[:30]:
            pred = model.predict(tweet)
            assert bio.validate(list(pred.tags)) == []

    def test_oov_tokens_map_to_unk(self, word_vocab):
        model = LstmCrfTagger(word_vocab, SMALL, seed=4)
        unseen = Tweet("x", "zzzq qqqz", ("zzzq", "qqqz"), TRAFFIC, ())
        pred = model.predict(unseen)
        assert len(pred.tags) == 2


class TestJoint:
    def test_simplex_outputs(self, word_vocab, sub_vocab, tweet):
        for encoder, vocabs in (("word", {"word_vocab": word_vocab}),
                                ("subword", {"subword_vocab": sub_vocab})):
            config = ModelConfig(**{**SMALL.to_dict(), "encoder": encoder})
            model = JointModel(config, seed=5, enhanced=False, **vocabs)
            out = model.forward(tweet.tokens)
            assert out.class_probs.shape == (2,)
            assert out.tag_probs.shape == (len(tweet.tokens), bio.NUM_TAGS)
            assert abs(out.class_probs.sum() - 1) < 1e-9
            assert np.allclose(out.tag_probs.sum(axis=1), 1.0, atol=1e-9)

    def test_slot_head_widths(self, sub_vocab):
        plain = JointModel(SMALL, seed=5, enhanced=False, subword_vocab=sub_vocab)
        wide = JointModel(SMALL, seed=5, enhanced=True, subword_vocab=sub_vocab)
        d_tok = 2 * SMALL.joint_hidden
        assert plain.store["slot.w"].shape == (d_tok, bio.NUM_TAGS)
        assert wide.store["slot.w"].shape == (2 * d_tok, bio.NUM_TAGS)

    def test_first_subtoken_gather_keeps_token_count(self, sub_vocab, tweet):
        model = JointModel(SMALL, seed=6, enhanced=True, subword_vocab=sub_vocab)
        pieces, first = subword.encode(tweet.tokens, sub_vocab)
        assert len(pieces) > len(tweet.tokens) + 2 or len(first) == len(tweet.tokens)
        out = model.forward(tweet.tokens)
        assert out.tag_probs.shape[0] == len(tweet.tokens)

    def test_enhanced_with_zero_sentence_block_equals_joint(self, sub_vocab, tweet):
        plain = JointModel(SMALL, seed=7, enhanced=False, subword_vocab=sub_vocab)
        wide = JointModel(SMALL, seed=8, enhanced=True, subword_vocab=sub_vocab)
        # share every parameter; zero the sentence half of the wide slot head
        for name, tensor in plain.store.params.items():
            if name != "slot.w":
                wide.store[name].data[...] = tensor.data
        d_tok = 2 * SMALL.joint_hidden
        wide.store["slot.w"].data[:d_tok] = plain.store["slot.w"].data
        wide.store["slot.w"].data[d_tok:] = 0.0
        cls_a, slot_a = plain.logits(tweet.tokens)
        cls_b, slot_b = wide.logits(tweet.tokens)
        assert np.allclose(cls_a.data, cls_b.data, atol=1e-12, rtol=0)
        assert np.allclose(slot_a.data, slot_b.data, atol=1e-12, rtol=0)

    def test_joint_loss_hand_case(self):
        from traffictag.models import JointOutput

        class_probs = np.array([1 - np.exp(-0.5), np.exp(-0.5)])  # -log p = 0.5
        tag_probs = np.array([
            [np.exp(-0.2)] + [(1 - np.exp(-0.2)) / 8] * 8,
            [np.exp(-0.3)] + [(1 - np.exp(-0.3)) / 8] * 8,
        ])
        out = JointOutput(class_probs, tag_probs)
        total = joint_loss(out, TRAFFIC, ["O", "O"])
        assert total == pytest.approx(0.5 + 0.2 + 0.3, abs=1e-12)

    def test_joint_loss_zero_when_certain(self):
        from traffictag.models import JointOutput

        out = JointOutput(
            np.array([0.0, 1.0]),
            np.eye(bio.NUM_TAGS)[[0, 3]],
        )
        assert joint_loss(out, TRAFFIC, ["O", "B-where"]) == 0.0

    def test_loss_paths_agree(self, sub_vocab, tweet):
        model = JointModel(SMALL, seed=9, enhanced=True, subword_vocab=sub_vocab)
        tensor_loss = model.loss(tweet).item()
        out = model.forward(tweet.tokens)
        gold_tags = bio.encode_spans(len(tweet.tokens), tweet.spans)
        assert tensor_loss == pytest.approx(
            joint_loss(out, tweet.class_label, gold_tags), abs=1e-9
        )

    def test_encoder_gradient_is_sum_of_head_gradients(self, sub_vocab, tweet):
        from traffictag.layers import softmax_xent, softmax_xent_rows
        from traffictag.models import _gold_class, _gold_tag_ids

        model = JointModel(SMALL, seed=10, enhanced=False, subword_vocab=sub_vocab)
        emb = model.store["enc.emb"]

        def run(which):
            class_logits, slot_logits = model.logits(tweet.tokens)
            class_l, _ = softmax_xent(class_logits, _gold_class(tweet))
            slot_l, _ = softmax_xent_rows(slot_logits, _gold_tag_ids(tweet))
            model.store.zero_grad()
            if which == "class":
                backward(class_l)
            elif which == "slot":
                backward(slot_l)
            else:
                backward(class_l + slot_l)
            return emb.grad.copy()

        total = run("both")
        assert np.allclose(total, run("class") + run("slot"), atol=1e-12)


class TestPredictGlue:
    def test_suppression_flag(self, word_vocab, sub_vocab, tweet):
        model = JointModel(SMALL, seed=11, enhanced=False, subword_vocab=sub_vocab)
        model.store["cls.w"].data[...] = 0.0  # force uniform -> non_traffic tie-break
        model.store["cls.b"].data[...] = 0.0
        kept = predict(model, tweet, suppress_non_traffic_spans=False)
        dropped = predict(model, tweet, suppress_non_traffic_spans=True)
        assert kept.class_label == NON_TRAFFIC
        assert dropped.spans == ()

    def test_gradcheck_representative_architectures(self, word_vocab, sub_vocab, tweet):
        short = Tweet("t", " ".join(tweet.tokens[:4]), tweet.tokens[:4], TRAFFIC,
                      tuple(s for s in tweet.spans if s.end <= 4))
        for arch in ("cnn", "lstm_crf", "enhanced_joint"):
            model = build_model(arch, SMALL, seed=12,
                                word_vocab=word_vocab, subword_vocab=sub_vocab)
            err = grad_check(lambda: model.loss(short), model.store.tensors())
            assert err < 1e-4, arch


class TestCheckpoints:
    def test_round_trip_identical_predictions(self, word_vocab, sub_vocab, corpus, tmp_path):
        for arch in ARCHITECTURES:
            model = build_model(arch, SMALL, seed=13,
                                word_vocab=word_vocab, subword_vocab=sub_vocab)
            path = tmp_path / f"{arch}.json"
            save_checkpoint(model, path)
            again = load_checkpoint(path)
            for tweet in list(corpus)[:5]:
                a, b = model.predict(tweet), again.predict(tweet)
                assert a.class_label == b.class_label
                assert a.spans == b.spans

    def test_tag_order_mismatch_rejected(self, word_vocab, tmp_path):
        import json

        model = build_model("lstm_tagger", SMALL, seed=1, word_vocab=word_vocab)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        payload = json.loads(path.read_text())
        payload["tag_order"] = payload["tag_order"][::-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_missing_parameters_rejected(self, word_vocab, tmp_path):
        import json

        model = build_model("lstm_crf", SMALL, seed=1, word_vocab=word_vocab)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        payload = json.loads(path.read_text())
        del payload["params"]["crf.trans"]
        del payload["params"]["tag.w"]
        path.write_text(json.dumps(payload))
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
