"""Corpus model: normalization, splitting, generation, and file IO."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time

import pytest

from helpers import URL_RE_REFERENCE, normalize_tweet_reference
from traffictag import corpus as corpus_module
from traffictag import bio
from traffictag.cli import main
from traffictag.corpus import (
    _URL_RE,
    _Draws,
    _PunctTable,
    NON_TRAFFIC,
    SLOT_TYPES,
    TRAFFIC,
    Corpus,
    CorpusError,
    CorpusFormatError,
    DegenerateTweetError,
    GeneratorConfig,
    SlotSpan,
    Tweet,
    build_slot_pools,
    generate_synthetic,
    load_corpus,
    normalize_tweet,
    save_corpus,
    split_corpus,
)
from traffictag.models import ModelConfig, WordVocab, build_model, save_checkpoint


def make_tweet(tid, tokens, label=TRAFFIC, spans=()):
    return Tweet(tid, " ".join(tokens), tuple(tokens), label, tuple(spans))


@pytest.fixture(scope="module")
def cnn_checkpoint(tmp_path_factory):
    model = build_model("cnn", ModelConfig(embed_dim=4, cnn_filters=2), 1,
                        word_vocab=WordVocab(["file"]))
    path = tmp_path_factory.mktemp("ckpt") / "cnn.npz"
    save_checkpoint(model, path)
    return str(path)


GOOD_RECORD = {"id": "1", "text": "file e40", "tokens": ["file", "e40"], "label": "traffic",
               "spans": [{"type": "what", "start": 0, "end": 1}]}


def _record(**changes):
    record = dict(GOOD_RECORD, **changes)
    if "span" in changes:
        record["spans"] = [dict(GOOD_RECORD["spans"][0], **record.pop("span"))]
    return record


# every value of each generator axis: region, traffic fraction, (pool size,
# overlap) and seed; size 500 takes the three diagonal (pool, overlap) pairs
_REGIONS, _FRACTIONS, _SEEDS = ("BRU", "BE"), (0, 0.5, 1), (0, 1, 2**40 + 3)
_POOLS = tuple(itertools.product((1, 3, 20), (0, 0.7, 1)))


def _grid(size):
    pools = _POOLS if size < 500 else _POOLS[::4]
    for region, fraction, (pool, overlap), seed in itertools.product(
            _REGIONS, _FRACTIONS, pools, _SEEDS):
        yield GeneratorConfig(size=size, traffic_fraction=fraction, region=region,
                              shared_vocab_fraction=overlap, pool_size=pool), seed


def _save_digests(corpora, tmp_path):
    """sha256 of the saved bytes of ``corpora`` in order, per format."""
    digests = {}
    for fmt in ("jsonl", "conll"):
        h = hashlib.sha256()
        for corpus in corpora:
            save_corpus(corpus, tmp_path / f"c.{fmt}")
            h.update((tmp_path / f"c.{fmt}").read_bytes())
        digests[fmt] = h.hexdigest()
    return digests


_PINNED_GRID = {
    1: {"jsonl": "28c17f017549726d63594e33e97e17cddd27be72e6c566e174a0ef27d4961c6b",
        "conll": "a66f9cde5ea6c32ac686ed5f1a74e201796c3ffffb4fb002e504acdc8e1f4b58"},
    7: {"jsonl": "31c20a39926ff6a2f81e35f49fd954d715156ca1f1969c4aab54f7032869bb97",
        "conll": "23c0552d3ef8f3d01761f2d53b0d8eeb0bd27594ede97423989cec1f03d88ad8"},
    60: {"jsonl": "87b28b33c7c498e2c22f8333988fe77c13536e3c718c2d83a6674aa4c6917548",
         "conll": "9eb91b944cd5ee82782cee2fd9b63e18c9fb5bb57d0e9bf59923b92c992dd96a"},
    500: {"jsonl": "a89d2d6fd070de7df12755c4d2c237983e528e20c151246f0839939f3302f022",
          "conll": "969aa4f65a2c5f3fdb7a46d8bcb46b2f36c03733674c4da967f6c9dd909cc22e"},
}
_PINNED_SPLIT = {"jsonl": "aeb88ecdfdd5ef471207a461021d0b276a13c405beba425aef5866f715dd40a7",
                 "conll": "5ced6231298c7cb8a1311c04ebfcbab60e76ccbf4a905459224be37308866c11"}


class TestNormalize:
    def test_url_removed(self):
        assert normalize_tweet("File op E40 https://t.co/x") == ["file", "op", "e40"]
        # a scheme starts at a letter: the digits and dash before it stay
        assert normalize_tweet("km 40-https://t.co/x") == ["km", "40", "-"]

    def test_punctuation_detached(self):
        assert normalize_tweet("Ongeval, rijstrook dicht") == [
            "ongeval", ",", "rijstrook", "dicht",
        ]

    def test_degenerate(self):
        with pytest.raises(DegenerateTweetError):
            normalize_tweet("https://t.co/abc")

    def test_www_url_removed(self):
        assert normalize_tweet("zie www.verkeer.be nu") == ["zie", "nu"]

    def test_uppercase_urls_removed(self):
        assert normalize_tweet("zie WWW.VERKEER.BE en HTTPS://T.CO/X nu") == ["zie", "en", "nu"]

    def test_url_pattern_equals_reference_on_random_strings(self):
        rng = random.Random(12)
        atoms = [*"azAZ09+.-:/", "www.", "://", " ", "\t", "é"]
        for _ in range(20000):
            text = "".join(rng.choices(atoms, k=rng.randint(1, 24)))
            assert _URL_RE.sub(r"\1 ", text) == URL_RE_REFERENCE.sub(" ", text), text

    def test_translate_table_equals_reference_on_random_strings(self):
        rng = random.Random(21)
        alphabet = [*map(chr, range(128)), *map(chr, range(0xA0, 0x100)),
                    *map(chr, range(0x2000, 0x2070)), "İ", "ß", "ﬁ", "\t", "\n", "https://t.co/"]
        for _ in range(20000):
            text = "".join(rng.choices(alphabet, k=rng.randint(1, 24)))
            try:
                tokens = normalize_tweet(text)
            except DegenerateTweetError:
                tokens = []
            assert tokens == normalize_tweet_reference(text), repr(text)

    def test_translate_table_is_bounded(self, monkeypatch):
        # past the bound, code points are classified on each use, not stored
        table = _PunctTable()
        monkeypatch.setattr(corpus_module, "_PUNCT_TABLE", table)
        text = "".join(map(chr, range(0x3000, 0x3000 + 2 * _PunctTable.MAX)))
        for _ in range(2):
            assert normalize_tweet(text) == normalize_tweet_reference(text)
        assert len(table) == _PunctTable.MAX

    def test_long_letter_run_is_linear(self):
        # the unanchored pattern took 1.5 s on 16,000 letters and grows as
        # the square of the run; anchored, 100,000 take a few milliseconds
        text = "file " + "abcdefghij" * 10_000 + " gent"
        t0 = time.perf_counter()
        tokens = normalize_tweet(text)
        assert time.perf_counter() - t0 < 2.0
        assert len(tokens) == 3 and len(tokens[1]) == 100_000

    def test_idempotent_on_random_text(self):
        rng = random.Random(5)
        pieces = ["File", "E40,", "richting", "Gent!", "https://t.co/abc", "(omleiding)", "8u"]
        for _ in range(200):
            text = " ".join(rng.choices(pieces, k=rng.randint(1, 6)))
            try:
                tokens = normalize_tweet(text)
            except DegenerateTweetError:
                continue
            assert normalize_tweet(" ".join(tokens)) == tokens

    def test_idempotent_on_synthetic_corpus(self):
        corpus = generate_synthetic(GeneratorConfig(size=100), seed=2)
        for tweet in corpus:
            assert normalize_tweet(" ".join(tweet.tokens)) == list(tweet.tokens)


class TestTweetInvariants:
    def test_non_traffic_with_spans_rejected(self):
        with pytest.raises(CorpusError):
            make_tweet("a", ["x", "y"], NON_TRAFFIC, [SlotSpan("what", 0, 1)])

    def test_overlapping_spans_rejected(self):
        with pytest.raises(CorpusError):
            make_tweet("a", ["x", "y", "z"], TRAFFIC,
                       [SlotSpan("what", 0, 2), SlotSpan("where", 1, 3)])

    def test_out_of_bounds_span_rejected(self):
        with pytest.raises(CorpusError):
            make_tweet("a", ["x"], TRAFFIC, [SlotSpan("what", 0, 2)])

    def test_empty_tokens_rejected(self):
        with pytest.raises(CorpusError):
            Tweet("a", "", (), TRAFFIC)

    def test_bad_span_bounds(self):
        with pytest.raises(CorpusError):
            SlotSpan("what", 2, 2)
        with pytest.raises(CorpusError):
            SlotSpan("nonsense", 0, 1)

    def test_duplicate_ids_rejected(self):
        t = make_tweet("a", ["x"])
        with pytest.raises(CorpusError):
            Corpus("c", (t, t))


class TestSplit:
    def test_100_splits_60_20_20(self):
        corpus = generate_synthetic(GeneratorConfig(size=100), seed=7)
        train, dev, test = split_corpus(corpus, seed=7)
        assert (len(train), len(dev), len(test)) == (60, 20, 20)

    def test_10_splits_6_2_2(self):
        corpus = generate_synthetic(GeneratorConfig(size=10), seed=1)
        train, dev, test = split_corpus(corpus, seed=1)
        assert (len(train), len(dev), len(test)) == (6, 2, 2)

    def test_remainder_goes_to_train(self):
        corpus = generate_synthetic(GeneratorConfig(size=7), seed=1)
        train, dev, test = split_corpus(corpus, seed=1)
        assert (len(train), len(dev), len(test)) == (5, 1, 1)

    def test_deterministic(self):
        corpus = generate_synthetic(GeneratorConfig(size=50), seed=3)
        a = split_corpus(corpus, seed=9)
        b = split_corpus(corpus, seed=9)
        assert all(x == y for x, y in zip(a, b))

    def test_parts_disjoint_and_cover(self):
        corpus = generate_synthetic(GeneratorConfig(size=53), seed=3)
        parts = split_corpus(corpus, seed=4)
        ids = [{t.id for t in p} for p in parts]
        assert ids[0] | ids[1] | ids[2] == {t.id for t in corpus}
        assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])

    def test_too_small(self):
        corpus = generate_synthetic(GeneratorConfig(size=4), seed=1)
        with pytest.raises(CorpusError):
            split_corpus(corpus, seed=1)


class TestGenerator:
    def test_exact_traffic_count(self):
        corpus = generate_synthetic(GeneratorConfig(size=1000, traffic_fraction=0.5), seed=1)
        assert len(corpus) == 1000
        assert sum(1 for t in corpus if t.class_label == TRAFFIC) == 500

    def test_deterministic_and_byte_identical(self, tmp_path):
        cfg = GeneratorConfig(size=120)
        a = generate_synthetic(cfg, seed=11)
        b = generate_synthetic(cfg, seed=11)
        assert a == b
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(a, pa)
        save_corpus(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_grid_bytes_pinned(self, tmp_path):
        # jsonl and conll bytes of every corpus in a grid, hashed per size, as
        # the generator wrote them through random.Random's own samplers
        for size, digests in _PINNED_GRID.items():
            corpora = [generate_synthetic(config, seed) for config, seed in _grid(size)]
            assert _save_digests(corpora, tmp_path) == digests, size
        corpus = generate_synthetic(GeneratorConfig(size=500, region="BE"), 2**40 + 3)
        assert _save_digests(split_corpus(corpus, 7), tmp_path) == _PINNED_SPLIT

    def test_draws_match_random_random(self):
        # one interleaved script per seed, each op on a random.Random and on
        # the draw helper: the same values, and the same next random()
        lengths = list(range(1, 71))
        for seed in range(200):
            script, ref, draw = random.Random(-seed), random.Random(seed), _Draws(seed)
            for _ in range(60):
                op = script.randrange(6)
                if op == 0:
                    seq = tuple(range(script.choice(lengths)))
                    assert ref.choice(seq) == draw.choice(seq)
                elif op == 1:
                    assert ref.randint(0, 2) == draw.below(3)
                elif op == 2:
                    assert ref.randint(4, 12) == 4 + draw.below(9)
                elif op == 3:
                    k = script.randint(1, 2)
                    assert ref.sample(("a", "b"), k) == draw.sample(("a", "b"), k)
                elif op == 4:
                    x = list(range(script.randint(0, 6)))
                    y = list(x)
                    ref.shuffle(x)
                    draw.shuffle(y)
                    assert x == y
                else:
                    assert ref.choices((1, 2, 3), weights=(5, 3, 2))[0] == draw.span_length()
            assert ref.random() == draw.random(), seed

    def test_invariants_hold(self):
        corpus = generate_synthetic(GeneratorConfig(size=300), seed=5)
        for tweet in corpus:
            assert tweet.tokens
            if tweet.class_label == NON_TRAFFIC:
                assert not tweet.spans

    def test_invalid_proportion(self):
        with pytest.raises(CorpusError):
            GeneratorConfig(size=10, traffic_fraction=1.5)
        with pytest.raises(CorpusError):
            GeneratorConfig(size=10, shared_vocab_fraction=-0.1)
        with pytest.raises(CorpusError):
            GeneratorConfig(size=0)

    def test_region_pool_overlap_is_configured_ratio(self):
        bru = build_slot_pools(GeneratorConfig(size=10, region="BRU", shared_vocab_fraction=0.7))
        be = build_slot_pools(GeneratorConfig(size=10, region="BE", shared_vocab_fraction=0.7))
        for slot in SLOT_TYPES:
            inter = set(bru[slot]) & set(be[slot])
            assert len(inter) / len(bru[slot]) == pytest.approx(0.7)

    def test_observed_location_overlap(self):
        # measure on generated corpora: span-initial tokens are the pool heads
        bru = generate_synthetic(GeneratorConfig(size=1000, region="BRU"), seed=1)
        be = generate_synthetic(GeneratorConfig(size=1000, region="BE"), seed=2)

        def heads(corpus):
            return {
                tweet.tokens[span.start]
                for tweet in corpus
                for span in tweet.spans
                if span.slot_type == "where"
            }

        hb, he = heads(bru), heads(be)
        assert len(hb & he) / len(hb) == pytest.approx(0.7, abs=0.02)


class TestIO:
    def test_jsonl_round_trip(self, tmp_path):
        corpus = generate_synthetic(GeneratorConfig(size=80), seed=21)
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_save_load_fixpoint(self, tmp_path):
        corpus = generate_synthetic(GeneratorConfig(size=40), seed=22)
        p1 = tmp_path / "c1.conll"
        p2 = tmp_path / "c2.conll"
        save_corpus(corpus, p1)
        first = load_corpus(p1)
        save_corpus(first, p2)
        assert load_corpus(p2) == first

    def test_cross_format_spans_agree(self, tmp_path):
        corpus = generate_synthetic(GeneratorConfig(size=60), seed=23)
        pj = tmp_path / "c.jsonl"
        pc = tmp_path / "c.conll"
        save_corpus(corpus, pj)
        save_corpus(corpus, pc)
        from_json = load_corpus(pj)
        from_conll = load_corpus(pc)
        for a, b in zip(from_json, from_conll):
            assert a.tokens == b.tokens
            assert a.class_label == b.class_label
            assert sorted(s.key() for s in a.spans) == sorted(s.key() for s in b.spans)

    def test_malformed_jsonl_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = '{"id": "1", "text": "file", "tokens": ["file"], "label": "traffic", "spans": []}'
        path.write_text(good + "\nnot json\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert err.value.line == 2

    def test_overlapping_spans_rejected_at_load(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = (
            '{"id": "1", "text": "a b c", "tokens": ["a", "b", "c"], "label": "traffic",'
            ' "spans": [{"type": "what", "start": 0, "end": 2},'
            ' {"type": "where", "start": 1, "end": 3}]}'
        )
        path.write_text(record + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    @pytest.mark.parametrize("rows,line,fault", [
        (["file\tO", "vanmorgen\tI-when"], 6, "stray-I at token 1"),
        (["file\tB-what", "e40\tB-where", "centrum\tI-what"], 7, "type-mismatch-I at token 2"),
    ], ids=["stray-I", "type-mismatch-I"])
    def test_conll_bio_violation_rejected(self, tmp_path, capsys, rows, line, fault):
        # a valid sentence first, so the line number is not the header's
        text = "# label=traffic\nfile\tB-what\n\n# label=traffic\n" + "\n".join(rows) + "\n\n"
        path = tmp_path / "c.conll"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=fault) as err:
            load_corpus(path)
        assert err.value.line == line
        assert text.split("\n")[line - 1] == rows[-1]
        model = build_model("cnn", ModelConfig(embed_dim=4, cnn_filters=2), 1,
                            word_vocab=WordVocab(["file"]))
        checkpoint = tmp_path / "cnn.npz"
        save_checkpoint(model, checkpoint)
        assert main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(path)]) == 2
        assert f"line {line}: invalid tag sequence ({fault})" in capsys.readouterr().err

    @pytest.mark.parametrize("record,message", [
        (_record(text=None), "text must be a string, got NoneType"),
        (_record(id=[1]), "id must be a string or an int, got list"),
        (_record(id=True), "id must be a string or an int, got bool"),
        (_record(tokens=["file", None]), "tokens: token None cannot be written"),
        (_record(tokens=["file", 40]), "tokens: token 40 cannot be written"),
        (_record(tokens=["file", ""]), "tokens: token '' cannot be written"),
        (_record(tokens=["file", "e\t40"]), "tokens: token 'e\\t40' cannot be written"),
        (_record(tokens="xy"), "tokens must be a list, got str"),
        (_record(span={"start": 0.9}), "start must be an int, got float"),
        (_record(span={"start": "0"}), "start must be an int, got str"),
        (_record(span={"start": False}), "start must be an int, got bool"),
        (_record(spans={}), "spans must be a list, got dict"),
        (_record(label=1), "label must be a string, got int"),
        (_record(span={"type": 3}), "type must be a string, got int"),
        # the first line's id is "0", and an int id reads as its decimal string
        (_record(id=0), "duplicate tweet id '0' (first at line 1)"),
        # json.loads raises a plain ValueError past the int-string digit limit
        ('{"id": ' + "1" * 5000 + "}", "invalid JSON (Exceeds the limit (4300 digits)"),
        # and RecursionError, which is not a ValueError, on deep nesting
        ("[" * 100_000, "invalid JSON (maximum recursion depth exceeded"),
    ], ids=["null-text", "list-id", "bool-id", "null-token", "number-token", "empty-token",
            "tab-token", "string-tokens", "float-start", "string-start", "bool-start",
            "object-spans", "int-label", "int-span-type", "duplicate-id", "over-long-int",
            "deep-nesting"])
    def test_mistyped_jsonl_field_rejected(self, tmp_path, capsys, cnn_checkpoint,
                                           record, message):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps(_record(id="0")),
                 record if isinstance(record, str) else json.dumps(record)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert err.value.line == 2
        assert str(err.value).startswith(f"line 2: {message}")
        assert main(["eval", "--checkpoint", cnn_checkpoint, "--corpus", str(path)]) == 2
        assert f"line 2: {message}" in capsys.readouterr().err

    def test_int_id_loads_as_its_string(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(_record(id=7)) + "\n", encoding="utf-8")
        (tweet,) = load_corpus(path)
        assert tweet.id == "7"
        assert tweet == make_tweet("7", ["file", "e40"], spans=[SlotSpan("what", 0, 1)])

    @pytest.mark.parametrize("text,expected", [
        # a header straight after a token line ends the sentence before it
        ("# label=traffic\nfile\tB-what\n# label=non_traffic\nweer\tO\n",
         [("traffic", ("file",), [("what", 0, 1)]), ("non_traffic", ("weer",), [])]),
        ("# label=traffic\nfile\tB-what\n# label=traffic\nfile\tO\ne40\tI-where\n\n",
         (5, "invalid tag sequence (stray-I at token 1)")),
        # no trailing newline
        ("# label=traffic\nfile\tB-what\ne40\tB-where",
         [("traffic", ("file", "e40"), [("what", 0, 1), ("where", 1, 2)])]),
        ("# label=traffic\nfile\tO\ne40\tI-where",
         (3, "invalid tag sequence (stray-I at token 1)")),
        # CRLF line endings
        ("# label=traffic\r\nfile\tB-what\r\ne40\tI-what\r\n\r\n# label=non_traffic\r\nweer\tO\r\n",
         [("traffic", ("file", "e40"), [("what", 0, 2)]), ("non_traffic", ("weer",), [])]),
        ("# label=traffic\r\nfile\tO\r\n\r\n# label=traffic\r\nfile\tI-what\r\n",
         (5, "invalid tag sequence (stray-I at token 0)")),
        # a header without tokens
        ("# label=traffic\nfile\tO\n\n# label=traffic\n\n", (4, "sentence header without tokens")),
        ("# label=traffic\n# label=traffic\nfile\tO\n", (1, "sentence header without tokens")),
        ("# label=traffic", (1, "sentence header without tokens")),
        # a token line before any header
        ("file\tO\n", (1, "token line before any '# label=' header")),
        ("# label=traffic\nfile\tO\n\ne40\tO\n", (4, "token line before any '# label=' header")),
        # the tweet itself is checked at its header's line
        ("\n\n# label=\nfile\tO\n", (3, "tweet s00000: unknown class ''")),
        ("# label=traffic\nfile\tO\n\n# label=non_traffic\nfile\tB-what\n",
         (4, "tweet s00001: non_traffic tweet carries spans")),
    ], ids=["header-after-token", "header-after-token-fault", "no-final-newline",
            "no-final-newline-fault", "crlf", "crlf-fault", "header-without-tokens",
            "header-after-header", "lone-header", "token-first", "token-after-blank",
            "empty-label", "non-traffic-spans"])
    def test_conll_edge_cases(self, tmp_path, text, expected):
        path = tmp_path / "c.conll"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(expected, tuple):
            line, message = expected
            with pytest.raises(CorpusFormatError) as err:
                load_corpus(path)
            assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")
            return
        corpus = load_corpus(path)
        assert [(t.class_label, t.tokens, [s.key() for s in t.spans]) for t in corpus] == expected
        assert [t.id for t in corpus] == [f"s{i:05d}" for i in range(len(expected))]

    def test_conll_missing_tab(self, tmp_path):
        path = tmp_path / "c.conll"
        path.write_text("# label=traffic\nfile O\n\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert err.value.line == 2

    def test_conll_unknown_tag(self, tmp_path):
        path = tmp_path / "c.conll"
        path.write_text("# label=traffic\nfile\tB-bogus\n\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_conll_encodes_exact_tag_strings(self, tmp_path):
        tweet = make_tweet("1", ["om", "8u", "file"], TRAFFIC,
                           [SlotSpan("when", 0, 2), SlotSpan("what", 2, 3)])
        path = tmp_path / "c.conll"
        save_corpus(Corpus("c", (tweet,)), path)
        body = path.read_text(encoding="utf-8")
        assert "om\tB-when\n8u\tI-when\nfile\tB-what\n" in body
        assert bio.TAGS == (
            "O", "B-when", "I-when", "B-where", "I-where",
            "B-what", "I-what", "B-consequence", "I-consequence",
        )
