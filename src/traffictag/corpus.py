"""Corpus model for traffic tweets: normalization, splits, synthetic data, file IO.

A corpus is an immutable collection of tweets. Each tweet carries its raw
text, a normalized token sequence, a binary class label (traffic or
non_traffic), and zero or more typed slot spans over the tokens. Slot spans
answer the four fine-grained questions about a traffic event: when, where,
what, and consequence.

Two interchangeable file formats are supported:

* jsonl -- one object per line with fields ``id``, ``text``, ``tokens``,
  ``label`` and ``spans`` (a list of ``{"type", "start", "end"}``).
* conll -- per sentence: a header line ``# label=<class>``, one
  ``token<TAB>tag`` line per token, and a blank separator line.

Because no public corpus ships with this package, :func:`generate_synthetic`
builds deterministic template corpora with exact gold annotations, including
a region knob (BRU / BE) that controls cross-region vocabulary overlap for
transfer experiments.
"""

from __future__ import annotations

import json
import random
import re
import unicodedata
from bisect import bisect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

SLOT_TYPES = ("when", "where", "what", "consequence")

TRAFFIC = "traffic"
NON_TRAFFIC = "non_traffic"
CLASS_LABELS = (NON_TRAFFIC, TRAFFIC)  # index 1 = traffic


class CorpusError(ValueError):
    """Invalid corpus data or an impossible corpus operation."""


class DegenerateTweetError(CorpusError):
    """Nothing remains after normalization; callers must drop the tweet."""


class CorpusFormatError(CorpusError):
    """Malformed corpus file. Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def check_number(name: str, value, integer: bool = False, minimum: float | None = None) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an int (with
    ``integer``) or else an int or float, never a bool, and >= ``minimum``."""
    kinds, what = (int, "an int") if integer else ((int, float), "a number")
    bound = "" if minimum is None else f" >= {minimum}"
    if isinstance(value, bool) or not isinstance(value, kinds) or (bound and not value >= minimum):
        raise ValueError(f"{name} must be {what}{bound}, got {value!r}")


@dataclass(frozen=True)
class SlotSpan:
    """Half-open token span [start, end) of one slot type."""

    slot_type: str
    start: int
    end: int

    def __post_init__(self):
        if self.slot_type not in SLOT_TYPES:
            raise CorpusError(f"unknown slot type {self.slot_type!r}")
        if not (0 <= self.start < self.end):
            raise CorpusError(f"bad span bounds [{self.start}, {self.end})")

    def key(self) -> tuple[str, int, int]:
        return (self.slot_type, self.start, self.end)


def check_spans(spans: Sequence[SlotSpan], token_count: int, where: str = "spans") -> None:
    """Raise CorpusError unless spans are in-bounds and mutually disjoint."""
    for span in spans:
        if span.end > token_count:
            raise CorpusError(
                f"{where}: span {span.key()} exceeds token count {token_count}"
            )
    ordered = sorted(spans, key=lambda s: s.start)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start < prev.end:
            raise CorpusError(f"{where}: overlapping spans {prev.key()} and {cur.key()}")


@dataclass(frozen=True)
class Tweet:
    id: str
    raw_text: str
    tokens: tuple[str, ...]
    class_label: str
    spans: tuple[SlotSpan, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "spans", tuple(self.spans))
        if not self.tokens:
            raise CorpusError(f"tweet {self.id}: empty token sequence")
        if self.class_label not in CLASS_LABELS:
            raise CorpusError(f"tweet {self.id}: unknown class {self.class_label!r}")
        if self.class_label == NON_TRAFFIC and self.spans:
            raise CorpusError(f"tweet {self.id}: non_traffic tweet carries spans")
        check_spans(self.spans, len(self.tokens), where=f"tweet {self.id}")


@dataclass(frozen=True)
class Corpus:
    """Immutable tweet collection. Equality compares tweets only; the name
    and provenance are labels, not content."""

    name: str = field(compare=False)
    tweets: tuple[Tweet, ...] = ()
    provenance: str = field(default="loaded", compare=False)  # loaded | synthetic

    def __post_init__(self):
        object.__setattr__(self, "tweets", tuple(self.tweets))
        seen: set[str] = set()
        for tweet in self.tweets:
            if tweet.id in seen:
                raise CorpusError(f"duplicate tweet id {tweet.id!r}")
            seen.add(tweet.id)

    def __len__(self) -> int:
        return len(self.tweets)

    def __iter__(self) -> Iterator[Tweet]:
        return iter(self.tweets)


# ---------------------------------------------------------------------------
# Normalization and splitting
# ---------------------------------------------------------------------------

# scheme://anything or www.anything, dropped before tokenization. A scheme is
# sought only where a run of scheme characters starts, keeping the run's leading
# non-letters (group 1): the search stays linear on a long run without "://".
_URL_RE = re.compile(r"(?<![a-z0-9+.-])([0-9+.-]*)[a-z][a-z0-9+.-]*://\S+|www\.\S+", re.IGNORECASE)


class _PunctTable(dict):
    """``str.translate`` table: a punctuation code point (category P*) maps to
    " ch ", any other to itself. It keeps at most ``MAX`` code points, under
    0.7 MB, as they are first seen; later ones are classified on each use."""

    MAX = 4096

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        out = f" {ch} " if unicodedata.category(ch).startswith("P") else ch
        if len(self) < self.MAX:
            self[code] = out
        return out


_PUNCT_TABLE = _PunctTable()


def normalize_tweet(raw_text: str) -> list[str]:
    """Normalize raw tweet text into tokens.

    URLs are removed entirely, the remainder is lowercased and split on
    whitespace, and every punctuation character becomes its own token.
    Raises DegenerateTweetError when nothing survives.
    """
    tokens = _URL_RE.sub(r"\1 ", raw_text).lower().translate(_PUNCT_TABLE).split()
    if not tokens:
        raise DegenerateTweetError(f"nothing left after normalization: {raw_text!r}")
    return tokens


def split_corpus(corpus: Corpus, seed: int) -> tuple[Corpus, Corpus, Corpus]:
    """Deterministic seeded shuffle, then a 60/20/20 train/dev/test partition.

    Dev and test each get floor(n/5) tweets; the remainder goes to train.
    """
    n = len(corpus)
    if n < 5:
        raise CorpusError(f"corpus too small to split: {n} < 5")
    order = list(range(n))
    _Draws(seed).shuffle(order)
    k = n // 5
    parts = (order[: n - 2 * k], order[n - 2 * k : n - k], order[n - k :])
    return tuple(Corpus(f"{corpus.name}/{label}", tuple(corpus.tweets[i] for i in idx),
                        corpus.provenance) for label, idx in zip(("train", "dev", "test"), parts))


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

_FILLER = ("op", "de", "het", "aan", "ter", "hoogte", "van", "naar", "in", "tot")

_GENERAL = (
    "vandaag", "lekker", "weer", "voetbal", "concert", "koffie", "weekend",
    "muziek", "vakantie", "restaurant", "boek", "film", "leuk", "mooi",
    "zonnig", "regen", "wedstrijd", "nieuws", "feest", "foto", "winkel",
    "markt", "park", "zee", "strand",
)

_SHARED_SLOT_WORDS = {
    "when": (
        "vanmorgen", "vanavond", "vanmiddag", "vannacht", "morgen", "nu",
        "straks", "maandag", "dinsdag", "woensdag", "donderdag", "vrijdag",
        "zaterdag", "zondag", "spitsuur", "7u", "8u", "9u", "17u", "18u",
    ),
    "where": (
        "e40", "e17", "e19", "e313", "e314", "e411", "a12", "r0", "n16",
        "binnenring", "buitenring", "viaduct", "tunnel", "afrit", "oprit",
        "knooppunt", "brug", "kruispunt", "snelweg", "rotonde",
    ),
    "what": (
        "file", "ongeval", "botsing", "wegenwerken", "pechgeval", "controle",
        "betoging", "storing", "brand", "ijzel", "aanrijding", "defect",
        "signalisatie", "evenement", "ladingverlies", "hindernis",
        "wateroverlast", "mist", "sneeuw", "gladheid",
    ),
    "consequence": (
        "vertraging", "filevorming", "omleiding", "afgesloten", "versperd",
        "hinder", "stilstand", "wachttijd", "vertraagd", "dicht",
        "geblokkeerd", "opgelost", "aanschuiven", "stapvoets", "oponthoud",
        "gestremd", "onderbroken", "beperkt", "traag", "vrijgemaakt",
    ),
}

_REGION_SLOT_WORDS = {
    "BRU": {
        "when": ("ochtendspits", "avondspits", "middaguur", "schoolspits",
                 "marktdag", "koopzondag", "werkdag", "topdag"),
        "where": ("wetstraat", "koekelberg", "reyers", "montgomery", "schuman",
                  "anderlecht", "molenbeek", "vilvoorde", "zaventem",
                  "tervuren", "basiliek", "meiser"),
        "what": ("eurotop", "staatsbezoek", "tunnelsluiting", "zomerkermis",
                 "stoet", "wielerkoers", "straatfeest", "filmopname"),
        "consequence": ("tunneldosering", "pendelhinder", "metroadvies",
                        "parkeerverbod", "knip", "doseerlicht", "sluipverkeer",
                        "omrijden"),
    },
    "BE": {
        "when": ("nieuwjaar", "paasmaandag", "zomerspits", "bouwverlof",
                 "weekenddienst", "nachtwerk", "ochtenduur", "avonduur"),
        "where": ("gent", "antwerpen", "luik", "brugge", "hasselt", "leuven",
                  "namen", "kortrijk", "mechelen", "aalst", "oostende",
                  "genk"),
        "what": ("kettingbotsing", "zoutactie", "bermbrand", "oliespoor",
                 "spookrijder", "dierenoversteek", "stormschade", "treinstaking"),
        "consequence": ("bergingswerk", "wegdekherstel", "rijstrookverlies",
                        "snelheidsbeperking", "inhaalverbod", "afgekoppeld",
                        "vertramd", "uitgeweken"),
    },
}

# continuation words inside a span, distinct per type and never span heads
_SPAN_TAILS = {
    "when": ("vroeg", "laat"),
    "where": ("centrum", "buiten"),
    "what": ("zwaar", "licht"),
    "consequence": ("beide", "richtingen"),
}

# fraction of traffic tweets carrying each slot type
_SLOT_RATES = {"where": 0.98, "what": 0.95, "when": 0.95, "consequence": 0.73}


@dataclass(frozen=True)
class GeneratorConfig:
    size: int
    traffic_fraction: float = 0.5
    region: str = "BRU"  # BRU | BE
    shared_vocab_fraction: float = 0.7
    pool_size: int = 20
    name: str | None = None

    def __post_init__(self):
        check_number("size", self.size, integer=True)
        check_number("pool_size", self.pool_size, integer=True)
        check_number("traffic_fraction", self.traffic_fraction)
        check_number("shared_vocab_fraction", self.shared_vocab_fraction)
        if self.size < 1:
            raise CorpusError(f"corpus size must be >= 1, got {self.size}")
        if not 0.0 <= self.traffic_fraction <= 1.0:
            raise CorpusError(f"traffic_fraction outside [0, 1]: {self.traffic_fraction}")
        if not 0.0 <= self.shared_vocab_fraction <= 1.0:
            raise CorpusError(
                f"shared_vocab_fraction outside [0, 1]: {self.shared_vocab_fraction}"
            )
        if not isinstance(self.region, str) or self.region not in _REGION_SLOT_WORDS:
            raise CorpusError(f"unknown region {self.region!r} (expected BRU or BE)")
        if self.pool_size < 1:
            raise CorpusError(f"pool_size must be >= 1, got {self.pool_size}")


def _take(words: Sequence[str], n: int, pad_stem: str) -> list[str]:
    out = list(words[:n])
    i = 0
    while len(out) < n:
        out.append(f"{pad_stem}{i}")
        i += 1
    return out


def build_slot_pools(config: GeneratorConfig) -> dict[str, tuple[str, ...]]:
    """Per-slot head-word pools for one region.

    Each pool holds ``pool_size`` words, of which
    ``round(shared_vocab_fraction * pool_size)`` come from the region-agnostic
    list; the rest are region-specific. Two regions with the same config thus
    share exactly that fraction of every pool.
    """
    n_shared = min(round(config.shared_vocab_fraction * config.pool_size), config.pool_size)
    n_region = config.pool_size - n_shared
    region = config.region
    pools = {}
    for slot in SLOT_TYPES:
        shared = _take(_SHARED_SLOT_WORDS[slot], n_shared, f"{slot}x")
        extra = _take(_REGION_SLOT_WORDS[region][slot], n_region, f"{slot}{region.lower()}")
        pools[slot] = tuple(shared + extra)
    return pools


class _Draws:
    """CPython 3.10-3.12's ``random.Random`` samplers (``choice``, ``randint``,
    ``sample``, ``shuffle``, ``choices``), drawing only through one
    ``random.Random(seed)``'s ``getrandbits`` and ``random``. Python may change
    its samplers between versions but keeps those two streams, so a generated
    or split corpus depends on the seed alone."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.bits, self.random = rng.getrandbits, rng.random

    def below(self, n: int) -> int:
        """``randrange(n)``: n.bit_length() bits, redrawn while they are >= n."""
        k = n.bit_length()
        r = self.bits(k)
        while r >= n:
            r = self.bits(k)
        return r

    def choice(self, seq: Sequence):
        return seq[self.below(len(seq))]

    def shuffle(self, x: list) -> None:
        for i in range(len(x) - 1, 0, -1):
            j = self.below(i + 1)
            x[i], x[j] = x[j], x[i]

    def sample(self, pair: Sequence, k: int) -> list:
        """``sample(pair, k)`` of a 2-sequence, k in (1, 2)."""
        j = self.below(2)
        if k == 2:
            self.below(1)  # the second pick, from a pool of one
        return [pair[j], pair[1 - j]][:k]

    def span_length(self) -> int:  # choices((1, 2, 3), weights=(5, 3, 2))[0]
        return (1, 2, 3)[bisect((5, 8, 10), self.random() * 10.0, 0, 2)]


def _traffic_sentence(draw: _Draws, pools: dict[str, tuple[str, ...]]):
    present = [slot for slot in SLOT_TYPES if draw.random() < _SLOT_RATES[slot]] or ["what"]
    draw.shuffle(present)
    tokens = [draw.choice(_FILLER) for _ in range(draw.below(3))]
    spans: list[SlotSpan] = []
    for slot in present:
        length = draw.span_length()
        words = [draw.choice(pools[slot])]
        if length > 1:
            words.extend(draw.sample(_SPAN_TAILS[slot], length - 1))
        spans.append(SlotSpan(slot, len(tokens), len(tokens) + len(words)))
        tokens.extend(words)
        for _ in range(draw.below(3)):
            tokens.append(draw.choice(_FILLER))
    return tokens, tuple(spans)


def _non_traffic_sentence(draw: _Draws) -> list[str]:
    return [draw.choice(_FILLER) if draw.random() < 0.3 else draw.choice(_GENERAL)
            for _ in range(4 + draw.below(9))]


def generate_synthetic(config: GeneratorConfig, seed: int) -> Corpus:
    """Deterministic template corpus with exact gold labels and spans.

    Exactly ``round(size * traffic_fraction)`` tweets are traffic-class, in a
    seed-shuffled order. Identical (config, seed) pairs yield byte-identical
    corpora.
    """
    draw = _Draws(seed)
    pools = build_slot_pools(config)
    n_traffic = round(config.size * config.traffic_fraction)
    labels = [TRAFFIC] * n_traffic + [NON_TRAFFIC] * (config.size - n_traffic)
    draw.shuffle(labels)
    prefix = config.region.lower()
    tweets = []
    for i, label in enumerate(labels):
        if label == TRAFFIC:
            tokens, spans = _traffic_sentence(draw, pools)
        else:
            tokens, spans = _non_traffic_sentence(draw), ()
        tweets.append(Tweet(f"{prefix}-{i:05d}", " ".join(tokens), tuple(tokens), label, spans))
    name = config.name or f"synthetic-{prefix}"
    return Corpus(name=name, tweets=tuple(tweets), provenance="synthetic")


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------

FORMATS = ("jsonl", "conll")


def _infer_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in FORMATS:
            raise CorpusError(f"unknown corpus format {fmt!r}")
        return fmt
    suffix = path.suffix.lstrip(".").lower()
    if suffix in FORMATS:
        return suffix
    raise CorpusError(f"cannot infer corpus format from {path.name!r}; pass format=")


def save_corpus(corpus: Corpus, path: str | Path, fmt: str | None = None) -> None:
    path = Path(path)
    fmt = _infer_format(path, fmt)
    if fmt == "jsonl":
        text = "".join(jsonl_line(t, t.class_label, t.spans) for t in corpus)
    else:
        text = "".join(_tweet_to_conll_block(t) for t in corpus)
    path.write_text(text, encoding="utf-8", newline="\n")


def load_corpus(path: str | Path, fmt: str | None = None) -> Corpus:
    """Load a corpus file.

    A jsonl field of the wrong JSON type, or a conll tag sequence that breaks the
    BIO rule (an I- tag without a same-type B-/I- predecessor), is a
    CorpusFormatError at its line.
    """
    path = Path(path)
    fmt = _infer_format(path, fmt)
    if not path.exists():
        raise CorpusError(f"corpus file not found: {path}")
    lines = path.read_text(encoding="utf-8").split("\n")
    tweets = _parse_jsonl(lines) if fmt == "jsonl" else _parse_conll(lines)
    return Corpus(name=path.stem, tweets=tuple(tweets), provenance="loaded")


def jsonl_line(tweet: Tweet, label: str | None, spans: Sequence[SlotSpan]) -> str:
    """The jsonl record, newline included, of ``tweet`` with a label and spans:
    its own, or a model's prediction for it (no label without a classifier)."""
    spans = [{"type": s.slot_type, "start": s.start, "end": s.end} for s in spans]
    record = {"id": tweet.id, "text": tweet.raw_text, "tokens": list(tweet.tokens),
              "label": label, "spans": spans}
    return json.dumps(record, ensure_ascii=False) + "\n"


def _check_tokens(tokens, where: str) -> None:
    """Raise CorpusError unless every token is a non-empty string without a
    tab, CR or LF: a token that a conll line can hold."""
    for tok in tokens:
        if not isinstance(tok, str) or not tok or any(ch in tok for ch in "\t\n\r"):
            raise CorpusError(f"{where}: token {tok!r} cannot be written in conll format")


# JSON types of the jsonl fields that are not strings; a bool is never an int
_FIELD_TYPES = {"id": (str, int), "tokens": (list,), "spans": (list,), "start": (int,),
                "end": (int,)}
_TYPE_NAMES = {str: "a string", int: "an int", list: "a list"}


def read_field(record: object, key: str):
    """``record[key]`` unchanged if it has the field's JSON type, else a
    CorpusError naming the field. An int id is read as its decimal string."""
    if not isinstance(record, dict):
        raise CorpusError(f"expected an object with field {key!r}, got {type(record).__name__}")
    if key not in record:
        raise CorpusError(f"missing field {key!r}")
    value, types = record[key], _FIELD_TYPES.get(key, (str,))
    if isinstance(value, bool) or not isinstance(value, types):
        what = " or ".join(_TYPE_NAMES[t] for t in types)
        raise CorpusError(f"{key} must be {what}, got {type(value).__name__}")
    if key == "tokens":
        _check_tokens(value, key)
    return str(value) if key == "id" else value


def _parse_jsonl(lines: list[str]) -> list[Tweet]:
    tweets, first_line = [], {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too long an int, or too deep
            raise CorpusFormatError(f"invalid JSON ({getattr(exc, 'msg', exc)})", lineno) from exc
        try:
            values = [read_field(record, k) for k in ("id", "text", "tokens", "label")]
            spans = [SlotSpan(*(read_field(s, k) for k in ("type", "start", "end")))
                     for s in read_field(record, "spans")]
            tweets.append(Tweet(*values, spans))
        except CorpusError as exc:
            raise CorpusFormatError(str(exc), lineno) from exc
        first = first_line.setdefault(tweets[-1].id, lineno)
        if first != lineno:
            raise CorpusFormatError(
                f"duplicate tweet id {tweets[-1].id!r} (first at line {first})", lineno)
    return tweets


def _tweet_to_conll_block(tweet: Tweet) -> str:
    from . import bio  # deferred: bio depends on this module's types

    _check_tokens(tweet.tokens, f"tweet {tweet.id}")
    tags = bio.encode_spans(len(tweet.tokens), tweet.spans)
    rows = "".join(f"{tok}\t{tag}\n" for tok, tag in zip(tweet.tokens, tags))
    return f"# label={tweet.class_label}\n{rows}\n"


def _conll_tweet(index: int, label: str, tokens: list[str], tags: list[str],
                 header_line: int) -> Tweet:
    """The sentence whose header is at ``header_line``, as the index-th tweet."""
    from . import bio

    if not tokens:
        raise CorpusFormatError("sentence header without tokens", header_line)
    violations = bio.validate(tags)
    if violations:
        idx, desc = violations[0]
        raise CorpusFormatError(
            f"invalid tag sequence ({desc} at token {idx})", header_line + 1 + idx
        )
    try:
        return Tweet(f"s{index:05d}", " ".join(tokens), tuple(tokens), label,
                     tuple(bio.decode_tags(tags)))
    except CorpusError as exc:
        raise CorpusFormatError(str(exc), header_line) from exc


def _parse_conll(lines: list[str]) -> list[Tweet]:
    from . import bio

    tweets: list[Tweet] = []
    label, header_line, tokens, tags = None, 0, [], []
    # a blank or header line ends the pending sentence; the appended "" ends the last
    for lineno, line in enumerate(lines + [""], start=1):
        is_header = line.startswith("# label=")
        if is_header or not line.strip():
            if label is not None:
                tweets.append(_conll_tweet(len(tweets), label, tokens, tags, header_line))
            label, tokens, tags = None, [], []
            if is_header:
                label, header_line = line[len("# label=") :].strip(), lineno
            continue
        if "\t" not in line:
            raise CorpusFormatError(f"expected 'token<TAB>tag', got {line!r}", lineno)
        token, tag = line.split("\t", 1)
        if not token:
            raise CorpusFormatError("empty token field", lineno)
        tag = tag.strip()
        if tag not in bio.TAGS:
            raise CorpusFormatError(f"unknown tag {tag!r}", lineno)
        if label is None:
            raise CorpusFormatError("token line before any '# label=' header", lineno)
        tokens.append(token)
        tags.append(tag)
    return tweets
