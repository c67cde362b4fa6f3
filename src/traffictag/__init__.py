"""Traffic-event detection on tweets: binary classification plus BIO slot filling.

The package provides a corpus model with synthetic data generation, a BIO
span codec, a small float64 autodiff core, a linear-chain CRF, independent
and joint classifier/tagger architectures, exact evaluation metrics, and a
reproducible command-line experiment harness.
"""

from .corpus import (
    CLASS_LABELS,
    NON_TRAFFIC,
    SLOT_TYPES,
    TRAFFIC,
    Corpus,
    CorpusError,
    GeneratorConfig,
    SlotSpan,
    Tweet,
    generate_synthetic,
    load_corpus,
    normalize_tweet,
    save_corpus,
    split_corpus,
)

__all__ = [
    "CLASS_LABELS",
    "NON_TRAFFIC",
    "SLOT_TYPES",
    "TRAFFIC",
    "Corpus",
    "CorpusError",
    "GeneratorConfig",
    "SlotSpan",
    "Tweet",
    "generate_synthetic",
    "load_corpus",
    "normalize_tweet",
    "save_corpus",
    "split_corpus",
]

__version__ = "0.1.0"
