"""Traffic-event detection on tweets: binary classification plus BIO slot filling.

The package provides a corpus model with synthetic data generation, a BIO
span codec, a small float64 autodiff core, a linear-chain CRF, independent
and joint classifier/tagger architectures, exact evaluation metrics, and a
reproducible command-line experiment harness.
"""
