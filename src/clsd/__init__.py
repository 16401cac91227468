"""Cross-lingual semantic discrimination benchmarks.

Build evaluation datasets from parallel corpora by asking an LLM for
adversarial same-language distractors, score embedding backends by how often
they rank the true translation above all distractors (Precision@1, direct or
via a pivot translation), and analyze where backends fail: normalized
similarity shifts for single-token swaps grouped by part of speech, and the
edit-similarity distribution of distractors that fooled a backend.

Modules
-------
records      record types and line-delimited dataset IO
textmetrics  tokenization, edit distance, Jaccard, token-swap detection, binning
providers    embedding/chat/translation clients, lexical baseline, cache
generator    prompt construction, response parsing, dataset building, stats
evaluator    cosine ranking, Precision@1, pivot datasets, report comparison
analysis     normalization factor, similarity shifts, success distributions
cli          the ``clsd`` command-line pipeline
"""

try:
    from importlib import metadata as _metadata

    __version__ = _metadata.version("clsd")
except Exception:  # not installed; running from a checkout
    __version__ = "0.0.0-dev"
