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

from .errors import ClsdError, DataError, ProviderError
from .records import (
    ClsdInstance,
    DiffAnnotation,
    ParallelPair,
    Sentence,
    ValidationReport,
    load_annotations,
    load_clsd_dataset,
    load_parallel_corpus,
    save_annotations,
    save_clsd_dataset,
    save_parallel_corpus,
    validate_dataset,
)
from .textmetrics import (
    BinTable,
    DiffRecord,
    TokenSeq,
    bin_by_similarity,
    intra_distractor_jaccard,
    jaccard_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    single_token_diff,
    tokenize,
)
from .providers import (
    ChatParams,
    EmbeddingCache,
    EmbeddingVector,
    LexicalEmbedder,
    ProviderConfig,
    ServiceEmbedder,
    chat_complete,
    embed_batch,
    lexical_embed,
    translate_batch,
)
from .generator import (
    GenerationConfig,
    StatsReport,
    build_prompt,
    dataset_stats,
    generate_dataset,
    generate_instance,
    parse_distractors,
)
from .evaluator import (
    EvalReport,
    InstanceResult,
    cosine,
    disagreement,
    evaluate,
    load_eval_report,
    pivot_dataset,
    save_eval_report,
)
from .analysis import (
    NormalizationFactor,
    ShiftRecord,
    ShiftTable,
    SuccessDistributionTable,
    cross_shift,
    load_normalization,
    mono_cross_correlation,
    mono_shift,
    normalization_factor,
    save_normalization,
    shift_analysis,
    success_distribution,
)

try:
    from importlib import metadata as _metadata

    __version__ = _metadata.version("clsd")
except Exception:
    __version__ = "0.0.0-dev"

__all__ = [
    "ClsdError",
    "DataError",
    "ProviderError",
    "Sentence",
    "ParallelPair",
    "ClsdInstance",
    "DiffAnnotation",
    "ValidationReport",
    "load_parallel_corpus",
    "save_parallel_corpus",
    "load_clsd_dataset",
    "save_clsd_dataset",
    "load_annotations",
    "save_annotations",
    "validate_dataset",
    "TokenSeq",
    "DiffRecord",
    "BinTable",
    "tokenize",
    "levenshtein_distance",
    "levenshtein_similarity",
    "jaccard_similarity",
    "intra_distractor_jaccard",
    "single_token_diff",
    "bin_by_similarity",
    "EmbeddingVector",
    "ProviderConfig",
    "ChatParams",
    "EmbeddingCache",
    "LexicalEmbedder",
    "ServiceEmbedder",
    "embed_batch",
    "lexical_embed",
    "chat_complete",
    "translate_batch",
    "GenerationConfig",
    "StatsReport",
    "build_prompt",
    "parse_distractors",
    "generate_instance",
    "generate_dataset",
    "dataset_stats",
    "InstanceResult",
    "EvalReport",
    "cosine",
    "evaluate",
    "save_eval_report",
    "load_eval_report",
    "pivot_dataset",
    "disagreement",
    "NormalizationFactor",
    "ShiftRecord",
    "ShiftTable",
    "SuccessDistributionTable",
    "normalization_factor",
    "save_normalization",
    "load_normalization",
    "cross_shift",
    "mono_shift",
    "shift_analysis",
    "mono_cross_correlation",
    "success_distribution",
]
