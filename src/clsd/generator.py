"""Dataset construction: prompt an LLM for adversarial distractors per pair.

For each parallel pair the chat model is asked, in the target language, for
four numbered sentences that look like the target but mean something else.
Responses are parsed strictly; a pair is retried on parse failure or when a
distractor equals the target verbatim, and skipped (never fabricated) once
retries are exhausted. Output order equals corpus order regardless of request
concurrency, so runs with a scripted provider are byte-reproducible.
"""

from __future__ import annotations

import re
import time
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, ProviderError
from .providers import ChatParams, ProviderConfig, Transport, chat_complete
from .providers import _ordered_map, _PermanentProviderError
from .records import ClsdInstance, ParallelPair, Sentence
from .textmetrics import (
    SCHEME_SET,
    intra_distractor_jaccard,
    jaccard_similarity,
    single_token_diff,
    tokenize,
)

# The generation request wording is frozen data: changing it changes the
# dataset distribution, so any edit must come with a new prompt_version.
PROMPT_TEMPLATE = (
    "Can you provide me with four tricky sentences (numbered) that look "
    "structurally and lexically similar but don't have the same meaning. "
    "The sentences should be within similar topics and share commonalities "
    "with the original. Answer in {language}!\n{sentence}"
)

DEFAULT_PROMPT_VERSION = "v1"

DEFAULT_LANGUAGE_NAMES = {
    "de": "German",
    "en": "English",
    "fr": "French",
}

_ITEM_RE = re.compile(r"^\s*([1-4])[.)]\s*(.+?)\s*$", re.MULTILINE)

_QUOTE_PAIRS = [
    ('"', '"'),
    ("'", "'"),
    ("“", "”"),  # curly double
    ("„", "“"),  # German low-high
    ("«", "»"),  # guillemets
    ("‘", "’"),  # curly single
]


@dataclass(frozen=True)
class GenerationConfig:
    chat: ProviderConfig
    params: ChatParams = ChatParams()
    max_retries: int = 2
    prompt_version: str = DEFAULT_PROMPT_VERSION
    language_name_map: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_LANGUAGE_NAMES)
    )

    def __post_init__(self) -> None:
        if self.chat.kind != "chat":
            raise DataError("generation requires a chat provider config")
        if self.max_retries < 0:
            raise DataError("max_retries must be >= 0")
        if not self.prompt_version:
            raise DataError("prompt_version must be non-empty")


def build_prompt(target: Sentence, cfg: GenerationConfig) -> list[dict]:
    """Single user message asking for distractors in the target language."""
    name = cfg.language_name_map.get(target.lang)
    if name is None:
        raise DataError(f"no display name configured for language {target.lang!r}")
    content = PROMPT_TEMPLATE.format(language=name, sentence=target.text)
    return [{"role": "user", "content": content}]


def _strip_quotes(text: str) -> str:
    while len(text) >= 2:
        for opener, closer in _QUOTE_PAIRS:
            if text.startswith(opener) and text.endswith(closer):
                text = text[len(opener) : -len(closer)].strip()
                break
        else:
            return text
    return text


def parse_distractors(response: str) -> list[str]:
    """Extract the four numbered items, in numeric order.

    Accepts ``1.`` and ``1)`` delimiters and strips surrounding quotes.
    Raises on missing numbers, duplicates, or empty item text.
    """
    found: dict[int, str] = {}
    for match in _ITEM_RE.finditer(response):
        number = int(match.group(1))
        if number in found:
            raise DataError(f"duplicate item number {number}")
        text = _strip_quotes(match.group(2).strip())
        if not text:
            raise DataError(f"empty item text for number {number}")
        found[number] = text
    if len(found) != 4:
        raise DataError(f"expected 4 items, found {len(found)}")
    return [found[n] for n in (1, 2, 3, 4)]


def generate_instance(
    pair: ParallelPair,
    cfg: GenerationConfig,
    transport: Transport | None = None,
) -> tuple[ClsdInstance, int]:
    """Generate one instance; returns (instance, attempts used).

    A response is rejected, and the request retried, when parsing fails or
    any parsed distractor equals the target verbatim. After
    ``max_retries + 1`` attempts the pair is given up with an error; callers
    decide whether that skips the pair or aborts the run. A provider failure
    that no retry can fix, such as a malformed replay file, is raised at once.
    """
    messages = build_prompt(pair.target, cfg)
    attempts = cfg.max_retries + 1
    last_reason = ""
    for attempt in range(1, attempts + 1):
        try:
            response = chat_complete(cfg.chat, messages, cfg.params, transport=transport)
            texts = parse_distractors(response)
        except _PermanentProviderError:
            raise  # another sample cannot fix it; the caller logs its reason
        except (DataError, ProviderError) as exc:
            last_reason = str(exc)
            continue
        if any(t.strip() == pair.target.text for t in texts):
            last_reason = "distractor equals target"
            continue
        instance = ClsdInstance(
            id=pair.id,
            source=pair.source,
            target=pair.target,
            distractors=tuple(
                Sentence(text=t, lang=pair.target.lang) for t in texts
            ),
            meta={
                "model": cfg.chat.model_id,
                "prompt_version": cfg.prompt_version,
            },
        )
        return instance, attempt
    raise ProviderError(
        f"pair {pair.id}: exhausted retries ({attempts} attempts: {last_reason})"
    )


@dataclass(frozen=True)
class GenerationLogEntry:
    """One run-log record per corpus pair."""

    pair_id: str
    outcome: str  # "ok" | "skipped"
    attempts: int
    latency_ms: float
    message: str = ""


def generate_dataset(
    corpus: Sequence[ParallelPair],
    cfg: GenerationConfig,
    transport: Transport | None = None,
) -> tuple[list[ClsdInstance], list[GenerationLogEntry]]:
    """Generate instances for a whole corpus; failures skip, never abort.

    Returns instances in corpus order plus one log entry per pair, so
    ``len(instances) + number of skipped entries == len(corpus)``.
    Generation draws no local randomness.
    """

    def run_one(pair: ParallelPair) -> tuple[ClsdInstance | None, GenerationLogEntry]:
        start = time.perf_counter()
        try:
            instance, attempts = generate_instance(pair, cfg, transport=transport)
        except (DataError, ProviderError) as exc:
            latency = (time.perf_counter() - start) * 1000.0
            entry = GenerationLogEntry(
                pair_id=pair.id,
                outcome="skipped",
                attempts=1 if isinstance(exc, _PermanentProviderError) else cfg.max_retries + 1,
                latency_ms=latency,
                message=f"pair {pair.id}: exhausted retries"
                if "exhausted retries" in str(exc)
                else str(exc),
            )
            return None, entry
        latency = (time.perf_counter() - start) * 1000.0
        entry = GenerationLogEntry(
            pair_id=pair.id, outcome="ok", attempts=attempts, latency_ms=latency
        )
        return instance, entry

    outcomes = _ordered_map(run_one, corpus, cfg.chat.max_inflight)
    instances = [inst for inst, _ in outcomes if inst is not None]
    log = [entry for _, entry in outcomes]
    return instances, log


@dataclass(frozen=True)
class StatsReport:
    """Word-overlap statistics over a generated dataset."""

    n_instances: int
    n_distractors: int
    jaccard_mean: float
    jaccard_std: float
    single_diff_count: dict[str, int]
    intra_jaccard_mean: float

    def __post_init__(self) -> None:
        if self.n_distractors != 4 * self.n_instances:
            raise DataError("n_distractors must equal 4 * n_instances")
        if not (0.0 <= self.jaccard_mean <= 1.0) or self.jaccard_std < 0.0:
            raise DataError("jaccard summary out of range")

    def to_json(self) -> dict:
        return {
            **asdict(self),
            "single_diff_count": dict(sorted(self.single_diff_count.items())),
        }


def dataset_stats(instances: Sequence[ClsdInstance]) -> StatsReport:
    """Target-vs-distractor Jaccard moments and single-token-swap counts.

    The spread is the population standard deviation over all 4n
    target-distractor Jaccard values.
    """
    if not instances:
        raise DataError("dataset_stats requires a non-empty dataset")
    jaccards: list[float] = []
    intra: list[float] = []
    diff_counts: dict[str, int] = {}
    for inst in instances:
        target_tokens = tokenize(inst.target.text, SCHEME_SET)
        for d in inst.distractors:
            jaccards.append(
                jaccard_similarity(target_tokens, tokenize(d.text, SCHEME_SET))
            )
            if single_token_diff(inst.target, d) is not None:
                diff_counts[inst.target.lang] = diff_counts.get(inst.target.lang, 0) + 1
        intra.extend(intra_distractor_jaccard(inst.distractors))
    values = np.asarray(jaccards, dtype=np.float64)
    return StatsReport(
        n_instances=len(instances),
        n_distractors=len(jaccards),
        jaccard_mean=float(values.mean()),
        jaccard_std=float(values.std()),
        single_diff_count=diff_counts,
        intra_jaccard_mean=float(np.mean(intra)),
    )
