"""Scoring: cosine ranking of the true translation against distractors.

An instance scores a success iff the source embedding is strictly more
similar to the target than to every distractor; any tie is a failure, so
aggregate precision can never be inflated by degenerate embedders. The rank
counts tied distractors ahead of the target for the same reason.

Pivot evaluation reuses the same scorer on datasets whose six sentences have
been machine-translated into one pivot language; pivot results keep the
original instance id so direct and pivot reports join trivially.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .providers import Embedder, EmbeddingVector, Translator
from .records import ClsdInstance, Sentence, _write_atomic_text

MODE_DIRECT = "direct"
MODE_PIVOT = "pivot"


def cosine(u: EmbeddingVector | np.ndarray, v: EmbeddingVector | np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against float overshoot."""
    a = u.values if isinstance(u, EmbeddingVector) else np.asarray(u, dtype=np.float64)
    b = v.values if isinstance(v, EmbeddingVector) else np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise DataError("cosine requires 1-d vectors")
    if a.size != b.size:
        raise DataError(f"dimension mismatch: {a.size} vs {b.size}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise DataError("cosine undefined for zero vector")
    value = float(np.dot(a, b) / (norm_a * norm_b))
    return max(-1.0, min(1.0, value))


@dataclass(frozen=True)
class InstanceResult:
    """Similarities and rank for one instance.

    Producers guarantee ``success`` iff sim_target strictly exceeds every
    distractor similarity, and ``rank_of_target = 1 + |{d : sim_d >=
    sim_target}|``; reloaded reports carry values rounded to 6 decimals, so
    only structural bounds are re-checked here.
    """

    instance_id: str
    sim_target: float
    sim_distractors: tuple[float, float, float, float]
    rank_of_target: int
    success: bool

    def __post_init__(self) -> None:
        if len(self.sim_distractors) != 4:
            raise DataError("sim_distractors must have exactly 4 entries")
        if not (1 <= self.rank_of_target <= 5):
            raise DataError("rank_of_target must be in 1..5")


@dataclass(frozen=True)
class EvalReport:
    dataset_id: str
    backend_id: str
    model_id: str
    mode: str
    n: int
    p_at_1: float
    results: tuple[InstanceResult, ...]

    def __post_init__(self) -> None:
        if self.mode not in (MODE_DIRECT, MODE_PIVOT):
            raise DataError(f"mode must be direct or pivot, got {self.mode!r}")
        if self.n != len(self.results) or self.n < 1:
            raise DataError("n must equal the number of results and be >= 1")
        expected = sum(r.success for r in self.results) / self.n
        # 6-decimal file rounding bounds the drift a stored p_at_1 may carry
        if abs(self.p_at_1 - expected) > 5e-7:
            raise DataError("p_at_1 does not equal the success fraction")

    @property
    def success_ids(self) -> frozenset[str]:
        return frozenset(r.instance_id for r in self.results if r.success)


def _candidate_texts(instance: ClsdInstance) -> list[str]:
    return [instance.source.text, instance.target.text] + [
        d.text for d in instance.distractors
    ]


def _result_from_sims(
    instance_id: str, sim_target: float, sim_distractors: Sequence[float]
) -> InstanceResult:
    dist = tuple(float(s) for s in sim_distractors)
    rank = 1 + sum(s >= sim_target for s in dist)
    return InstanceResult(
        instance_id=instance_id,
        sim_target=float(sim_target),
        sim_distractors=dist,  # type: ignore[arg-type]
        rank_of_target=rank,
        success=all(sim_target > s for s in dist),
    )


def evaluate(
    embedder: Embedder,
    dataset: Sequence[ClsdInstance],
    dataset_id: str = "dataset",
) -> EvalReport:
    """Score every instance, ties failing; all embeddings are fetched in one batch."""
    if not dataset:
        raise DataError("evaluate requires a non-empty dataset")
    kinds = {inst.pivot_lang is None for inst in dataset}
    if len(kinds) != 1:
        raise DataError("dataset mixes direct and pivot instances")
    mode = MODE_DIRECT if kinds.pop() else MODE_PIVOT

    unique_texts = list(
        dict.fromkeys(t for inst in dataset for t in _candidate_texts(inst))
    )
    by_text = dict(zip(unique_texts, embedder.embed(unique_texts)))

    results = []
    for inst in dataset:
        texts = _candidate_texts(inst)
        source = by_text[texts[0]]
        sims = [cosine(source, by_text[t]) for t in texts[1:]]
        results.append(_result_from_sims(inst.id, sims[0], sims[1:]))

    return EvalReport(
        dataset_id=dataset_id,
        backend_id=embedder.backend_id,
        model_id=embedder.model_id,
        mode=mode,
        n=len(results),
        p_at_1=sum(r.success for r in results) / len(results),
        results=tuple(results),
    )


def save_eval_report(report: EvalReport, path: str | Path) -> None:
    """Write a report as JSON with reals rounded to 6 decimals."""
    payload = {
        "dataset_id": report.dataset_id,
        "backend_id": report.backend_id,
        "model_id": report.model_id,
        "mode": report.mode,
        "n": report.n,
        "p_at_1": round(report.p_at_1, 6),
        "results": [
            {
                "id": r.instance_id,
                "sim_target": round(r.sim_target, 6),
                "sim_distractors": [round(s, 6) for s in r.sim_distractors],
                "rank_of_target": r.rank_of_target,
                "success": r.success,
            }
            for r in report.results
        ],
    }
    _write_atomic_text(
        Path(path), json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    )


def load_eval_report(path: str | Path) -> EvalReport:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    try:
        results = tuple(
            InstanceResult(
                instance_id=entry["id"],
                sim_target=float(entry["sim_target"]),
                sim_distractors=tuple(float(s) for s in entry["sim_distractors"]),
                rank_of_target=int(entry["rank_of_target"]),
                success=bool(entry["success"]),
            )
            for entry in payload["results"]
        )
        return EvalReport(
            dataset_id=payload["dataset_id"],
            backend_id=payload["backend_id"],
            model_id=payload["model_id"],
            mode=payload["mode"],
            n=int(payload["n"]),
            p_at_1=float(payload["p_at_1"]),
            results=results,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed eval report: {exc}") from exc


def pivot_dataset(
    dataset: Sequence[ClsdInstance],
    translator: Translator,
    pivot_lang: str,
) -> tuple[list[ClsdInstance], list[tuple[str, str]]]:
    """Translate all six sentences of each instance into ``pivot_lang``.

    Translation runs per instance, batched per source language (one call for
    the source, one for the five target-language candidates), so a failure
    is attributable: the instance is skipped and logged, never half-built.
    Pivot instances keep the original id and carry no meta.
    Returns (pivot instances, [(instance_id, reason), ...] for skips).
    """
    if not dataset:
        return [], []
    src_lang = dataset[0].source.lang
    tgt_lang = dataset[0].target.lang
    if pivot_lang in (src_lang, tgt_lang):
        raise DataError(
            f"pivot language {pivot_lang!r} must differ from both dataset languages"
        )
    out: list[ClsdInstance] = []
    skipped: list[tuple[str, str]] = []
    for inst in dataset:
        candidates = [inst.target.text] + [d.text for d in inst.distractors]
        try:
            (source_text,) = translator([inst.source.text], inst.source.lang, pivot_lang)
            translated = translator(candidates, inst.target.lang, pivot_lang)
            if len(translated) != len(candidates):
                raise DataError(
                    f"count mismatch: sent {len(candidates)}, got {len(translated)}"
                )
        except Exception as exc:  # skip, never abort the whole run
            skipped.append((inst.id, str(exc)))
            continue
        out.append(
            ClsdInstance(
                id=inst.id,
                source=Sentence(text=source_text, lang=pivot_lang),
                target=Sentence(text=translated[0], lang=pivot_lang),
                distractors=tuple(
                    Sentence(text=t, lang=pivot_lang) for t in translated[1:]
                ),
                pivot_lang=pivot_lang,
            )
        )
    return out, skipped


def disagreement(a: EvalReport, b: EvalReport) -> tuple[list[str], list[str]]:
    """Instance ids succeeding in exactly one of two reports, both sorted."""
    ids_a = {r.instance_id for r in a.results}
    ids_b = {r.instance_id for r in b.results}
    if ids_a != ids_b:
        raise DataError("reports cover different instances")
    only_a = sorted(a.success_ids - b.success_ids)
    only_b = sorted(b.success_ids - a.success_ids)
    return only_a, only_b
