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

from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ClsdError, DataError
from .providers import Embedder, ServiceTranslator, _ordered_map
from .records import ClsdInstance, Sentence, _read_json, _write_json
from .records import _get, _int, _is_real, _real, _str

MODE_DIRECT = "direct"
MODE_PIVOT = "pivot"


def _cosines(rows: dict) -> Callable[..., float]:
    """Cosine of ``rows[a]`` and ``rows[b]``, clamped to [-1, 1] against float overshoot.

    Each row's norm is computed once. Each pair stays one ``np.dot`` of two
    rows: a batched product such as ``einsum`` or ``M @ v`` can round
    differently in the last bit, and the strict ``>`` tie rule sees
    unrounded values.
    """
    norms = {key: float(np.linalg.norm(row)) for key, row in rows.items()}
    if 0.0 in norms.values():
        raise DataError("cosine undefined for zero vector")

    def sim(a, b) -> float:
        return max(-1.0, min(1.0, float(np.dot(rows[a], rows[b]) / (norms[a] * norms[b]))))

    return sim


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two 1-d vectors, clamped to [-1, 1]."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise DataError("cosine requires 1-d vectors")
    if a.size != b.size:
        raise DataError(f"dimension mismatch: {a.size} vs {b.size}")
    return _cosines({0: a, 1: b})(0, 1)


def _similarity(embedder: Embedder, texts: Iterable[str]) -> Callable[[str, str], float]:
    """:func:`cosine` between any two of ``texts``, each unique text embedded once."""
    unique = list(dict.fromkeys(texts))
    return _cosines(dict(zip(unique, embedder.embed(unique))))


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

    sim = _similarity(embedder, (t for inst in dataset for t in _candidate_texts(inst)))
    results = []
    for inst in dataset:
        source, *candidates = _candidate_texts(inst)
        sims = [sim(source, t) for t in candidates]
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
    _write_json(path, payload)


def _result_from_obj(entry: dict, ctx: str) -> InstanceResult:
    sims = _get(entry, "sim_distractors", ctx)
    if not isinstance(sims, list) or not all(_is_real(s) for s in sims):
        raise DataError(f"{ctx}: key 'sim_distractors' is not a list of finite numbers")
    success = _get(entry, "success", ctx)
    if not isinstance(success, bool):
        raise DataError(f"{ctx}: key 'success' is not a boolean")
    return InstanceResult(
        instance_id=_str(entry, "id", ctx),
        sim_target=_real(entry, "sim_target", ctx),
        sim_distractors=tuple(float(s) for s in sims),
        rank_of_target=_int(entry, "rank_of_target", ctx),
        success=success,
    )


def load_eval_report(path: str | Path) -> EvalReport:
    """Load a report; a missing, mistyped or non-finite value raises
    :class:`DataError` naming the file and the key."""
    payload = _read_json(path)
    ctx = f"{path}: malformed eval report"
    if not isinstance(payload, dict):
        raise DataError(f"{ctx}: not a JSON object")
    entries = _get(payload, "results", ctx)
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise DataError(f"{ctx}: key 'results' is not a list of objects")
    return EvalReport(
        dataset_id=_str(payload, "dataset_id", ctx),
        backend_id=_str(payload, "backend_id", ctx),
        model_id=_str(payload, "model_id", ctx),
        mode=_str(payload, "mode", ctx),
        n=_int(payload, "n", ctx),
        p_at_1=_real(payload, "p_at_1", ctx),
        results=tuple(
            _result_from_obj(entry, f"{ctx}: results[{i}]") for i, entry in enumerate(entries)
        ),
    )


def _pivot_group(
    group: Sequence[ClsdInstance], translator: ServiceTranslator, pivot_lang: str
) -> list[ClsdInstance]:
    """Pivot instances that share one language pair: one translator call for
    their sources, one for their candidates (target, then distractors)."""
    sources = [inst.source.text for inst in group]
    candidates = [t for inst in group for t in _candidate_texts(inst)[1:]]
    translated_sources = translator(sources, group[0].source.lang, pivot_lang)
    translated = translator(candidates, group[0].target.lang, pivot_lang)
    out = []
    for i, inst in enumerate(group):
        texts = [translated_sources[i], *translated[5 * i : 5 * i + 5]]
        sentences = [Sentence(text=t, lang=pivot_lang) for t in texts]
        out.append(
            ClsdInstance(
                id=inst.id,
                source=sentences[0],
                target=sentences[1],
                distractors=tuple(sentences[2:]),
                pivot_lang=pivot_lang,
            )
        )
    return out


def pivot_dataset(
    dataset: Sequence[ClsdInstance],
    translator: ServiceTranslator,
    pivot_lang: str,
) -> tuple[list[ClsdInstance], list[tuple[str, str]]]:
    """Translate all six sentences of each instance into ``pivot_lang``.

    Consecutive instances that share a language pair are translated in
    groups of at most ``max(1, max_batch // 5)``: one call for the group's
    sources and one for its five candidates each, so the candidates fit one
    request. Up to ``max_inflight`` groups are in flight at once. Both
    settings come from ``translator.cfg`` (see
    :func:`~clsd.providers.make_translator`). When a group fails with a
    :class:`ClsdError` (a provider failure, such as a wrong count, or an
    invalid instance), its instances are translated again one by one, so
    each failure is attributable: the instance is skipped with its own
    reason, never half-built. Any other exception propagates. Output keeps
    dataset order. Pivot instances keep the original id and carry no meta.
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
    size = max(1, translator.cfg.max_batch // 5)
    groups: list[list[ClsdInstance]] = []
    for _, run in groupby(dataset, key=lambda inst: (inst.source.lang, inst.target.lang)):
        run = list(run)
        groups += [run[i : i + size] for i in range(0, len(run), size)]

    def attempt(group: list[ClsdInstance]) -> list[ClsdInstance | str]:
        """The group's pivot instances, or each instance's own skip reason."""
        try:
            return _pivot_group(group, translator, pivot_lang)
        except ClsdError as exc:
            if len(group) == 1:
                return [str(exc)]
        outcomes: list[ClsdInstance | str] = []
        for inst in group:
            try:
                outcomes.extend(_pivot_group([inst], translator, pivot_lang))
            except ClsdError as exc:  # skip, never abort the whole run
                outcomes.append(str(exc))
        return outcomes

    results = _ordered_map(attempt, groups, translator.cfg.max_inflight)
    out: list[ClsdInstance] = []
    skipped: list[tuple[str, str]] = []
    for group, outcomes in zip(groups, results):
        for inst, outcome in zip(group, outcomes):
            if isinstance(outcome, str):
                skipped.append((inst.id, outcome))
            else:
                out.append(outcome)
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
