"""Fine-grained analyses over scored datasets.

Three tools built on the same embedding layer:

* a normalization factor per (model, direction): mean parallel-pair cosine
  minus mean cosine over a seeded derangement of the same pairs, so shift
  values are comparable across embedding models with different similarity
  scales;
* normalized similarity shifts for single-token-swap distractors, grouped by
  the part of speech of the swapped token (plus the pooled "ANY" group),
  with cross-lingual and monolingual variants and their Pearson correlation;
* the distribution of successful distractors over edit-similarity bins,
  where a distractor succeeds iff its similarity to the source reaches the
  target's (the exact complement of the scorer's strict success rule).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .evaluator import EvalReport, _similarity
from .providers import Embedder
from .records import ClsdInstance, DiffAnnotation, Sentence, _load_json, _write_json
from .records import _context, _int, _is_str, _list, _real, _str
from .textmetrics import (
    DEFAULT_BIN_EDGES,
    bin_by_similarity,
    levenshtein_similarity,
    single_token_diff,
    validate_edges,
)

ANY_GROUP = "ANY"

_DEGENERATE_EPS = 1e-6


@dataclass(frozen=True)
class NormalizationFactor:
    """Mean parallel cosine minus mean unrelated cosine for one direction."""

    value: float
    model_id: str
    direction: tuple[str, str]
    n_parallel: int
    n_unrelated: int
    seed: int

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise DataError("degenerate normalization: value must be positive")
        if len(self.direction) != 2:
            raise DataError("direction must be a (src, tgt) pair")


def derangement(n: int, seed: int) -> np.ndarray:
    """Seeded permutation of range(n) with no fixed points (requires n >= 2)."""
    if n < 2:
        raise DataError("derangement requires n >= 2")
    perm = np.random.default_rng(seed).permutation(n)
    for i in range(n):
        # swapping a fixed point with its right neighbour (wrapping) cannot
        # create a new one: positions already visited hold values != index
        if perm[i] == i:
            j = (i + 1) % n
            perm[i], perm[j] = perm[j], perm[i]
    return perm


def normalization_factor(
    embedder: Embedder, pairs: Sequence, seed: int
) -> NormalizationFactor:
    """Estimate the parallel-vs-unrelated cosine gap over a corpus.

    Unrelated pairs come from a seeded derangement of the same corpus: each
    source is paired with a different pair's target, covering every sentence
    exactly once, reproducibly. A gap of at most 1e-6 means the embedder
    cannot distinguish parallel from unrelated and is an error.
    """
    if len(pairs) < 2:
        raise DataError("normalization_factor requires at least 2 pairs")
    directions = {(p.source.lang, p.target.lang) for p in pairs}
    if len(directions) != 1:
        raise DataError(f"pairs mix directions: {sorted(directions)}")

    sim = _similarity(embedder, (t for p in pairs for t in (p.source.text, p.target.text)))
    parallel = [sim(p.source.text, p.target.text) for p in pairs]
    perm = derangement(len(pairs), seed)
    unrelated = [sim(p.source.text, pairs[j].target.text) for p, j in zip(pairs, perm)]

    value = float(np.mean(parallel) - np.mean(unrelated))
    if value <= _DEGENERATE_EPS:
        raise DataError(
            f"degenerate normalization: parallel/unrelated gap {value:.2e} <= 1e-06"
        )
    return NormalizationFactor(
        value=value,
        model_id=embedder.model_id,
        direction=directions.pop(),
        n_parallel=len(pairs),
        n_unrelated=len(pairs),
        seed=seed,
    )


def save_normalization(norm: NormalizationFactor, path: str | Path) -> None:
    _write_json(path, asdict(norm))


def _norm_from_obj(payload: dict) -> NormalizationFactor:
    return NormalizationFactor(
        value=_real(payload, "value"),
        model_id=_str(payload, "model_id"),
        direction=tuple(_list(payload, "direction", _is_str, "two strings", n=2)),
        n_parallel=_int(payload, "n_parallel"),
        n_unrelated=_int(payload, "n_unrelated"),
        seed=_int(payload, "seed"),
    )


def load_normalization(path: str | Path) -> NormalizationFactor:
    """Load a norm file; a missing, mistyped or non-finite value, or a broken
    invariant, raises :class:`DataError` naming the file and the key."""
    return _load_json(path, "malformed normalization file", _norm_from_obj)


def normalized_shift(sim_pair: float, sim_distractor: float, value: float) -> float:
    """Core shift: similarity gained by the distractor, in gap units.

    Equals ((1 - sim_pair) - (1 - sim_distractor)) / value with the
    constant terms cancelled; negative iff the distractor is less similar.
    """
    if value <= 0:
        raise DataError("normalization value must be positive")
    return (sim_distractor - sim_pair) / value


def _shifts(sim, source: str, target: str, distractor: str, value: float) -> tuple[float, float]:
    """(cross, mono) shift of ``distractor`` under similarity ``sim``; mono needs no source."""
    return (
        normalized_shift(sim(source, target), sim(source, distractor), value),
        normalized_shift(1.0, sim(target, distractor), value),
    )


def cross_shift(
    embedder: Embedder,
    source: Sentence,
    target: Sentence,
    distractor: Sentence,
    norm: NormalizationFactor,
) -> float:
    """Shift of the source-distractor similarity relative to source-target."""
    texts = (source.text, target.text, distractor.text)
    return _shifts(_similarity(embedder, texts), *texts, norm.value)[0]


def mono_shift(
    embedder: Embedder,
    target: Sentence,
    distractor: Sentence,
    norm: NormalizationFactor,
) -> float:
    """Monolingual variant: the source is replaced by the target itself.

    cosine(target, target) = 1, so the result is never positive.
    """
    sim = _similarity(embedder, (target.text, distractor.text))
    return _shifts(sim, target.text, target.text, distractor.text, norm.value)[1]


@dataclass(frozen=True)
class ShiftRecord:
    instance_id: str
    distractor_index: int
    pos: str
    cross_shift: float
    mono_shift: float

    def __post_init__(self) -> None:
        if not self.pos:
            raise DataError("pos must be non-empty")
        if not (math.isfinite(self.cross_shift) and math.isfinite(self.mono_shift)):
            raise DataError("shift values must be finite")


@dataclass(frozen=True)
class GroupStats:
    group: str
    n: int
    mean_cross_shift: float
    mean_mono_shift: float
    corr_mono_cross: float | None  # None when n < 2 or a coordinate is constant


@dataclass(frozen=True)
class ShiftTable:
    """Per-record shifts plus summaries per POS group and pooled "ANY"."""

    records: tuple[ShiftRecord, ...]
    groups: tuple[GroupStats, ...]

    def group(self, name: str) -> GroupStats:
        for stats in self.groups:
            if stats.group == name:
                return stats
        raise DataError(f"no group {name!r} in shift table")

    def records_of(self, name: str) -> tuple[ShiftRecord, ...]:
        if name == ANY_GROUP:
            return self.records
        return tuple(r for r in self.records if r.pos == name)


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if xs.size < 2:
        raise DataError("correlation requires at least 2 records")
    if float(xs.std()) == 0.0 or float(ys.std()) == 0.0:
        raise DataError("correlation undefined: zero variance coordinate")
    value = float(np.corrcoef(xs, ys)[0, 1])
    return max(-1.0, min(1.0, value))


def _group_stats(name: str, records: Sequence[ShiftRecord]) -> GroupStats:
    cross = [r.cross_shift for r in records]
    mono = [r.mono_shift for r in records]
    try:
        corr: float | None = _pearson(mono, cross)
    except DataError:
        corr = None
    return GroupStats(
        group=name,
        n=len(records),
        mean_cross_shift=float(np.mean(cross)),
        mean_mono_shift=float(np.mean(mono)),
        corr_mono_cross=corr,
    )


def _build_table(records: Sequence[ShiftRecord]) -> ShiftTable:
    if not records:
        raise DataError("shift table requires at least one record")
    groups = [_group_stats(ANY_GROUP, records)]
    for pos in sorted({r.pos for r in records}):
        groups.append(_group_stats(pos, [r for r in records if r.pos == pos]))
    return ShiftTable(records=tuple(records), groups=tuple(groups))


def check_norm(
    norm: NormalizationFactor, embedder: Embedder, instances: Sequence[ClsdInstance]
) -> None:
    """Refuse a norm computed for another model than ``embedder``'s, or for
    another direction than one of ``instances``: its value would not apply."""
    if norm.model_id != embedder.model_id:
        raise DataError(f"norm is for model {norm.model_id!r}, not {embedder.model_id!r}")
    others = {(i.source.lang, i.target.lang) for i in instances} - {tuple(norm.direction)}
    if others:
        where = ", ".join("->".join(d) for d in sorted(others))
        raise DataError(f"norm is for direction {'->'.join(norm.direction)}, not {where}")


def shift_analysis(
    embedder: Embedder,
    dataset: Sequence[ClsdInstance],
    annotations: Sequence[DiffAnnotation],
    norm: NormalizationFactor,
) -> ShiftTable:
    """Cross and mono shifts for every annotated single-token swap.

    Every annotation must resolve to an instance and to a pair the
    tokenizer itself sees as a single-token swap at the annotated position;
    any disagreement between annotation and tokenizer is an error, never
    silently dropped. The caller checks that the norm fits the embedder and
    those instances (:func:`check_norm`).
    """
    if not annotations:
        raise DataError("shift_analysis requires at least one annotation")
    by_id = {inst.id: inst for inst in dataset}

    resolved: list[tuple[DiffAnnotation, tuple[str, str, str]]] = []
    for ann in annotations:
        with _context(f"annotation {ann.instance_id}/{ann.distractor_index}"):
            inst = by_id.get(ann.instance_id)
            if inst is None:
                raise DataError("unknown instance id")
            distractor = inst.distractors[ann.distractor_index]
            diff = single_token_diff(inst.target, distractor)
            if diff is None:
                raise DataError("target and distractor do not differ by exactly one token")
            if (
                diff.position != ann.position
                or diff.target_token != ann.target_token
                or diff.distractor_token != ann.distractor_token
            ):
                raise DataError(
                    "annotation disagrees with tokenizer: "
                    f"({ann.position}, {ann.target_token!r}, {ann.distractor_token!r})"
                    f" vs ({diff.position}, {diff.target_token!r}, {diff.distractor_token!r})"
                )
        resolved.append((ann, (inst.source.text, inst.target.text, distractor.text)))

    sim = _similarity(embedder, (t for _, texts in resolved for t in texts))
    records = []
    for ann, texts in resolved:
        cross, mono = _shifts(sim, *texts, norm.value)
        records.append(
            ShiftRecord(
                instance_id=ann.instance_id,
                distractor_index=ann.distractor_index,
                pos=ann.pos,
                cross_shift=cross,
                mono_shift=mono,
            )
        )
    return _build_table(records)


def mono_cross_correlation(table: ShiftTable, group: str = ANY_GROUP) -> float:
    """Pearson correlation of (mono_shift, cross_shift) within one group."""
    records = table.records_of(group)
    return _pearson([r.mono_shift for r in records], [r.cross_shift for r in records])


# ---------------------------------------------------------------------------
# Successful-distractor distribution over edit-similarity bins

@dataclass(frozen=True)
class SuccessDistributionTable:
    """Edit-similarity histogram of all distractors and the successful ones.

    ``flagged`` marks a report without a single successful distractor;
    percentages are then reported as zero rather than undefined.
    """

    edges: tuple[tuple[float, float], ...]
    d_bin_totals: tuple[int, ...]
    success_counts: tuple[int, ...]
    underflow_total: int
    underflow_success: int
    n_successful: int

    @property
    def flagged(self) -> bool:
        return self.n_successful == 0

    def success_pcts(self) -> tuple[float, ...]:
        """Per-bin percentage of successful distractors, underflow last."""
        counts = list(self.success_counts) + [self.underflow_success]
        if self.n_successful == 0:
            return tuple(0.0 for _ in counts)
        return tuple(100.0 * c / self.n_successful for c in counts)


def success_distribution(
    report: EvalReport,
    dataset: Sequence[ClsdInstance],
    edges: Sequence[Sequence[float]] = DEFAULT_BIN_EDGES,
    names: tuple[str, str] = ("report", "dataset"),
) -> SuccessDistributionTable:
    """Bin distractors by edit similarity to the target; count successes.

    A distractor succeeds iff its instance failed and its reported source
    similarity is at least the target's. Reports store similarities rounded
    to 6 decimals, which can turn a strict win into a tie; rounding is
    monotone, so a failed instance still has a successful distractor and an
    instance fails exactly when one of its distractors succeeds here. Bin
    totals cover all distractors; percentages cover the successful ones
    only. A similarity above the topmost bin is an error, and so is an id
    that one side lacks; the message names the first such id of each side,
    calling the sides ``names``.
    """
    checked = validate_edges(edges)
    by_id = {inst.id: inst for inst in dataset}
    report_ids = {r.instance_id for r in report.results}
    if report_ids != by_id.keys():
        lacks = sorted(by_id.keys() - report_ids)[:1], sorted(report_ids - by_id.keys())[:1]
        raise DataError(f"{names[0]} and {names[1]} cover different instance ids: "
                        f"{names[0]} lacks {lacks[0]}, {names[1]} lacks {lacks[1]}")

    similarities: list[float] = []
    successful: list[float] = []
    for result in report.results:
        inst = by_id[result.instance_id]
        for distractor, sim in zip(inst.distractors, result.sim_distractors):
            value = levenshtein_similarity(distractor.text, inst.target.text)
            similarities.append(value)
            if not result.success and sim >= result.sim_target:
                successful.append(value)
    totals = bin_by_similarity(similarities, checked)
    successes = bin_by_similarity(successful, checked)
    return SuccessDistributionTable(
        edges=checked,
        d_bin_totals=totals.counts,
        success_counts=successes.counts,
        underflow_total=totals.underflow,
        underflow_success=successes.underflow,
        n_successful=len(successful),
    )


# ---------------------------------------------------------------------------
# CSV rendering (plot data; figures are drawn elsewhere)

def _fmt(value: float) -> str:
    return f"{value:.6f}"


def shift_table_to_csv(table: ShiftTable) -> str:
    lines = ["group,n,mean_cross_shift,mean_mono_shift,corr_mono_cross"]
    for stats in table.groups:
        corr = "" if stats.corr_mono_cross is None else _fmt(stats.corr_mono_cross)
        lines.append(
            f"{stats.group},{stats.n},{_fmt(stats.mean_cross_shift)},"
            f"{_fmt(stats.mean_mono_shift)},{corr}"
        )
    return "\n".join(lines) + "\n"


def success_distribution_to_csv(table: SuccessDistributionTable) -> str:
    pcts = table.success_pcts()
    lines = ["bin_lo,bin_hi,d_bin_total,success_count,success_pct"]
    for (lo, hi), total, count, pct in zip(
        table.edges, table.d_bin_totals, table.success_counts, pcts
    ):
        lines.append(f"{lo:g},{hi:g},{total},{count},{pct:.2f}")
    lowest_lo = table.edges[-1][0]
    lines.append(
        f"0,{lowest_lo:g},{table.underflow_total},{table.underflow_success},"
        f"{pcts[-1]:.2f}"
    )
    return "\n".join(lines) + "\n"
