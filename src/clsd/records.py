"""Record types and line-delimited dataset IO.

All datasets are JSONL: one UTF-8 encoded JSON object per line, ``\\n``
terminated, keys in a fixed order so that equal values serialize to
byte-identical lines.

File schemas
------------
Parallel corpus::

    {"id": "...", "src_lang": "de", "tgt_lang": "fr", "source": "...", "target": "..."}

Discrimination dataset (one source sentence, its true translation, four
adversarial distractors in the target language)::

    {"id": "...", "src_lang": "de", "tgt_lang": "fr", "source": "...",
     "target": "...", "distractors": ["...", "...", "...", "..."], "meta": {...}}

A pivot record is a discrimination record whose six sentences were
translated into one pivot language. It has the same keys and two optional
ones after ``"meta"``: ``"pivot_lang"`` and ``"original_id"`` (equal to
``"id"``). ``src_lang`` and ``tgt_lang`` both equal the pivot language, and
``meta`` is empty. Both kinds load as :class:`ClsdInstance`; a pivot record
has ``pivot_lang`` set.

Token-swap annotations::

    {"instance_id": "...", "distractor_index": 0, "position": 8,
     "target_token": "...", "distractor_token": "...", "pos": "NOUN"}

Loaded records are immutable values and safe to share across threads.
"""

from __future__ import annotations

import json
import os
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from .errors import DataError

_LANG_RE = re.compile(r"[a-z]{2}")

DISTRACTORS_PER_INSTANCE = 4


@dataclass(frozen=True)
class Sentence:
    """A sentence in one language. Text is stripped of surrounding whitespace."""

    text: str
    lang: str

    def __post_init__(self) -> None:
        text = self.text.strip()
        if not text:
            raise DataError("sentence text is empty")
        object.__setattr__(self, "text", text)
        if not _LANG_RE.fullmatch(self.lang):
            raise DataError(
                f"bad language code {self.lang!r}: expected two lowercase letters"
            )


@dataclass(frozen=True)
class ParallelPair:
    """One aligned sentence pair from a parallel corpus."""

    id: str
    source: Sentence
    target: Sentence

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("pair id is empty")
        if self.source.lang == self.target.lang:
            raise DataError(f"pair {self.id}: source and target share language")


@dataclass(frozen=True)
class ClsdInstance:
    """A parallel pair enriched with exactly four same-language distractors.

    Construction enforces the structural invariants (count, languages).
    Whether a distractor textually equals the target is checked at load time
    and by :func:`validate_dataset`, so that validation can report the
    violation instead of refusing to represent it.

    ``pivot_lang`` is set on instances translated into a pivot language; all
    six sentences are then in that language and ``id`` is the original id.
    """

    id: str
    source: Sentence
    target: Sentence
    distractors: tuple[Sentence, ...]
    meta: dict[str, str] = field(default_factory=dict)
    pivot_lang: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("instance id is empty")
        object.__setattr__(self, "distractors", tuple(self.distractors))
        if len(self.distractors) != DISTRACTORS_PER_INSTANCE:
            raise DataError(
                f"instance {self.id}: length(distractors)={DISTRACTORS_PER_INSTANCE} "
                f"violated (got {len(self.distractors)})"
            )
        for d in self.distractors:
            if d.lang != self.target.lang:
                raise DataError(
                    f"instance {self.id}: distractor language {d.lang!r} differs "
                    f"from target language {self.target.lang!r}"
                )
        if self.pivot_lang is not None:
            for s in (self.source, self.target):
                if s.lang != self.pivot_lang:
                    raise DataError(
                        f"instance {self.id}: sentence language {s.lang!r} "
                        f"differs from pivot language {self.pivot_lang!r}"
                    )


@dataclass(frozen=True)
class DiffAnnotation:
    """Part-of-speech annotation for one single-token swap."""

    instance_id: str
    distractor_index: int
    position: int
    target_token: str
    distractor_token: str
    pos: str

    def __post_init__(self) -> None:
        if self.distractor_index not in range(DISTRACTORS_PER_INSTANCE):
            raise DataError(
                f"annotation {self.instance_id}: distractor_index "
                f"{self.distractor_index} out of range 0..3"
            )
        if self.position < 0:
            raise DataError(f"annotation {self.instance_id}: negative position")
        if not self.pos or not self.pos.isascii() or not self.pos.isupper():
            raise DataError(
                f"annotation {self.instance_id}: pos must be a non-empty "
                f"uppercase ASCII tag, got {self.pos!r}"
            )


@dataclass(frozen=True)
class ValidationReport:
    """Findings of :func:`validate_dataset`. Empty ``errors`` means loadable."""

    n_records: int
    errors: tuple[tuple[str, str], ...]
    warnings: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.errors


# ---------------------------------------------------------------------------
# JSONL plumbing

def _read_lines(path: Path) -> Iterator[tuple[int, dict]]:
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: record is not a JSON object")
            yield lineno, obj


def _get(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise DataError(f"{ctx}: missing key {key!r}")
    return obj[key]


def _str(obj: dict, key: str, ctx: str) -> str:
    value = _get(obj, key, ctx)
    if not isinstance(value, str):
        raise DataError(f"{ctx}: key {key!r} is not a string")
    return value


def _write_atomic_text(path: Path, content: str) -> None:
    # temp file + rename: a crash mid-write never leaves a half-written artifact
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(content)
    os.replace(tmp, path)


def _write_jsonl(path: Path, objs: Sequence[dict]) -> None:
    lines = [json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs]
    _write_atomic_text(path, "".join(lines))


# ---------------------------------------------------------------------------
# Parallel corpora

def load_parallel_corpus(path: str | Path) -> list[ParallelPair]:
    """Load a parallel corpus, enforcing id uniqueness within the file."""
    path = Path(path)
    pairs: list[ParallelPair] = []
    seen: set[str] = set()
    for lineno, obj in _read_lines(path):
        ctx = f"{path}:{lineno}"
        try:
            pair = ParallelPair(
                id=_str(obj, "id", ctx),
                source=Sentence(_str(obj, "source", ctx), _str(obj, "src_lang", ctx)),
                target=Sentence(_str(obj, "target", ctx), _str(obj, "tgt_lang", ctx)),
            )
        except DataError as exc:
            raise DataError(f"{ctx}: {exc}") from exc
        if pair.id in seen:
            raise DataError(f"{ctx}: duplicate id {pair.id!r}")
        seen.add(pair.id)
        pairs.append(pair)
    return pairs


def save_parallel_corpus(pairs: Sequence[ParallelPair], path: str | Path) -> None:
    _write_jsonl(
        Path(path),
        [
            {
                "id": p.id,
                "src_lang": p.source.lang,
                "tgt_lang": p.target.lang,
                "source": p.source.text,
                "target": p.target.text,
            }
            for p in pairs
        ],
    )


# ---------------------------------------------------------------------------
# Discrimination datasets

def _instance_from_obj(obj: dict, ctx: str) -> ClsdInstance:
    distractors = _get(obj, "distractors", ctx)
    if not isinstance(distractors, list) or not all(
        isinstance(d, str) for d in distractors
    ):
        raise DataError(f"{ctx}: key 'distractors' is not a list of strings")
    if len(distractors) != DISTRACTORS_PER_INSTANCE:
        raise DataError(
            f"{ctx}: length(distractors)={DISTRACTORS_PER_INSTANCE} violated "
            f"(got {len(distractors)})"
        )
    meta = obj.get("meta", {})
    if not isinstance(meta, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
    ):
        raise DataError(f"{ctx}: key 'meta' is not a string-to-string object")
    tgt_lang = _str(obj, "tgt_lang", ctx)
    pivot_lang = None
    if "pivot_lang" in obj:
        pivot_lang = _str(obj, "pivot_lang", ctx)
        if _str(obj, "original_id", ctx) != _str(obj, "id", ctx):
            raise DataError(f"{ctx}: original_id differs from id")
    instance = ClsdInstance(
        id=_str(obj, "id", ctx),
        source=Sentence(_str(obj, "source", ctx), _str(obj, "src_lang", ctx)),
        target=Sentence(_str(obj, "target", ctx), tgt_lang),
        distractors=tuple(Sentence(d, tgt_lang) for d in distractors),
        meta=dict(meta),
        pivot_lang=pivot_lang,
    )
    # A translator may map a distractor onto the target; the scorer counts
    # that tie as a failure, so only direct records refuse it here.
    if pivot_lang is None:
        for d in instance.distractors:
            if d.text == instance.target.text:
                raise DataError(f"{ctx}: distractor equals target")
    return instance


def load_clsd_dataset(path: str | Path) -> list[ClsdInstance]:
    """Load a discrimination dataset, direct or pivot records, in file order.

    Raises :class:`DataError` naming the 1-based line for malformed lines and
    invariant violations; a loaded dataset always satisfies every instance
    invariant.
    """
    path = Path(path)
    instances: list[ClsdInstance] = []
    for lineno, obj in _read_lines(path):
        ctx = f"{path}:{lineno}"
        try:
            instances.append(_instance_from_obj(obj, ctx))
        except DataError as exc:
            msg = str(exc)
            raise DataError(msg if msg.startswith(ctx) else f"{ctx}: {msg}") from exc
    return instances


def _instance_to_obj(instance: ClsdInstance) -> dict:
    obj = {
        "id": instance.id,
        "src_lang": instance.source.lang,
        "tgt_lang": instance.target.lang,
        "source": instance.source.text,
        "target": instance.target.text,
        "distractors": [d.text for d in instance.distractors],
        "meta": dict(sorted(instance.meta.items())),
    }
    if instance.pivot_lang is not None:
        obj["pivot_lang"] = instance.pivot_lang
        obj["original_id"] = instance.id
    return obj


def save_clsd_dataset(instances: Sequence[ClsdInstance], path: str | Path) -> None:
    """Serialize instances one per line; equal inputs produce equal bytes."""
    _write_jsonl(Path(path), [_instance_to_obj(i) for i in instances])


# Pivot files are clsd datasets; these aliases keep the old names working for
# callers that look them up by attribute, such as the benchmark harness.
load_pivot_dataset = load_clsd_dataset
save_pivot_dataset = save_clsd_dataset


# ---------------------------------------------------------------------------
# Annotations

def load_annotations(path: str | Path) -> list[DiffAnnotation]:
    """Load token-swap annotations in file order. Ids are not resolved here."""
    path = Path(path)
    annotations: list[DiffAnnotation] = []
    for lineno, obj in _read_lines(path):
        ctx = f"{path}:{lineno}"
        try:
            index = _get(obj, "distractor_index", ctx)
            position = _get(obj, "position", ctx)
            if not isinstance(index, int) or isinstance(index, bool):
                raise DataError("distractor_index is not an integer")
            if not isinstance(position, int) or isinstance(position, bool):
                raise DataError("position is not an integer")
            annotations.append(
                DiffAnnotation(
                    instance_id=_str(obj, "instance_id", ctx),
                    distractor_index=index,
                    position=position,
                    target_token=_str(obj, "target_token", ctx),
                    distractor_token=_str(obj, "distractor_token", ctx),
                    pos=_str(obj, "pos", ctx),
                )
            )
        except DataError as exc:
            msg = str(exc)
            raise DataError(msg if msg.startswith(ctx) else f"{ctx}: {msg}") from exc
    return annotations


def save_annotations(annotations: Sequence[DiffAnnotation], path: str | Path) -> None:
    _write_jsonl(
        Path(path),
        [
            {
                "instance_id": a.instance_id,
                "distractor_index": a.distractor_index,
                "position": a.position,
                "target_token": a.target_token,
                "distractor_token": a.distractor_token,
                "pos": a.pos,
            }
            for a in annotations
        ],
    )


# ---------------------------------------------------------------------------
# Validation

def _loose_text(text: str) -> str:
    """Casefolded text with punctuation removed and whitespace collapsed."""
    kept = "".join(
        c for c in text.casefold() if not unicodedata.category(c).startswith("P")
    )
    return " ".join(kept.split())


def validate_dataset(instances: Sequence[ClsdInstance]) -> ValidationReport:
    """Check dataset-level rules; pure, never raises on findings.

    Errors: duplicate instance ids, distractor textually equal to the target.
    Warnings: duplicated distractor text within an instance, distractor equal
    to the target up to case and punctuation.
    """
    errors: list[tuple[str, str]] = []
    warnings: list[tuple[str, str]] = []
    seen_ids: set[str] = set()
    for instance in instances:
        if instance.id in seen_ids:
            errors.append((instance.id, "duplicate id"))
        seen_ids.add(instance.id)
        texts = [d.text for d in instance.distractors]
        for i, text in enumerate(texts):
            if text == instance.target.text:
                errors.append((instance.id, "distractor equals target"))
            elif _loose_text(text) == _loose_text(instance.target.text):
                warnings.append(
                    (instance.id, f"distractor {i} equals target up to case/punctuation")
                )
        dupes = {t for t in texts if texts.count(t) > 1}
        for text in sorted(dupes):
            warnings.append((instance.id, f"duplicate distractor {text!r}"))
    return ValidationReport(
        n_records=len(instances), errors=tuple(errors), warnings=tuple(warnings)
    )
