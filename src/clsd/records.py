"""Record types, line-delimited dataset IO and the JSON file plumbing.

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

The one-document JSON files (config, eval report, normalization, stats,
manifest) are read and written here too. Every reader refuses input that is
not UTF-8 or holds a lone UTF-16 surrogate escape, naming the file.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import unicodedata
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import DataError

_LANG_RE = re.compile(r"[a-z]{2}")

_T = TypeVar("_T")

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
# File plumbing: JSONL records and JSON documents

def _refuse_lone_surrogates(obj: object, text: str, where: str) -> None:
    # strict UTF-8 decoding refuses encoded surrogates, so a lone one can
    # only come from a \u escape, and no output could encode it
    if "\\u" in text:
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataError(f"{where}: lone UTF-16 surrogate escape in a string") from exc


def _read_lines(path: Path) -> Iterator[tuple[int, dict]]:
    try:
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
                _refuse_lone_surrogates(obj, line, f"{path}:{lineno}")
                yield lineno, obj
    except UnicodeDecodeError:
        # the text layer decodes ahead in chunks, so find the line again
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(
                        f"{path}:{lineno}: not UTF-8: byte {raw[exc.start]:#04x} "
                        f"at byte offset {exc.start} of the line"
                    ) from exc
        raise


def _load_jsonl(path: str | Path, build: Callable[[dict, str], _T]) -> list[_T]:
    """``build(obj, ctx)`` for each record in file order; ``ctx`` is ``path:line``,
    and a :class:`DataError` from ``build`` is raised with that prefix once."""
    path = Path(path)
    out: list[_T] = []
    for lineno, obj in _read_lines(path):
        ctx = f"{path}:{lineno}"
        try:
            out.append(build(obj, ctx))
        except DataError as exc:
            msg = str(exc)
            raise DataError(msg if msg.startswith(f"{ctx}: ") else f"{ctx}: {msg}") from exc
    return out


def _read_json(path: str | Path):
    """The JSON document in ``path``. A file that is not UTF-8 or not JSON, or
    that holds a lone surrogate escape, raises :class:`DataError` naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        obj = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    _refuse_lone_surrogates(obj, text, str(path))
    return obj


def _get(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise DataError(f"{ctx}: missing key {key!r}")
    return obj[key]


def _str(obj: dict, key: str, ctx: str) -> str:
    value = _get(obj, key, ctx)
    if not isinstance(value, str):
        raise DataError(f"{ctx}: key {key!r} is not a string")
    return value


def _int(obj: dict, key: str, ctx: str) -> int:
    value = _get(obj, key, ctx)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DataError(f"{ctx}: key {key!r} is not an integer")
    return value


def _is_real(value: object) -> bool:
    """A number that converts to a finite float; a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max  # false for NaN, infinities and huge ints


def _real(obj: dict, key: str, ctx: str) -> float:
    value = _get(obj, key, ctx)
    if not _is_real(value):
        raise DataError(f"{ctx}: key {key!r} is not a finite number")
    return float(value)


def _write_atomic_text(path: Path, content: str) -> None:
    # temp file + rename: a crash mid-write never leaves a half-written artifact;
    # the temp name is per process and thread so concurrent writers never share it
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_jsonl(path: Path, objs: Sequence[dict]) -> None:
    lines = [json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs]
    _write_atomic_text(path, "".join(lines))


def _write_json(path: str | Path, payload: object) -> None:
    """Write one JSON document, indented by 2, keys in payload order."""
    _write_atomic_text(Path(path), json.dumps(payload, ensure_ascii=False, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Parallel corpora

def _pair_to_obj(record: ParallelPair | ClsdInstance) -> dict:
    """The five keys of a corpus row, which also lead every dataset row."""
    return {
        "id": record.id,
        "src_lang": record.source.lang,
        "tgt_lang": record.target.lang,
        "source": record.source.text,
        "target": record.target.text,
    }


def _pair_from_obj(obj: dict, ctx: str) -> tuple[str, Sentence, Sentence]:
    """``(id, source, target)`` from the keys :func:`_pair_to_obj` writes."""
    return (
        _str(obj, "id", ctx),
        Sentence(_str(obj, "source", ctx), _str(obj, "src_lang", ctx)),
        Sentence(_str(obj, "target", ctx), _str(obj, "tgt_lang", ctx)),
    )


def load_parallel_corpus(path: str | Path) -> list[ParallelPair]:
    """Load a parallel corpus, enforcing id uniqueness within the file."""
    seen: set[str] = set()

    def build(obj: dict, ctx: str) -> ParallelPair:
        pair = ParallelPair(*_pair_from_obj(obj, ctx))
        if pair.id in seen:
            raise DataError(f"duplicate id {pair.id!r}")
        seen.add(pair.id)
        return pair

    return _load_jsonl(path, build)


def save_parallel_corpus(pairs: Sequence[ParallelPair], path: str | Path) -> None:
    _write_jsonl(Path(path), [_pair_to_obj(p) for p in pairs])


# ---------------------------------------------------------------------------
# Discrimination datasets

def _instance_from_obj(obj: dict, ctx: str) -> ClsdInstance:
    distractors = _get(obj, "distractors", ctx)
    if not isinstance(distractors, list) or not all(
        isinstance(d, str) for d in distractors
    ):
        raise DataError(f"{ctx}: key 'distractors' is not a list of strings")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
    ):
        raise DataError(f"{ctx}: key 'meta' is not a string-to-string object")
    instance_id, source, target = _pair_from_obj(obj, ctx)
    pivot_lang = None
    if "pivot_lang" in obj:
        pivot_lang = _str(obj, "pivot_lang", ctx)
        if _str(obj, "original_id", ctx) != instance_id:
            raise DataError(f"{ctx}: original_id differs from id")
    instance = ClsdInstance(
        id=instance_id,
        source=source,
        target=target,
        distractors=tuple(Sentence(d, target.lang) for d in distractors),
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
    return _load_jsonl(path, _instance_from_obj)


def _instance_to_obj(instance: ClsdInstance) -> dict:
    obj = _pair_to_obj(instance)
    obj["distractors"] = [d.text for d in instance.distractors]
    obj["meta"] = dict(sorted(instance.meta.items()))
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

def _annotation_from_obj(obj: dict, ctx: str) -> DiffAnnotation:
    return DiffAnnotation(
        instance_id=_str(obj, "instance_id", ctx),
        distractor_index=_int(obj, "distractor_index", ctx),
        position=_int(obj, "position", ctx),
        target_token=_str(obj, "target_token", ctx),
        distractor_token=_str(obj, "distractor_token", ctx),
        pos=_str(obj, "pos", ctx),
    )


def load_annotations(path: str | Path) -> list[DiffAnnotation]:
    """Load token-swap annotations in file order. Ids are not resolved here."""
    return _load_jsonl(path, _annotation_from_obj)


def save_annotations(annotations: Sequence[DiffAnnotation], path: str | Path) -> None:
    _write_jsonl(Path(path), [asdict(a) for a in annotations])


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
