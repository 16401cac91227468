"""Spans recorded from outside the program, around calls into each layer.

A wrapper replaces a public function at every ``clsd`` module attribute
that holds it, which is the name its callers look up at call time, so the
program itself is unchanged. Spans (id, name, start, end, parent, items) are
kept in memory and written when the run ends. Self times are derived from
interval coverage, so spans opened in worker threads count too.
"""

from __future__ import annotations

import bisect
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._done: list[tuple] = []
        self.missing: dict[str, str] = {}
        self.counts: dict[str, int] = {}
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def record(self, name: str, start: float, end: float, items: int = 0) -> None:
        """Add a span measured by the caller; a no-op while not installed."""
        if self.active:
            stack = getattr(self._local, "stack", None)
            parent = stack[-1] if stack else 0
            self.spans.append((next(self._ids), name, start, end, parent, items))

    def count(self, name: str, n: int = 1) -> None:
        if self.active:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + n

    def _traced(self, name: str | Callable, fn: Callable, items: Callable | None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            span_id = next(tracer._ids)
            stack = tracer._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                n = items(args, kwargs, result) if items else 0
                tracer.spans.append((span_id, span_name, start, end, parent, n))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------

    def wrap_function(self, module: str, attr: str, name, items=None) -> None:
        """Wrap ``module.attr`` wherever a ``clsd`` module holds that object."""
        owner = sys.modules.get(module)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing[name if isinstance(name, str) else f"{module}.{attr}"] = (
                f"{module}.{attr} not found"
            )
            return
        wrapper = self._traced(name, fn, items)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "clsd" and getattr(mod, attr, None) is fn:
                self._undo.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def wrap_method(self, module: str, cls: str, attr: str, name, items=None) -> None:
        klass = getattr(sys.modules.get(module), cls, None)
        fn = klass.__dict__.get(attr) if isinstance(klass, type) else None
        if not callable(fn):
            self.missing[name] = f"{module}.{cls}.{attr} not found"
            return
        self._undo.append((klass, attr, fn))
        setattr(klass, attr, self._traced(name, fn, items))

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def clear(self) -> None:
        """Start a new round; earlier spans are kept for :meth:`dump`."""
        self._done += self.spans
        self.spans = []
        self.counts = {}

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, items in self._done + self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "items": items}
                    )
                    + "\n"
                )

    # -- summaries -------------------------------------------------------

    def of(self, prefix: str) -> list[tuple]:
        return [s for s in self.spans if s[1] == prefix or s[1].startswith(prefix + ".")]

    def total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.of(name))

    def covered(self, name: str) -> float:
        """Time covered by at least one span of ``name``, for nested spans."""
        total, cursor = 0.0, float("-inf")
        for s in sorted(self.of(name), key=lambda s: s[2]):
            lo, hi = max(s[2], cursor), s[3]
            if hi > lo:
                total += hi - lo
                cursor = hi
        return total

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def items(self, name: str) -> int:
        return sum(s[5] for s in self.of(name))

    def self_time(self, parents: list[tuple], children: list[tuple]) -> float:
        """Parent span time not covered by any child span, summed."""
        children = sorted(children, key=lambda s: s[2])
        starts = [c[2] for c in children]
        total = 0.0
        for _, _, start, end, _, _ in parents:
            covered = 0.0
            cursor = start
            for c in children[bisect.bisect_left(starts, start):]:
                lo, hi = max(c[2], cursor), min(c[3], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
                if c[2] >= end:
                    break
            total += (end - start) - covered
        return total

    def contained_items(self, outer: list[tuple], inner: list[tuple]) -> list[int]:
        """For each outer span, the items of inner spans inside its interval."""
        return [
            sum(s[5] for s in inner if s[2] >= o[2] and s[3] <= o[3]) for o in outer
        ]


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    tracer.active = True
    fn, meth = tracer.wrap_function, tracer.wrap_method
    n_texts = lambda a, k, r: len(a[1])  # noqa: E731
    for attr in ("load_clsd_dataset", "load_pivot_dataset", "load_parallel_corpus",
                 "load_annotations"):
        fn("clsd.records", attr, "records.load")
    # every file the program writes goes through _write_atomic_text
    for attr in ("save_clsd_dataset", "save_pivot_dataset", "save_parallel_corpus",
                 "save_annotations", "_write_jsonl", "_write_atomic_text"):
        fn("clsd.records", attr, "records.save")
    fn("clsd.records", "validate_dataset", "records.validate")
    fn("clsd.textmetrics", "levenshtein_similarity", "textmetrics.levenshtein")
    fn("clsd.textmetrics", "tokenize", "textmetrics.tokenize")
    fn("clsd.textmetrics", "single_token_diff", "textmetrics.single_token_diff")
    meth("clsd.providers", "LexicalEmbedder", "embed", "providers.embed", n_texts)
    meth("clsd.providers", "ServiceEmbedder", "embed", "providers.embed", n_texts)
    meth("clsd.providers", "EmbeddingCache", "get", "providers.cache_get",
         lambda a, k, r: int(r is not None))
    meth("clsd.providers", "EmbeddingCache", "put", "providers.cache_put")
    fn("clsd.providers", "chat_complete", "providers.chat")
    fn("clsd.generator", "generate_dataset", "generator.generate")
    fn("clsd.generator", "dataset_stats", "generator.stats")
    fn("clsd.evaluator", "evaluate", "evaluator.evaluate",
       lambda a, k, r: 6 * len(a[1]))
    fn("clsd.evaluator", "pivot_dataset", "evaluator.pivot")
    fn("clsd.evaluator", "save_eval_report", "evaluator.report_io")
    fn("clsd.evaluator", "load_eval_report", "evaluator.report_io")
    fn("clsd.analysis", "normalization_factor", "analysis.norm",
       lambda a, k, r: 2 * len(a[1]))
    fn("clsd.analysis", "shift_analysis", "analysis.shift",
       lambda a, k, r: 3 * len(a[2]))
    fn("clsd.analysis", "success_distribution", "analysis.bins")
    fn("clsd.cli", "run", lambda args: f"cli.{args[0][0] if args[0] else ''}")
