"""Per-layer metrics of one traced round (cold + warm pass), and their medians.

Every figure is a total over the round's two passes, so it does not depend
on how many rounds fit in a run. A ratio reads 0 when its base is 0; the
base is always reported next to it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from spans import Tracer

CLI_COMMANDS = ("generate", "validate", "stats", "eval", "compare", "norm",
                "diff-annotate", "shift", "bins", "report")

UNITS = {
    "records.load_s": "s",
    "records.save_s": "s",
    "records.validate_s": "s",
    "textmetrics.levenshtein_calls": "count",
    "textmetrics.levenshtein_s": "s",
    "textmetrics.tokenize_calls": "count",
    "textmetrics.tokenize_s": "s",
    "textmetrics.single_token_diff_s": "s",
    "providers.embed_calls": "count",
    "providers.embed_texts": "count",
    "providers.embed_s": "s",
    "providers.dedup_saved": "count",
    "providers.cache_hits": "count",
    "providers.cache_misses": "count",
    "providers.cache_get_s": "s",
    "providers.cache_put_s": "s",
    "providers.cache_bytes": "bytes",
    "providers.embed_requests": "count",
    "providers.translate_requests": "count",
    "providers.items_per_request": "items/request",
    "providers.transport_s": "s",
    "providers.retries": "count",
    "providers.chat_calls": "count",
    "providers.chat_s": "s",
    "generator.generate_s": "s",
    "generator.attempts": "count",
    "generator.useful_ratio": "ratio",
    "generator.pair_latency_ms.p50": "ms",
    "generator.pair_latency_ms.p90": "ms",
    "generator.stats_s": "s",
    "evaluator.evaluate_s": "s",
    "evaluator.score_self_s": "s",
    "evaluator.pivot_s": "s",
    "evaluator.report_io_s": "s",
    "analysis.norm_s": "s",
    "analysis.shift_s": "s",
    "analysis.bins_s": "s",
    "analysis.bins_self_s": "s",
    **{f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS},
    "cli.self_s": "s",
    "trace.rounds": "count",
    "trace.untraced_inst_per_s": "1/s",
    "trace.traced_inst_per_s": "1/s",
    "trace_overhead": "fraction",
}

# Metrics that cannot be measured when the wrapped function is gone.
_NEEDS = {
    "records.load": ("records.load_s",),
    "records.save": ("records.save_s",),
    "records.validate": ("records.validate_s",),
    "textmetrics.levenshtein": ("textmetrics.levenshtein_calls", "textmetrics.levenshtein_s",
                                "analysis.bins_self_s"),
    "textmetrics.tokenize": ("textmetrics.tokenize_calls", "textmetrics.tokenize_s"),
    "textmetrics.single_token_diff": ("textmetrics.single_token_diff_s",),
    "providers.embed": ("providers.embed_calls", "providers.embed_texts", "providers.embed_s",
                        "providers.dedup_saved", "evaluator.score_self_s"),
    "providers.cache_get": ("providers.cache_hits", "providers.cache_misses",
                            "providers.cache_get_s"),
    "providers.cache_put": ("providers.cache_put_s",),
    "providers.chat": ("providers.chat_calls", "providers.chat_s"),
    "generator.generate": ("generator.generate_s",),
    "generator.stats": ("generator.stats_s",),
    "evaluator.evaluate": ("evaluator.evaluate_s", "evaluator.score_self_s",
                           "providers.dedup_saved"),
    "evaluator.pivot": ("evaluator.pivot_s",),
    "evaluator.report_io": ("evaluator.report_io_s",),
    "analysis.norm": ("analysis.norm_s", "providers.dedup_saved"),
    "analysis.shift": ("analysis.shift_s", "providers.dedup_saved"),
    "analysis.bins": ("analysis.bins_s", "analysis.bins_self_s"),
    "clsd.cli.run": tuple(f"cli.{cmd}_s" for cmd in CLI_COMMANDS) + ("cli.self_s",),
}


def rate(values: list[float]) -> float:
    """Median of per-round throughputs."""
    return statistics.median(values) if values else 0.0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


def _run_logs(round_dir: Path) -> list[dict]:
    rows = []
    for log in sorted(round_dir.glob("*/dataset.jsonl.log.jsonl")):
        rows += [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    return rows


def round_metrics(t: Tracer, round_dir: Path) -> dict[str, float]:
    m: dict[str, float] = {}
    m["records.load_s"] = t.total("records.load")
    m["records.save_s"] = t.covered("records.save")
    m["records.validate_s"] = t.total("records.validate")
    m["textmetrics.levenshtein_calls"] = t.calls("textmetrics.levenshtein")
    m["textmetrics.levenshtein_s"] = t.total("textmetrics.levenshtein")
    m["textmetrics.tokenize_calls"] = t.calls("textmetrics.tokenize")
    m["textmetrics.tokenize_s"] = t.total("textmetrics.tokenize")
    m["textmetrics.single_token_diff_s"] = t.total("textmetrics.single_token_diff")

    embed = t.of("providers.embed")
    stages = t.of("evaluator.evaluate") + t.of("analysis.norm") + t.of("analysis.shift")
    m["providers.embed_calls"] = len(embed)
    m["providers.embed_texts"] = t.items("providers.embed")
    m["providers.embed_s"] = t.total("providers.embed")
    m["providers.dedup_saved"] = sum(s[5] for s in stages) - sum(t.contained_items(stages, embed))

    m["providers.cache_hits"] = t.items("providers.cache_get")
    m["providers.cache_misses"] = t.calls("providers.cache_get") - m["providers.cache_hits"]
    m["providers.cache_get_s"] = t.total("providers.cache_get")
    m["providers.cache_put_s"] = t.total("providers.cache_put")
    m["providers.cache_bytes"] = _dir_bytes(round_dir / "cache")

    requests = t.calls("providers.transport")
    m["providers.embed_requests"] = t.calls("providers.transport.embed")
    m["providers.translate_requests"] = t.calls("providers.transport.translate")
    m["providers.items_per_request"] = t.items("providers.transport") / requests if requests else 0.0
    m["providers.transport_s"] = t.total("providers.transport")
    m["providers.retries"] = t.counts.get("providers.retries", 0)
    m["providers.chat_calls"] = t.calls("providers.chat")
    m["providers.chat_s"] = t.total("providers.chat")

    rows = _run_logs(round_dir)
    attempts = sum(row["attempts"] for row in rows)
    latencies = [row["latency_ms"] for row in rows]
    m["generator.generate_s"] = t.total("generator.generate")
    m["generator.attempts"] = attempts
    m["generator.useful_ratio"] = (
        sum(row["outcome"] == "ok" for row in rows) / attempts if attempts else 0.0
    )
    m["generator.pair_latency_ms.p50"] = statistics.median(latencies) if latencies else 0.0
    m["generator.pair_latency_ms.p90"] = (
        statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else 0.0
    )
    m["generator.stats_s"] = t.total("generator.stats")

    m["evaluator.evaluate_s"] = t.total("evaluator.evaluate")
    m["evaluator.score_self_s"] = t.self_time(t.of("evaluator.evaluate"), embed)
    m["evaluator.pivot_s"] = t.total("evaluator.pivot")
    m["evaluator.report_io_s"] = t.total("evaluator.report_io")

    m["analysis.norm_s"] = t.total("analysis.norm")
    m["analysis.shift_s"] = t.total("analysis.shift")
    m["analysis.bins_s"] = t.total("analysis.bins")
    m["analysis.bins_self_s"] = t.self_time(t.of("analysis.bins"), t.of("textmetrics.levenshtein"))

    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = t.total(f"cli.{cmd}")
    layer_spans = [s for s in t.spans if not s[1].startswith("cli.")]
    m["cli.self_s"] = t.self_time(t.of("cli"), layer_spans)
    return m


def summarize(t: Tracer, traced: list[dict], plain: list[dict]) -> dict[str, dict]:
    """Medians over traced rounds, plus the cost of tracing itself."""

    def ips(rounds: list[dict]) -> float:
        return rate([2 * e["units"] / (e["cold_s"] + e["warm_s"]) for e in rounds])

    unmeasurable = {name for key in t.missing for name in _NEEDS.get(key, ())}
    metrics = {}
    for name, unit in UNITS.items():
        if name in unmeasurable or name.startswith("trace"):
            continue
        values = [e["layers"][name] for e in traced]
        metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    untraced, with_trace = ips(plain), ips(traced)
    metrics["trace.rounds"] = {"value": len(traced), "unit": "count"}
    metrics["trace.untraced_inst_per_s"] = {"value": untraced, "unit": "1/s"}
    metrics["trace.traced_inst_per_s"] = {"value": with_trace, "unit": "1/s"}
    metrics["trace_overhead"] = {
        "value": 1.0 - with_trace / untraced if untraced else 0.0, "unit": "fraction"
    }
    return metrics
