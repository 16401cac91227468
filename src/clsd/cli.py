"""Command-line orchestration for the full pipeline.

One executable, ``clsd``, with one subcommand per pipeline stage::

    clsd generate --corpus F --config C --seed N --out F
    clsd validate --dataset F
    clsd stats --dataset F --out F
    clsd eval --dataset F (--backend lexical | --config C) --out F
    clsd pivot --dataset F --config C --pivot-lang en --out F
    clsd compare --report-a F --report-b F --out F
    clsd norm --corpus F (--backend … | --config C) --seed N --out F
    clsd diff-annotate --dataset F --out F
    clsd shift --dataset F --annotations F --norm F (--backend …) --out F
    clsd bins --report F --dataset F --out F
    clsd report --inputs F... --format markdown|csv --out F

Exit codes: 0 success, 1 validation or data errors, 2 provider or transport
errors. All outputs are written atomically; every ``--out`` is accompanied
by a ``<out>.manifest.json`` recording tool version, config hash, input
digests, and seed. Configuration is one JSON file with sections
``embedding``, ``chat``, ``translation``, ``generation``, ``analysis``,
``paths``; flags override config values, which override defaults. Secrets
are only ever named (environment variable names), never inlined. The
``CLSD_CACHE_DIR`` environment variable overrides the configured embedding
cache directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from . import analysis as ana
from . import evaluator as ev
from . import generator as gen
from . import providers as prov
from . import records as rec
from .errors import DataError, ProviderError
from .textmetrics import DEFAULT_BIN_EDGES, single_token_diff

try:
    from importlib import metadata

    _VERSION = metadata.version("clsd")
except Exception:  # not installed; running from a checkout
    _VERSION = "0.0.0-dev"

CACHE_DIR_ENV = "CLSD_CACHE_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for usage errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Configuration file

_PROVIDER_KEYS = {
    "endpoint",
    "model_id",
    "api_key_env",
    "max_batch",
    "max_inflight",
    "retry_attempts",
    "retry_base_ms",
}
_GENERATION_KEYS = {
    "max_retries",
    "prompt_version",
    "language_names",
    "temperature",
    "top_p",
}
_ANALYSIS_KEYS = {"bin_edges", "seed"}
_PATH_KEYS = {"cache_dir", "output_dir"}
_SECTIONS = {"embedding", "chat", "translation", "generation", "analysis", "paths"}


@dataclass(frozen=True)
class RunConfig:
    embedding: prov.ProviderConfig | None = None
    chat: prov.ProviderConfig | None = None
    translation: prov.ProviderConfig | None = None
    generation: dict | None = None
    bin_edges: tuple[tuple[float, float], ...] | None = None
    seed: int | None = None
    cache_dir: str | None = None
    output_dir: str | None = None


def _provider_from_section(kind: str, section: dict, ctx: str) -> prov.ProviderConfig:
    unknown = set(section) - _PROVIDER_KEYS
    if unknown:
        raise DataError(f"{ctx}: unknown keys {sorted(unknown)}")
    try:
        return prov.ProviderConfig(
            kind=kind,
            endpoint=section["endpoint"],
            model_id=section["model_id"],
            api_key_env=section.get("api_key_env"),
            max_batch=int(section.get("max_batch", 32)),
            max_inflight=int(section.get("max_inflight", 4)),
            retry_attempts=int(section.get("retry_attempts", 3)),
            retry_base_ms=int(section.get("retry_base_ms", 250)),
        )
    except KeyError as exc:
        raise DataError(f"{ctx}: missing key {exc.args[0]!r}") from exc


def load_run_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"{path}: config must be a JSON object")
    unknown = set(raw) - _SECTIONS
    if unknown:
        raise DataError(f"{path}: unknown config sections {sorted(unknown)}")

    providers = {}
    for kind in ("embedding", "chat", "translation"):
        if kind in raw:
            providers[kind] = _provider_from_section(
                kind, raw[kind], f"{path}: section {kind!r}"
            )

    generation = raw.get("generation")
    if generation is not None:
        bad = set(generation) - _GENERATION_KEYS
        if bad:
            raise DataError(f"{path}: section 'generation': unknown keys {sorted(bad)}")

    bin_edges = None
    seed = None
    if "analysis" in raw:
        section = raw["analysis"]
        bad = set(section) - _ANALYSIS_KEYS
        if bad:
            raise DataError(f"{path}: section 'analysis': unknown keys {sorted(bad)}")
        if "bin_edges" in section:
            bin_edges = tuple((float(lo), float(hi)) for lo, hi in section["bin_edges"])
        if "seed" in section:
            seed = int(section["seed"])

    cache_dir = None
    output_dir = None
    if "paths" in raw:
        section = raw["paths"]
        bad = set(section) - _PATH_KEYS
        if bad:
            raise DataError(f"{path}: section 'paths': unknown keys {sorted(bad)}")
        cache_dir = section.get("cache_dir")
        output_dir = section.get("output_dir")

    return RunConfig(
        embedding=providers.get("embedding"),
        chat=providers.get("chat"),
        translation=providers.get("translation"),
        generation=generation,
        bin_edges=bin_edges,
        seed=seed,
        cache_dir=cache_dir,
        output_dir=output_dir,
    )


def _generation_config(config: RunConfig) -> gen.GenerationConfig:
    if config.chat is None:
        raise DataError("config has no 'chat' section; generation needs one")
    section = config.generation or {}
    params = prov.ChatParams(
        temperature=float(section.get("temperature", 1.0)),
        top_p=float(section.get("top_p", 1.0)),
    )
    kwargs = {}
    if "language_names" in section:
        kwargs["language_name_map"] = dict(section["language_names"])
    return gen.GenerationConfig(
        chat=config.chat,
        params=params,
        max_retries=int(section.get("max_retries", 2)),
        prompt_version=str(section.get("prompt_version", gen.DEFAULT_PROMPT_VERSION)),
        **kwargs,
    )


def _embedder(
    backend: str | None, config: RunConfig
) -> prov.LexicalEmbedder | prov.ServiceEmbedder:
    """Build the embedding backend; the --backend flag beats the config.

    A ``lexical[:dim]`` spec gives the same offline embedder on both routes.
    """
    if backend is not None:
        dim = prov.lexical_dim(backend)
        if dim is None:
            raise DataError(f"unknown backend {backend!r}: expected lexical[:dim]")
        return prov.LexicalEmbedder(dim)
    if config.embedding is None:
        raise DataError("no embedding backend: pass --backend or a config with 'embedding'")
    dim = prov.lexical_dim(config.embedding.endpoint)
    if dim is not None:
        return prov.LexicalEmbedder(dim)
    cache_dir = os.environ.get(CACHE_DIR_ENV) or config.cache_dir
    cache = prov.EmbeddingCache(cache_dir) if cache_dir else None
    return prov.ServiceEmbedder(config.embedding, cache=cache)


# ---------------------------------------------------------------------------
# Run manifest

def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(
    out: Path,
    command: str,
    inputs: dict[str, str],
    config_path: str | None,
    seed: int | None,
) -> None:
    payload = {
        "command": command,
        "config_sha256": _sha256_file(config_path) if config_path else None,
        "inputs": {name: _sha256_file(p) for name, p in sorted(inputs.items())},
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool": "clsd",
        "version": _VERSION,
    }
    rec._write_atomic_text(
        out.with_name(out.name + ".manifest.json"),
        json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
    )


def _load_config_arg(path: str | None) -> RunConfig:
    return load_run_config(path) if path else RunConfig()


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_generate(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    corpus = rec.load_parallel_corpus(args.corpus)
    gcfg = _generation_config(config)
    seed = args.seed if args.seed is not None else (config.seed or 0)
    instances, log = gen.generate_dataset(corpus, gcfg, seed=seed)
    out = Path(args.out)
    rec.save_clsd_dataset(instances, out)
    rec._write_jsonl(
        out.with_name(out.name + ".log.jsonl"),
        [
            {
                "pair_id": e.pair_id,
                "outcome": e.outcome,
                "attempts": e.attempts,
                "latency_ms": round(e.latency_ms, 3),
                "message": e.message,
            }
            for e in log
        ],
    )
    _write_manifest(out, "generate", {"corpus": args.corpus}, args.config, seed)
    skipped = [e for e in log if e.outcome != "ok"]
    print(f"generated {len(instances)} instances, skipped {len(skipped)}")
    for entry in skipped:
        print(entry.message, file=sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    report = rec.validate_dataset(rec.load_clsd_dataset(args.dataset))
    for record_id, message in report.errors:
        print(f"error: {record_id}: {message}", file=sys.stderr)
    for record_id, message in report.warnings:
        print(f"warning: {record_id}: {message}", file=sys.stderr)
    print(
        f"n_records={report.n_records} errors={len(report.errors)} "
        f"warnings={len(report.warnings)}"
    )
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    instances = rec.load_clsd_dataset(args.dataset)
    stats = gen.dataset_stats(instances)
    out = Path(args.out)
    rec._write_atomic_text(
        out, json.dumps(stats.to_json(), ensure_ascii=False, indent=2) + "\n"
    )
    _write_manifest(out, "stats", {"dataset": args.dataset}, None, None)
    print(
        f"n={stats.n_instances} jaccard_mean={stats.jaccard_mean:.4f} "
        f"jaccard_std={stats.jaccard_std:.4f}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    dataset = rec.load_clsd_dataset(args.dataset)
    embedder = _embedder(args.backend, config)
    report = ev.evaluate(embedder, dataset, dataset_id=Path(args.dataset).stem)
    out = Path(args.out)
    ev.save_eval_report(report, out)
    _write_manifest(out, "eval", {"dataset": args.dataset}, args.config, None)
    print(f"mode={report.mode} n={report.n} p_at_1={report.p_at_1:.4f}")
    return 0


def _cmd_pivot(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    if config.translation is None:
        raise DataError("config has no 'translation' section; pivot needs one")
    dataset = rec.load_clsd_dataset(args.dataset)
    translator = prov.make_translator(config.translation)
    instances, skipped = ev.pivot_dataset(dataset, translator, args.pivot_lang)
    out = Path(args.out)
    rec.save_clsd_dataset(instances, out)
    _write_manifest(out, "pivot", {"dataset": args.dataset}, args.config, None)
    print(f"pivoted {len(instances)} instances, skipped {len(skipped)}")
    for instance_id, reason in skipped:
        print(f"skipped {instance_id}: {reason}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    report_a = ev.load_eval_report(args.report_a)
    report_b = ev.load_eval_report(args.report_b)
    only_a, only_b = ev.disagreement(report_a, report_b)
    out = Path(args.out)
    rec._write_atomic_text(
        out,
        json.dumps(
            {"success_only_a": only_a, "success_only_b": only_b},
            ensure_ascii=False,
            indent=2,
        )
        + "\n",
    )
    _write_manifest(
        out,
        "compare",
        {"report_a": args.report_a, "report_b": args.report_b},
        None,
        None,
    )
    print(f"only_a={len(only_a)} only_b={len(only_b)}")
    return 0


def _cmd_norm(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    corpus = rec.load_parallel_corpus(args.corpus)
    embedder = _embedder(args.backend, config)
    seed = args.seed if args.seed is not None else config.seed
    if seed is None:
        raise DataError("no seed: pass --seed or set analysis.seed in the config")
    norm = ana.normalization_factor(embedder, corpus, seed)
    out = Path(args.out)
    ana.save_normalization(norm, out)
    _write_manifest(out, "norm", {"corpus": args.corpus}, args.config, seed)
    print(f"value={norm.value:.6f} n={norm.n_parallel} seed={seed}")
    return 0


def _cmd_diff_annotate(args: argparse.Namespace) -> int:
    instances = rec.load_clsd_dataset(args.dataset)
    lines = []
    for inst in instances:
        for index, distractor in enumerate(inst.distractors):
            diff = single_token_diff(inst.target, distractor)
            if diff is None:
                continue
            lines.append(
                {
                    "instance_id": inst.id,
                    "distractor_index": index,
                    "position": diff.position,
                    "target_token": diff.target_token,
                    "distractor_token": diff.distractor_token,
                    # filled in downstream by a POS tagger plus human review
                    "pos": "",
                }
            )
    out = Path(args.out)
    rec._write_jsonl(out, lines)
    _write_manifest(out, "diff-annotate", {"dataset": args.dataset}, None, None)
    print(f"candidates={len(lines)}")
    return 0


def _cmd_shift(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    dataset = rec.load_clsd_dataset(args.dataset)
    annotations = rec.load_annotations(args.annotations)
    norm = ana.load_normalization(args.norm)
    embedder = _embedder(args.backend, config)
    table = ana.shift_analysis(embedder, dataset, annotations, norm)
    out = Path(args.out)
    rec._write_atomic_text(out, ana.shift_table_to_csv(table))
    _write_manifest(
        out,
        "shift",
        {"dataset": args.dataset, "annotations": args.annotations, "norm": args.norm},
        args.config,
        None,
    )
    any_stats = table.group(ana.ANY_GROUP)
    print(f"records={any_stats.n} mean_cross_shift={any_stats.mean_cross_shift:.4f}")
    return 0


def _cmd_bins(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    report = ev.load_eval_report(args.report)
    dataset = rec.load_clsd_dataset(args.dataset)
    edges = config.bin_edges or DEFAULT_BIN_EDGES
    table = ana.success_distribution(report, dataset, edges)
    out = Path(args.out)
    rec._write_atomic_text(out, ana.success_distribution_to_csv(table))
    _write_manifest(
        out, "bins", {"report": args.report, "dataset": args.dataset}, args.config, None
    )
    if table.flagged:
        print("no successful distractors; percentages reported as 0", file=sys.stderr)
    print(f"successful_distractors={table.n_successful}")
    return 0


# ---------------------------------------------------------------------------
# Aggregate report rendering

def _collect_rows(paths: Sequence[str]) -> dict[tuple[str, str, str], float]:
    rows: dict[tuple[str, str, str], float] = {}
    for path in paths:
        report = ev.load_eval_report(path)
        key = (report.mode, report.model_id, report.dataset_id)
        if key in rows and abs(rows[key] - report.p_at_1) > 5e-7:
            raise DataError(
                f"conflicting duplicate report for mode={key[0]} model={key[1]} "
                f"dataset={key[2]}: {rows[key]} vs {report.p_at_1}"
            )
        rows[key] = report.p_at_1
    return rows


def render_report(paths: Sequence[str], fmt: str = "markdown") -> str:
    """Render eval reports as one table per mode, P@1 in percent.

    One row per model, one column per dataset, plus the across-dataset
    Average. Duplicate (mode, model, dataset) entries must agree; identical
    duplicates collapse.
    """
    if not paths:
        raise DataError("render_report requires at least one report file")
    if fmt not in ("markdown", "csv"):
        raise DataError(f"unknown format {fmt!r}")
    rows = _collect_rows(paths)
    datasets = sorted({key[2] for key in rows})
    modes = sorted({key[0] for key in rows}, key=lambda m: (m != ev.MODE_DIRECT, m))

    def cell(mode: str, model: str, dataset: str) -> str:
        value = rows.get((mode, model, dataset))
        return "" if value is None else f"{100.0 * value:.2f}"

    def average(mode: str, model: str) -> str:
        values = [
            rows[(mode, model, d)] for d in datasets if (mode, model, d) in rows
        ]
        return f"{100.0 * sum(values) / len(values):.2f}"

    if fmt == "csv":
        lines = ["mode,model," + ",".join(datasets) + ",Average"]
        for mode in modes:
            for model in sorted({k[1] for k in rows if k[0] == mode}):
                cells = [cell(mode, model, d) for d in datasets]
                lines.append(
                    f"{mode},{model}," + ",".join(cells) + f",{average(mode, model)}"
                )
        return "\n".join(lines) + "\n"

    lines = ["# Precision@1 (%)"]
    for mode in modes:
        lines.append("")
        lines.append(f"## {mode}")
        lines.append("")
        lines.append("| Model | " + " | ".join(datasets) + " | Average |")
        lines.append("| --- | " + " | ".join("---:" for _ in datasets) + " | ---: |")
        for model in sorted({k[1] for k in rows if k[0] == mode}):
            cells = [cell(mode, model, d) for d in datasets]
            lines.append(
                f"| {model} | " + " | ".join(cells) + f" | {average(mode, model)} |"
            )
    return "\n".join(lines) + "\n"


def _cmd_report(args: argparse.Namespace) -> int:
    rendered = render_report(args.inputs, args.format)
    out = Path(args.out)
    rec._write_atomic_text(out, rendered)
    inputs = {f"report_{i}": path for i, path in enumerate(args.inputs)}
    _write_manifest(out, "report", inputs, None, None)
    print(f"wrote {args.format} report for {len(args.inputs)} input(s)")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring

def _build_parser() -> _Parser:
    parser = _Parser(prog="clsd", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"clsd {_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="generate distractors for a parallel corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", help="check a dataset file against all invariants")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="word-overlap statistics for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("eval", help="rank targets against distractors, report P@1")
    p.add_argument("--dataset", required=True)
    p.add_argument("--backend", default=None, help="lexical[:dim] offline baseline")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pivot", help="translate a dataset into a pivot language")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--pivot-lang", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pivot)

    p = sub.add_parser("compare", help="success-set disagreement between two reports")
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("norm", help="parallel-vs-unrelated similarity gap")
    p.add_argument("--corpus", required=True)
    p.add_argument("--backend", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser(
        "diff-annotate", help="emit single-token-swap candidates for POS annotation"
    )
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diff_annotate)

    p = sub.add_parser("shift", help="normalized similarity shifts grouped by POS")
    p.add_argument("--dataset", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--norm", required=True)
    p.add_argument("--backend", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("bins", help="successful distractors per edit-similarity bin")
    p.add_argument("--report", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bins)

    p = sub.add_parser("report", help="aggregate eval reports into one table")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ProviderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(run(sys.argv[1:]))
