"""Command-line orchestration for the full pipeline.

One executable, ``clsd``, with one subcommand per pipeline stage::

    clsd generate --corpus F --config C [--seed N] --out F
    clsd validate --dataset F
    clsd stats --dataset F --out F
    clsd eval --dataset F (--backend lexical | --config C) --out F
    clsd pivot --dataset F --config C --pivot-lang en --out F
    clsd compare --report-a F --report-b F --out F
    clsd norm --corpus F (--backend … | --config C) [--seed N] --out F
    clsd diff-annotate --dataset F --out F
    clsd shift --dataset F --annotations F --norm F (--backend …) --out F
    clsd bins --report F --dataset F [--config C] --out F
    clsd report --inputs F... [--format markdown|csv] --out F

Each subcommand is one entry of ``_COMMANDS``: name, help text, flags and
handler. A flag written ``[--x]`` is optional, any other is required, and
``_FLAG_KWARGS`` holds the few flags that are not plain strings. A handler
takes the parsed arguments and the loaded config, writes its output file
and returns its summary line and the seed it used; ``_dispatch`` loads the
``--config`` file, writes the manifest and prints the summary. ``validate``
writes no file and returns its own exit code.

Exit codes: 0 success, 1 validation or data errors, 2 provider or transport
errors. All outputs are written atomically; every ``--out`` is accompanied
by a ``<out>.manifest.json`` recording tool version, config hash, input
digests, and seed. An ``--out`` whose file, manifest or log is an input
file is refused before any work. Configuration is one JSON file with sections
``embedding``, ``chat``, ``translation``, ``generation``, ``analysis``,
``paths``; flags override config values, which override defaults. Secrets
are only ever named (environment variable names), never inlined. The
``CLSD_CACHE_DIR`` environment variable overrides the configured embedding
cache directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from . import __version__
from . import analysis as ana
from . import evaluator as ev
from . import generator as gen
from . import providers as prov
from . import records as rec
from .errors import DataError, ProviderError
from .textmetrics import DEFAULT_BIN_EDGES, single_token_diff, validate_edges

CACHE_DIR_ENV = "CLSD_CACHE_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for usage errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Configuration file

def _edges(section: dict, key: str) -> tuple[tuple[float, float], ...]:
    pair = lambda p: isinstance(p, list) and len(p) == 2 and all(map(rec._is_real, p))
    edges = rec._list(section, key, pair, "[lo, hi] pairs of finite numbers")
    with rec._context(f"key {key!r}"):
        return validate_edges(edges)


def _seed(section: dict, key: str) -> int:
    seed = rec._int(section, key)
    if seed < 0:
        raise DataError(f"key {key!r} is not an integer >= 0")
    return seed


_PROVIDER_SECTIONS = ("embedding", "chat", "translation")
_PROVIDER_KEYS = {
    "endpoint": rec._str,
    "model_id": rec._str,
    "api_key_env": rec._optional_str,
    "max_batch": rec._int,
    "max_inflight": rec._int,
    "retry_attempts": rec._int,
    "retry_base_ms": rec._int,
}
# Every config section with its allowed keys and the reader of each value.
_SECTIONS = {
    **{kind: _PROVIDER_KEYS for kind in _PROVIDER_SECTIONS},
    "generation": {
        "max_retries": rec._int,
        "prompt_version": rec._str,
        "language_names": rec._str_map,
        "temperature": rec._real,
        "top_p": rec._real,
    },
    "analysis": {"bin_edges": _edges, "seed": _seed},
    "paths": {"cache_dir": rec._optional_str},
}


@dataclass(frozen=True)
class RunConfig:
    embedding: prov.ProviderConfig | None = None
    chat: prov.ProviderConfig | None = None
    translation: prov.ProviderConfig | None = None
    generation: dict | None = None  # GenerationConfig keyword arguments but ``chat``
    bin_edges: tuple[tuple[float, float], ...] | None = None
    seed: int | None = None
    cache_dir: str | None = None


def _run_config(raw: dict) -> RunConfig:
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise DataError(f"unknown config sections {sorted(unknown)}")
    fields: dict = {}
    for name, readers in _SECTIONS.items():
        section = raw.get(name)
        if section is None:  # an absent or null section keeps its defaults
            continue
        with rec._context(f"section {name!r}"):
            if not isinstance(section, dict):
                raise DataError("expected a JSON object")
            unknown = set(section) - set(readers)
            if unknown:
                raise DataError(f"unknown keys {sorted(unknown)}")
            values = {key: readers[key](section, key) for key in section}
            if name in _PROVIDER_SECTIONS:
                for key in ("endpoint", "model_id"):  # the keys without a default
                    rec._get(values, key)
                fields[name] = prov.ProviderConfig(kind=name, **values)
            elif name == "generation":
                params = {k: values.pop(k) for k in ("temperature", "top_p") if k in values}
                if "language_names" in values:
                    values["language_name_map"] = values.pop("language_names")
                fields[name] = {"params": prov.ChatParams(**params), **values}
            else:  # analysis and paths keys are RunConfig fields
                fields.update(values)
    return RunConfig(**fields)


def load_run_config(path: str | Path) -> RunConfig:
    """Load a config file; a bad value is a :class:`DataError` naming the file and section."""
    return rec._load_json(path, "", _run_config)


def _generation_config(config: RunConfig) -> gen.GenerationConfig:
    if config.chat is None:
        raise DataError("config has no 'chat' section; generation needs one")
    return gen.GenerationConfig(chat=config.chat, **(config.generation or {}))


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

# Flags naming input files, as argparse attributes; each file's digest goes
# into the manifest under this name. ``report --inputs`` adds ``report_<i>``.
_INPUT_FLAGS = (
    "corpus", "dataset", "report", "report_a", "report_b", "annotations", "norm"
)


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _input_files(args: argparse.Namespace) -> list[tuple[str, str, str]]:
    """(manifest name, flag, path) of each input file, sorted by name."""
    files = [(n, "--" + n.replace("_", "-"), getattr(args, n))
             for n in _INPUT_FLAGS if hasattr(args, n)]
    files += [(f"report_{i}", "--inputs", p) for i, p in enumerate(getattr(args, "inputs", ()))]
    return sorted(files)


def _refuse_overwrite(args: argparse.Namespace, config_path: str | None) -> None:
    """Refuse an ``--out``, or its manifest or log, that is an input file. Only
    paths that exist can be the same file, so absent outputs cost one stat."""
    inputs = [(flag, path) for _, flag, path in _input_files(args)]
    inputs += [("--config", config_path)] if config_path else []
    outs = (args.out, args.out + ".manifest.json", args.out + ".log.jsonl")
    for out in filter(os.path.exists, outs):
        for flag, path in inputs:
            if os.path.exists(path) and os.path.samefile(out, path):
                raise DataError(f"--out {args.out} would overwrite {path}, the {flag} file")


def _write_manifest(
    args: argparse.Namespace, config_path: str | None, seed: int | None
) -> None:
    payload = {  # keys in alphabetical order
        "command": args.command,
        "config_sha256": _sha256_file(config_path) if config_path else None,
        "inputs": {name: _sha256_file(path) for name, _, path in _input_files(args)},
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool": "clsd",
        "version": __version__,
    }
    rec._write_json(args.out + ".manifest.json", payload)


# ---------------------------------------------------------------------------
# Subcommands: each writes its output and returns (summary line, seed used)

def _cmd_generate(args: argparse.Namespace, config: RunConfig) -> tuple[str, int]:
    corpus = rec.load_parallel_corpus(args.corpus)
    gcfg = _generation_config(config)
    seed = args.seed if args.seed is not None else (config.seed or 0)
    instances, log = gen.generate_dataset(corpus, gcfg)
    rec.save_clsd_dataset(instances, args.out)
    rec._write_jsonl(
        Path(args.out + ".log.jsonl"),
        [{**asdict(e), "latency_ms": round(e.latency_ms, 3)} for e in log],
    )
    skipped = [e for e in log if e.outcome != "ok"]
    for entry in skipped:
        print(entry.message, file=sys.stderr)
    return f"generated {len(instances)} instances, skipped {len(skipped)}", seed


def _cmd_validate(args: argparse.Namespace, config: RunConfig) -> int:
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


def _cmd_stats(args: argparse.Namespace, config: RunConfig) -> tuple[str, None]:
    stats = gen.dataset_stats(rec.load_clsd_dataset(args.dataset))
    rec._write_json(args.out, stats.to_json())
    summary = (
        f"n={stats.n_instances} jaccard_mean={stats.jaccard_mean:.4f} "
        f"jaccard_std={stats.jaccard_std:.4f}"
    )
    return summary, None


def _cmd_eval(args: argparse.Namespace, config: RunConfig) -> tuple[str, None]:
    dataset = rec.load_clsd_dataset(args.dataset)
    embedder = _embedder(args.backend, config)
    report = ev.evaluate(embedder, dataset, dataset_id=Path(args.dataset).stem)
    ev.save_eval_report(report, args.out)
    return f"mode={report.mode} n={report.n} p_at_1={report.p_at_1:.4f}", None


def _cmd_pivot(args: argparse.Namespace, config: RunConfig) -> tuple[str, None]:
    if config.translation is None:
        raise DataError("config has no 'translation' section; pivot needs one")
    dataset = rec.load_clsd_dataset(args.dataset)
    translator = prov.make_translator(config.translation)
    instances, skipped = ev.pivot_dataset(dataset, translator, args.pivot_lang)
    rec.save_clsd_dataset(instances, args.out)
    for instance_id, reason in skipped:
        print(f"skipped {instance_id}: {reason}", file=sys.stderr)
    return f"pivoted {len(instances)} instances, skipped {len(skipped)}", None


def _cmd_compare(args: argparse.Namespace, config: RunConfig) -> tuple[str, None]:
    report_a = ev.load_eval_report(args.report_a)
    report_b = ev.load_eval_report(args.report_b)
    only_a, only_b = ev.disagreement(report_a, report_b)
    rec._write_json(args.out, {"success_only_a": only_a, "success_only_b": only_b})
    return f"only_a={len(only_a)} only_b={len(only_b)}", None


def _cmd_norm(args: argparse.Namespace, config: RunConfig) -> tuple[str, int]:
    corpus = rec.load_parallel_corpus(args.corpus)
    embedder = _embedder(args.backend, config)
    seed = args.seed if args.seed is not None else config.seed
    if seed is None:
        raise DataError("no seed: pass --seed or set analysis.seed in the config")
    norm = ana.normalization_factor(embedder, corpus, seed)
    ana.save_normalization(norm, args.out)
    return f"value={norm.value:.6f} n={norm.n_parallel} seed={seed}", seed


def _cmd_diff_annotate(args: argparse.Namespace, config: RunConfig) -> tuple[str, None]:
    instances = rec.load_clsd_dataset(args.dataset)
    lines = []
    for inst in instances:
        for index, distractor in enumerate(inst.distractors):
            diff = single_token_diff(inst.target, distractor)
            if diff is None:
                continue
            # pos is filled in downstream by a POS tagger plus human review
            lines.append(
                {"instance_id": inst.id, "distractor_index": index, **asdict(diff), "pos": ""}
            )
    rec._write_jsonl(Path(args.out), lines)
    return f"candidates={len(lines)}", None


def _cmd_shift(args: argparse.Namespace, config: RunConfig) -> tuple[str, None]:
    dataset = rec.load_clsd_dataset(args.dataset)
    annotations = rec.load_annotations(args.annotations)
    norm = ana.load_normalization(args.norm)
    embedder = _embedder(args.backend, config)
    annotated = {a.instance_id for a in annotations}
    with rec._context(str(args.norm)):
        ana.check_norm(norm, embedder, [i for i in dataset if i.id in annotated])
    with rec._context(str(args.annotations)):  # its data errors all concern an annotation
        table = ana.shift_analysis(embedder, dataset, annotations, norm)
    rec._write_atomic_text(Path(args.out), ana.shift_table_to_csv(table))
    any_stats = table.group(ana.ANY_GROUP)
    return f"records={any_stats.n} mean_cross_shift={any_stats.mean_cross_shift:.4f}", None


def _cmd_bins(args: argparse.Namespace, config: RunConfig) -> tuple[str, None]:
    report = ev.load_eval_report(args.report)
    dataset = rec.load_clsd_dataset(args.dataset)
    edges = config.bin_edges or DEFAULT_BIN_EDGES
    names = (f"report {args.report}", f"dataset {args.dataset}")
    table = ana.success_distribution(report, dataset, edges, names)
    rec._write_atomic_text(Path(args.out), ana.success_distribution_to_csv(table))
    if table.flagged:
        print("no successful distractors; percentages reported as 0", file=sys.stderr)
    return f"successful_distractors={table.n_successful}", None


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

    table = []  # (mode, model, cells + Average), grouped by mode
    for mode in modes:
        for model in sorted({k[1] for k in rows if k[0] == mode}):
            values = [rows.get((mode, model, d)) for d in datasets]
            present = [v for v in values if v is not None]
            cells = ["" if v is None else f"{100.0 * v:.2f}" for v in values]
            table.append((mode, model, cells + [f"{100.0 * sum(present) / len(present):.2f}"]))

    if fmt == "csv":
        lines = ["mode,model," + ",".join(datasets) + ",Average"]
        lines += [f"{mode},{model}," + ",".join(cells) for mode, model, cells in table]
        return "\n".join(lines) + "\n"

    lines = ["# Precision@1 (%)"]
    for mode in modes:
        lines.append("")
        lines.append(f"## {mode}")
        lines.append("")
        lines.append("| Model | " + " | ".join(datasets) + " | Average |")
        lines.append("| --- | " + " | ".join("---:" for _ in datasets) + " | ---: |")
        for row_mode, model, cells in table:
            if row_mode == mode:
                lines.append(f"| {model} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _cmd_report(args: argparse.Namespace, config: RunConfig) -> tuple[str, None]:
    rec._write_atomic_text(Path(args.out), render_report(args.inputs, args.format))
    return f"wrote {args.format} report for {len(args.inputs)} input(s)", None


# ---------------------------------------------------------------------------
# Command table and dispatch

_COMMANDS = (
    ("generate", "generate distractors for a parallel corpus",
     ("--corpus", "--config", "[--seed]", "--out"), _cmd_generate),
    ("validate", "check a dataset file against all invariants",
     ("--dataset",), _cmd_validate),
    ("stats", "word-overlap statistics for a dataset",
     ("--dataset", "--out"), _cmd_stats),
    ("eval", "rank targets against distractors, report P@1",
     ("--dataset", "[--backend]", "[--config]", "--out"), _cmd_eval),
    ("pivot", "translate a dataset into a pivot language",
     ("--dataset", "--config", "--pivot-lang", "--out"), _cmd_pivot),
    ("compare", "success-set disagreement between two reports",
     ("--report-a", "--report-b", "--out"), _cmd_compare),
    ("norm", "parallel-vs-unrelated similarity gap",
     ("--corpus", "[--backend]", "[--config]", "[--seed]", "--out"), _cmd_norm),
    ("diff-annotate", "emit single-token-swap candidates for POS annotation",
     ("--dataset", "--out"), _cmd_diff_annotate),
    ("shift", "normalized similarity shifts grouped by POS",
     ("--dataset", "--annotations", "--norm", "[--backend]", "[--config]", "--out"),
     _cmd_shift),
    ("bins", "successful distractors per edit-similarity bin",
     ("--report", "--dataset", "[--config]", "--out"), _cmd_bins),
    ("report", "aggregate eval reports into one table",
     ("--inputs", "[--format]", "--out"), _cmd_report),
)


def _seed_flag(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _lang_flag(text: str) -> str:
    if not rec._LANG_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected two lowercase letters, got {text!r}")
    return text


# argparse settings of the flags that do not take one string
_FLAG_KWARGS = {
    "--seed": {"type": _seed_flag},
    "--pivot-lang": {"type": _lang_flag},
    "--backend": {"help": "lexical[:dim] offline baseline"},
    "--inputs": {"nargs": "+"},
    "--format": {"choices": ("markdown", "csv"), "default": "markdown"},
}


@functools.cache  # built once per process and shared by every run()
def _build_parser() -> _Parser:
    parser = _Parser(prog="clsd", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"clsd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text, flags, handler in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            option = flag.strip("[]")
            p.add_argument(option, required=option == flag, **_FLAG_KWARGS.get(option, {}))
        p.set_defaults(func=handler)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    config_path = getattr(args, "config", None)
    if hasattr(args, "out"):
        _refuse_overwrite(args, config_path)
    config = load_run_config(config_path) if config_path else RunConfig()
    result = args.func(args, config)
    if isinstance(result, int):  # validate: no output file, its own exit code
        return result
    summary, seed = result
    _write_manifest(args, config_path, seed)
    print(summary)
    return 0


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except ProviderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(run(sys.argv[1:]))
