"""Offline benchmark of the clsd pipeline.

    python3 bench/run.py --workload cli-score --seed 0 --seconds 10 --trace 0

Runs one workload from a seed, checks that every output is correct, and
prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from spans recorded around the calls into each layer. The program is
imported from ``src/`` of the checkout this file sits in; the command fails
without printing a result when that source tree is absent.

The run repeats rounds until ``--seconds`` of timed work are done. A round
makes fresh inputs (not timed), runs a cold and a warm pass over them
(timed), then checks the outputs (not timed). Timed blocks have their
user-mode CPU time scaled to a reference CPU speed (see ``calibrate``), and
throughputs come from the scaled times. Every figure is a median over rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 9
MIN_ROUNDS = 3
WALL_LIMIT_S = 120.0

# Set-up: a fresh interpreter imports clsd and builds the workload's backends
# and configs. Each snippet gets the start time and a scratch directory.
_SETUP = {
    "cli-score": """
from clsd import cli, providers
cli.run(["--version"])
providers.LexicalEmbedder(), providers.LexicalEmbedder(128)
""",
    "service-cache": """
import json, os
from clsd import cli, providers
path = os.path.join(scratch, "config.json")
with open(path, "w") as fh:
    json.dump({"embedding": {"endpoint": "fake://embed", "model_id": "m",
                             "max_inflight": 2, "retry_base_ms": 1}}, fh)
cfg = cli.load_run_config(path).embedding
cache = providers.EmbeddingCache(os.path.join(scratch, "cache"))
providers.ServiceEmbedder(cfg, cache=cache, transport=lambda endpoint, payload: {})
""",
    "generate-pivot": """
import json, os
from clsd import cli, evaluator, generator, providers
path = os.path.join(scratch, "config.json")
section = {"model_id": "m", "max_inflight": 2, "retry_base_ms": 1}
with open(path, "w") as fh:
    json.dump({"chat": {"endpoint": "replay:r.jsonl", **section},
               "translation": {"endpoint": "fake://translate", **section}}, fh)
cfg = cli.load_run_config(path)
generator.GenerationConfig(chat=cfg.chat)
providers.make_translator(cfg.translation, transport=lambda endpoint, payload: {})
""",
}
_SETUP_FRAME = """
import sys, time
t0, scratch = float(sys.argv[1]), sys.argv[2]
{body}
print(time.monotonic() - t0)
"""


def _refuse_socket(*args, **kwargs):
    raise RuntimeError("the benchmark is offline: a socket was opened")


def measure_setup(workload: str, scratch: Path) -> tuple[float, float]:
    """Median time from interpreter start to built backends: wall-clock, and
    with its user CPU time scaled to the reference speed (see ``calibrate``).

    Each fresh interpreter runs for about as long as the host takes to
    switch between its fast and slow states, so the kernel time used for
    scaling is the mean over probes taken between all the repeats, not the
    probes next to one repeat.
    """
    code = _SETUP_FRAME.format(body=_SETUP[workload])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times, users, kernel = [], [], [calibrate.sample()]
    for _ in range(SETUP_REPEATS):
        user0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code, repr(t0), str(scratch)],
            env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        users.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime - user0)
        kernel.append(calibrate.sample())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    kernel_s = statistics.fmean(kernel)
    scaled = [calibrate.scaled(t, u, kernel_s) for t, u in zip(times, users)]
    return statistics.median(times), statistics.median(scaled)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


def digest_errors(workload: str, size: str, outputs: dict[str, bytes]) -> list[str]:
    expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(size)
    if expected is None:
        return [f"no committed digests for {workload}/{size}"]
    actual = _digests(outputs)
    return [
        f"digest of {name} differs from the committed one"
        for name in sorted(set(expected) | set(actual))
        if expected.get(name) != actual.get(name)
    ]


def record_digests(workload: str, size: str, outputs: dict[str, bytes]) -> None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    table.setdefault(workload, {})[size] = _digests(outputs)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run(args: argparse.Namespace, work: Path) -> tuple[dict, int, int, list[str]]:
    import layers
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, tracer)
    errors: list[str] = []
    attempted = failed = 0
    plain: list[dict] = []  # untraced rounds: cold/warm seconds and units
    traced: list[dict] = []
    timed = 0.0
    wall0 = time.monotonic()
    r = 0
    while r < MIN_ROUNDS + args.trace or timed < args.seconds:
        if time.monotonic() - wall0 > WALL_LIMIT_S:
            break
        round_dir = work / f"round{r}"
        (round_dir / "cold").mkdir(parents=True)
        (round_dir / "warm").mkdir()
        inp = wl.prepare(r, round_dir)
        use_trace = tracer is not None and r % 2 == 1
        if use_trace:
            spans.install_layers(tracer)
            tracer.clear()
        try:
            cold = wl.run_pass(inp, round_dir / "cold", cold=True)
            warm = wl.run_pass(inp, round_dir / "warm", cold=False)
        finally:
            if use_trace:
                tracer.uninstall()
        round_errors = cold.errors + warm.errors
        if not round_errors:
            round_errors = wl.check(inp, round_dir / "cold", round_dir / "warm")
        if r == 0 and args.seed == DEFAULT_SEED and not round_errors:
            outputs = wl.outputs(round_dir / "cold")
            if args.record_digests:
                record_digests(args.workload, args.size, outputs)
            else:
                round_errors += digest_errors(args.workload, args.size, outputs)
        attempted += cold.ops + warm.ops
        failed += len(round_errors)
        errors += [f"round {r}: {e}" for e in round_errors]
        entry = {"cold_s": cold.scaled, "warm_s": warm.scaled, "units": cold.units,
                 "raw_s": cold.seconds + warm.seconds,
                 "ops": cold.ops + warm.ops, "failed_ops": cold.failed_ops + warm.failed_ops}
        if use_trace:
            entry["layers"] = layers.round_metrics(tracer, round_dir)
            traced.append(entry)
        else:
            plain.append(entry)
        timed += cold.seconds + warm.seconds
        print(f"round {r}{' traced' if use_trace else ''}: {cold.units} {wl.unit}, "
              f"cold {cold.seconds:.3f} s ({cold.scaled:.3f} scaled), "
              f"warm {warm.seconds:.3f} s ({warm.scaled:.3f} scaled)", file=sys.stderr)
        # Deleting each round's files right away spreads the cost the disk pays
        # for deletions evenly over every run; keeping them to the end of a run
        # made file creation in the next run up to 2x slower.
        shutil.rmtree(round_dir)
        r += 1
        if errors:
            break

    if args.trace:
        tracer.dump(work / "trace.jsonl")
        metrics = layers.summarize(tracer, traced, plain)
        if tracer.missing:
            for name, why in sorted(tracer.missing.items()):
                print(f"missing per-layer metric {name}: {why}", file=sys.stderr)
    else:
        rate = layers.rate
        raw = rate([2 * e["units"] / e["raw_s"] for e in plain])
        setup_raw, setup_scaled = measure_setup(args.workload, work)
        print(f"unscaled wall-clock figures: setup_s {setup_raw:.4f}, inst_per_s {raw:.2f}",
              file=sys.stderr)
        metrics = {
            "inst_per_s": _metric(
                rate([2 * e["units"] / (e["cold_s"] + e["warm_s"]) for e in plain]), "1/s"),
            "cold_inst_per_s": _metric(rate([e["units"] / e["cold_s"] for e in plain]), "1/s"),
            "warm_inst_per_s": _metric(rate([e["units"] / e["warm_s"] for e in plain]), "1/s"),
            "setup_s": _metric(setup_scaled, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "failed_op_frac": _metric(
                sum(e["failed_ops"] for e in plain) / max(1, sum(e["ops"] for e in plain)),
                "fraction"),
        }
    return metrics, attempted, failed, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(_SETUP))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="tiny is for the self-test only")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store output digests for seed {DEFAULT_SEED} instead of checking")
    args = parser.parse_args(argv)

    if not (SRC / "clsd" / "__init__.py").is_file():
        print(f"error: no clsd source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import clsd

    if Path(clsd.__file__).resolve().parent != (SRC / "clsd").resolve():
        print(f"error: imported clsd from {clsd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    socket.socket = _refuse_socket  # type: ignore[misc, assignment]
    socket.create_connection = _refuse_socket  # type: ignore[assignment]

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        metrics, attempted, failed, errors = run(args, work)
    except Exception:  # the program crashed: report it as incorrect
        traceback.print_exc()
        metrics, attempted, failed, errors = {}, 1, 1, ["the workload raised"]
    finally:
        trace_file = work / "trace.jsonl"
        if trace_file.exists():
            trace_file.replace(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
        shutil.rmtree(work, ignore_errors=True)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
