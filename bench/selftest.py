"""Self-test of the benchmark at a tiny size; it checks no timings.

    python3 bench/selftest.py

For every workload it checks the output schema of a plain and a traced run
against BENCHMARK.json, that all correctness checks pass on the default
seed, and that changing one byte of any digested output fails the check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed",
         str(run.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected, f"{workload} {section}: {set(got) ^ set(expected)}"
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}, name
            assert isinstance(metric["value"], (int, float)), name


def check_one_byte_changes_fail(workload: str) -> None:
    """Every digested output is covered: flipping one byte must be caught."""
    sys.path.insert(0, str(run.SRC))
    import workloads

    wl = workloads.WORKLOADS[workload](run.DEFAULT_SEED, "tiny")
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        round_dir = Path(tmp)
        (round_dir / "cold").mkdir()
        (round_dir / "warm").mkdir()
        inp = wl.prepare(0, round_dir)
        for cold in (True, False):
            result = wl.run_pass(inp, round_dir / ("cold" if cold else "warm"), cold=cold)
            assert not result.errors, result.errors
        assert not wl.check(inp, round_dir / "cold", round_dir / "warm")
        outputs = wl.outputs(round_dir / "cold")
        assert not run.digest_errors(workload, "tiny", outputs)
        for name, data in outputs.items():
            for offset in (0, len(data) // 2, len(data) - 1):
                changed = bytearray(data)
                changed[offset] ^= 0x01
                assert run.digest_errors(workload, "tiny", {**outputs, name: bytes(changed)}), (
                    f"{workload}: a changed byte in {name} went unnoticed")
        # the byte-level warm/cold comparison catches a change as well
        name = next(iter(outputs))
        path = round_dir / "warm" / name
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert wl.check(inp, round_dir / "cold", round_dir / "warm")


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_schema(workload)
        check_one_byte_changes_fail(workload)
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
