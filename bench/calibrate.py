"""A fixed reference kernel that tracks the speed of the host CPU.

On a shared machine the speed of a vCPU changes by up to 2x from one
fraction of a second to the next (another tenant on the same core), and
the mix of fast and slow stretches changes over minutes. A wall-clock
throughput of CPU-bound work then measures the host as much as the
program. The benchmark times this kernel right before and right after
every timed block, outside it, and scales the user-mode CPU time of the
block to a CPU on which the kernel takes ``NOMINAL_S`` (see ``scaled``).

The kernel uses no clsd code, so a change to the program leaves it alone:
the scaled time of a block moves by exactly as much as its wall time would
on a host of steady speed. It mixes the kinds of work the program does:
interpreted loops over strings and dicts, SHA-256 of short strings, small
numpy array operations, and JSON encoding and decoding.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

NOMINAL_S = 0.005  # the kernel took 2.3 ms (fast) to 4.7 ms (slow) on a 2-CPU Xeon VM
REPEATS = 3

_WORDS = [f"mot{i % 37}-{i % 11}" for i in range(240)]
_A = "le gouvernement prépare une nouvelle loi sur le budget de l'éducation"
_B = "le gouvernement prévoit une nouvelle loi sur les dépenses de l'éducation"


def kernel() -> int:
    counts: dict[int, int] = {}
    for word in _WORDS:
        padded = "\x00" + word.lower() + "\x00"
        for i in range(len(padded) - 2):
            bucket = hashlib.sha256(padded[i : i + 3].encode("utf-8")).digest()[0]
            counts[bucket] = counts.get(bucket, 0) + 1
    n = len(_B)
    codes = np.fromiter((ord(c) for c in _B), dtype=np.int64, count=n)
    offsets = np.arange(n + 1, dtype=np.int64)
    prev = offsets.copy()
    for i, ch in enumerate(_A, 1):
        row = np.empty_like(prev)
        row[0] = i
        row[1:] = np.minimum(prev[1:] + 1, prev[:-1] + (codes != ord(ch)))
        prev = np.minimum.accumulate(row - offsets) + offsets
    rows = [{"id": f"x{i}", "tokens": _A.split(), "sim": i / 7} for i in range(40)]
    decoded = [json.loads(json.dumps(row, ensure_ascii=False)) for row in rows]
    return int(prev[-1]) + len(counts) + len(decoded)


def scaled(elapsed_s: float, user_s: float, kernel_s: float) -> float:
    """Wall time with its user-mode CPU share run at the reference speed.

    ``user_s`` is the user CPU time spent in the ``elapsed_s`` (capped at
    it); system time and time off the CPU count as measured.
    """
    user_s = min(elapsed_s, max(0.0, user_s))
    return elapsed_s - user_s * (1.0 - NOMINAL_S / kernel_s)


def sample() -> float:
    """Median wall time of ``REPEATS`` kernel calls, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
