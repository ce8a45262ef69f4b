"""Machine-speed calibration for CPU-bound timings.

On a shared host CPU speed drifts: on the 2-vCPU host this benchmark was
tuned on, by about 20% over tens of seconds, with whole minutes running
slow.  A fixed reference kernel, timed next to each measured interval,
tracks that drift: an interval of t seconds measured while the kernel took
c seconds is reported as t * REFERENCE_S / c, the time it would have taken
at the speed where the kernel takes REFERENCE_S.  The kernel mixes the
kinds of work hopground's CPU-bound code does: regex tokenization,
counting, numpy scatter-add and a stable argsort.  The kernel is part of
the benchmark, so a change to the program cannot move it.
"""

from __future__ import annotations

import re
import statistics
import time
from collections import Counter

import numpy as np

REFERENCE_S = 0.01
_REPEATS = 5
_TOKEN_RE = re.compile(r"[^\W_]+")
_TEXT = " ".join(f"word{i % 97} Alpha{i % 13}" for i in range(600))
_RNG = np.random.default_rng(0)
_VALUES = _RNG.random(100_000)
_INDEX = np.unique(_RNG.integers(0, 100_000, 60_000))


def _kernel() -> None:
    Counter(_TOKEN_RE.findall(_TEXT.lower()))
    scores = np.zeros(_VALUES.size)
    scores[_INDEX] += _VALUES[_INDEX] * 2.2 / (_VALUES[_INDEX] + 1.0)
    candidates = np.flatnonzero(scores)
    np.argsort(-scores[candidates], kind="stable")


def kernel_seconds() -> float:
    """Median time of one reference kernel run, over a few runs."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` at the reference speed."""
    return seconds * REFERENCE_S / kernel_s
