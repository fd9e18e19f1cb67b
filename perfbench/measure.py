"""Small statistics helpers shared by the runner and the workloads."""

from __future__ import annotations

import resource
import statistics
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np


class CheckFailed(Exception):
    """The engine returned a wrong result: the run fails, nothing is
    reported as a number."""


def median(xs: Sequence[float]) -> float:
    if not xs:
        raise ValueError("median of no samples")
    return float(statistics.median(xs))


def percentile(xs: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0..1) of ``xs``."""
    s = sorted(xs)
    if not s:
        raise ValueError("percentile of no samples")
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return float(s[lo] + (s[hi] - s[lo]) * (pos - lo))


def tail(xs: Sequence[float], want: float = 0.99) -> Tuple[float, float]:
    """(q, value): the ``want`` percentile when at least ten samples lie
    beyond it, otherwise the highest percentile that has ten beyond it
    (the median when there are fewer than twenty samples)."""
    n = len(xs)
    q = min(want, max(0.5, 1.0 - 10.0 / n)) if n else 0.5
    return q, percentile(xs, q)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (Q3 - Q1) / median, quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def reference_task() -> int:
    """Fixed CPU work (Python dict updates and a NumPy sort) that uses no
    engine code, so no engine change can alter its time."""
    d: Dict[int, int] = {}
    for i in range(12000):
        k = i % 512
        d[k] = d.get(k, 0) + i
    a = np.arange(120000, dtype=np.int64)[::-1].copy()
    a.sort()
    return len(d) + int(a[0])


# median reference_task() seconds on the development host (a 4-vCPU
# VM): the unit in which host-normalised times are expressed
REFERENCE_S = 0.0055


class HostSpeed:
    """Host speed during a run, from ``reference_task`` timed in short
    slices between (never inside) timed operations.  The VM's speed
    drifts by +-20% over seconds and more over minutes; a time multiplied
    by ``factor()`` is expressed at the reference speed, so the drift
    cancels between runs made at different moments."""

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.samples: List[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_task()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def tick(self) -> None:
        """Sample if ``every_s`` has passed since the last sample."""
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def factor(self) -> float:
        return REFERENCE_S / median(self.samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def same_ranking(got: List[Tuple[int, float]], want: List[Tuple[int, float]],
                 want_scores: Dict[int, float], what: str) -> None:
    """Engine top-k ``got`` against oracle top-k ``want`` at 6 decimal
    places.  Scores must agree position by position; every returned doc
    must carry its oracle score.  Docs whose scores tie at 6dp may swap
    (summation order differs below 1e-6), nothing else may."""
    if len(got) != len(want):
        raise CheckFailed(f"{what}: {len(got)} hits, oracle {len(want)}")
    for i, ((gd, gs), (_, ws)) in enumerate(zip(got, want)):
        if round(gs, 6) != round(ws, 6):
            raise CheckFailed(f"{what}: rank {i} score {gs:.6f}, "
                              f"oracle {ws:.6f}")
        if gd not in want_scores or abs(want_scores[gd] - gs) > 1e-6:
            raise CheckFailed(f"{what}: rank {i} doc {gd} is not an oracle "
                              f"hit with score {gs:.6f}")
