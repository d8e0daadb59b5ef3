"""Machine-speed reference, so timings from a shared host can be compared.

On a small shared machine the same work can run 25% faster or slower from
one minute to the next, for reasons outside the process (other tenants,
clock frequency). A fixed probe kernel that uses no lexner code is timed
right before and right after each timed piece of work; the work's time is
rescaled by `NOMINAL_PROBE_S` over the mean of those two probe times. The
scaled times read as seconds on a machine where one probe call takes
`NOMINAL_PROBE_S`; the raw times are kept in the run's record.
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL_PROBE_S = 0.010


class SpeedProbe:
    """A mix like lexner's hot paths: Python loops, small numpy products and
    scattered row updates of a table larger than the caches."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._wx = rng.random((24, 96))
        self._x = rng.random((10, 24))
        self._wo = rng.random((24, 64))
        self._table = rng.random((100_000, 50))
        self._rows = rng.integers(0, 100_000, size=(40, 64))
        self.samples: list[float] = []

    def _kernel(self) -> float:
        acc = 0.0
        counts: dict[int, int] = {}
        for i in range(300):
            a = np.tanh(self._x @ self._wx)
            g = 1.0 / (1.0 + np.exp(-a[:, :24]))
            acc += float((g @ self._wo).sum())
            for j in range(24):
                counts[j % 7] = counts.get(j % 7, 0) + i
        for rows in self._rows:
            h = self._table[rows]
            np.add.at(self._table, rows, -1e-12 * h)
            acc += float(h[:, 0].sum())
        return acc

    def measure(self, calls: int) -> float:
        """Mean seconds per probe call over `calls` calls."""
        t0 = time.perf_counter()
        for _ in range(calls):
            self._kernel()
        per_call = (time.perf_counter() - t0) / calls
        self.samples.append(per_call)
        return per_call

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale for work timed between two probes."""
        return NOMINAL_PROBE_S / ((before + after) / 2)

    def summary(self) -> dict:
        ms = sorted(s * 1000 for s in self.samples)
        if not ms:
            return {}
        return {"probe_ms_median": ms[len(ms) // 2], "probe_ms_min": ms[0],
                "probe_ms_max": ms[-1], "probes": len(ms), "nominal_ms": NOMINAL_PROBE_S * 1000}
