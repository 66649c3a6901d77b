"""A fixed reference kernel that tracks how fast the host runs right now.

The host this benchmark was built on is shared: over minutes its speed
swings by 20-40 % with its neighbours' load (CPU time tracks wall time, so
the slowdown is not preemption), and medians of raw timings from two
30-second runs can differ by that much although the code is the same.
The kernel below does the kind of work emvalm does (einsum, exp and cumprod
over 2521-long vectors, Philox normal and Student-t draws, small Python
calls and dict lookups) but none of emvalm's code, so no change to the package moves it.  Timing it
just before and just after an operation and scaling the operation's seconds
by ``REFERENCE_S / kernel seconds`` gives seconds at the reference speed;
the swings cancel to a few percent.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the reference host: 2-core Intel Xeon at 2.1 GHz,
# Python 3.11, numpy 2.4.
REFERENCE_S = 1.9e-3
SAMPLES = 5


class Gauge:
    """Median time of the reference kernel over a few back-to-back runs."""

    def __init__(self):
        tau = np.linspace(10.0, 0.0, 2521)  # the desk horizon's 2520 periods
        sig = np.linspace(0.3, 0.9, 2521)
        self._feats = (sig[:, None] ** np.arange(3))[:, :, None] * (
            tau[:, None] ** np.arange(1, 3)
        )[:, None, :]
        self._grid = np.full((3, 2), 1e-3)
        self._rng = np.random.Generator(np.random.Philox(7))
        self._names = [f"k{j}" for j in range(50)]
        self._table = {name: float(j) for j, name in enumerate(self._names)}

    def _lookup(self, i: int) -> float:
        return self._table[self._names[i % 50]] * 1e-9

    def _kernel(self) -> float:
        feats, acc = self._feats, 0.0
        n = len(feats) - 1
        for _ in range(8):
            e = np.exp(np.einsum("tij,ij->t", feats, self._grid))
            draws = self._rng.standard_normal(n)
            draws[: n // 4] += 1e-2 * self._rng.standard_t(10.0, n // 4)
            path = np.concatenate(([1.0], np.cumprod(1.0 + 1e-4 * draws)))
            acc += float(np.einsum("t,tij->ij", e[:-1] * path[1:], feats[:-1])[0, 0])
        for i in range(1500):
            acc += self._lookup(i)
        return acc

    def seconds(self) -> float:
        times = []
        for _ in range(SAMPLES):
            start = perf_counter()
            self._kernel()
            times.append(perf_counter() - start)
        return statistics.median(times)
