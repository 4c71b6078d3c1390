"""Machine-speed calibration: scale a run's times to a fixed machine speed.

On a shared machine the same computation runs up to a third slower or
faster for tens of seconds to minutes at a time, because of what other
tenants run on the same cores (process CPU time moves with wall time, so
this is not descheduling).  A run lasts under a minute, so such spells move
every time of a run together and dominate the run-to-run spread.  The
benchmark therefore runs a fixed kernel after every timed operation (one
run per `SPACING_S` of measured time, so the runs cover the measured time
evenly) and multiplies the run's times of that kind of operation by
`NOMINAL_S[kind] / median(that kernel's times in the run)`.  Operations
differ in how a busy neighbour slows them, so each kind has the kernel
whose factor steadied it most over sets of runs: `kernel` (small
numpy/LAPACK calls in an interpreter loop) for library calls and set-up,
`kernel_pool` (the same on one thread per CPU at once) for the CLI's
`estimate` and `evaluate` commands.  The median over a run's many kernel
runs is precise, so the correction adds little noise of its own.
Times are thus reported at the machine speed at which the kernels take
`NOMINAL_S`; the raw times and the factors are kept beside the results.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

# Kernel times on the reference machine (2 CPUs, Python 3.11, numpy 2.4 with
# OpenBLAS) when no other tenant slows it down.
NOMINAL_S = {"numpy": 0.0120, "pool": 0.0240}
POOL_THREADS = os.cpu_count() or 1
SPACING_S = 0.25

_RNG = np.random.default_rng(20221012)
_POINTS = _RNG.standard_normal((300, 3))
_MATRIX = _RNG.standard_normal((9, 9))
_ROTATION = np.linalg.qr(_RNG.standard_normal((3, 3)))[0]


def kernel() -> float:
    """A fixed computation: small SVDs, polynomial roots, row-wise numpy work, Python loops."""
    total = 0.0
    for i in range(120):
        _, s, _ = np.linalg.svd(_MATRIX)
        moved = _POINTS @ _ROTATION.T + s[:3]
        distances = np.sqrt((moved * moved).sum(axis=1))
        total += float(np.minimum(distances, 2.0).sum()) + 0.5 * i
        total += float(np.abs(np.roots([1.0, -2.0, s[0], -s[1], s[2]])).sum())
    return total


def kernel_pool() -> None:
    """`kernel` on one thread per CPU at once, as the CLI's default worker pool runs."""
    threads = [threading.Thread(target=kernel) for _ in range(POOL_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


KERNELS = {"numpy": kernel, "pool": kernel_pool}


class Calibration:
    """Kernel times spread over a run, in proportion to the time measured."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {kind: [] for kind in KERNELS}

    def after(self, elapsed: float, kind: str = "numpy") -> None:
        """Runs of one kernel after an operation that took `elapsed` seconds: one per SPACING_S, at least one."""
        run = KERNELS[kind]
        for _ in range(max(1, round(elapsed / SPACING_S))):
            start = time.perf_counter()
            run()
            self.samples[kind].append(time.perf_counter() - start)

    def factor(self, kind: str = "numpy") -> float:
        """Multiplier that brings the run's times to the nominal machine speed."""
        return NOMINAL_S[kind] / statistics.median(self.samples[kind])
