"""Reference kernels that measure the machine's speed next to each operation.

On a shared host the speed of the same code drifts by 20-40% over tens of
seconds, far more than the program's own run-to-run spread.  A fixed
kernel, shaped like a workload's work and using no relaysec code, is
timed before and after every operation (and during long ones, see
``sampling``) and after every set-up; each wall time is then quoted at
the nominal speed, the speed at which the kernel takes ``nominal_s``.  A
faster program still reads faster by the same factor.

numpy is imported on first use, so that importing this module does not
move numpy's import out of the set-up being timed.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time


class Reference:
    def __init__(self, make_data, kernel, nominal_s: float):
        self._make_data = make_data
        self._kernel = kernel
        self._data = None
        self._busy = False
        self.nominal_s = nominal_s
        self.samples: list[float] = []  # kernel times taken by ``sampling``

    def seconds(self, runs: int = 1) -> float:
        """Median wall time of ``runs`` kernel runs, garbage collection off.

        With gc off the program's heap, however large, cannot slow the
        kernel down.
        """
        if self._data is None:
            self._data = self._make_data()
        enabled = gc.isenabled()
        gc.disable()
        self._busy = True
        try:
            times = []
            for _ in range(runs):
                t0 = time.perf_counter()
                self._kernel(self._data)
                times.append(time.perf_counter() - t0)
        finally:
            self._busy = False
            if enabled:
                gc.enable()
        return statistics.median(times)

    @contextlib.contextmanager
    def sampling(self, every_s: float):
        """Also time the kernel every ``every_s`` of wall time, from SIGALRM.

        For operations of several seconds, whose speed changes within
        them; the caller subtracts ``sum(samples)`` from its wall time.
        """

        def on_alarm(signum, frame):
            if not self._busy:
                self.samples.append(self.seconds())

        self.samples = []
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def at_nominal(self, seconds: float, ref_s: float) -> float:
        """A wall time measured while the kernel took ``ref_s``, at nominal speed."""
        return seconds * self.nominal_s / ref_s


def _small_vector():
    import numpy as np

    return np.arange(4.0)


def _calls(a):
    """Small-array numpy calls and Python glue, like a protocol trial or a census loop."""
    import numpy as np

    acc, seen = 0, {}
    for i in range(2000):
        b = np.floor(a / 3.0 + 0.5) * 3.0
        acc += int(b[i & 3]) + (i * 7) % 13
        seen[i & 63] = acc
        tuple(int(x) for x in a)


def _bulk_array():
    import numpy as np

    return (np.arange(1 << 21, dtype=np.int64) * 7919) % 1001  # 16 MB


def _bulk(a):
    """Passes over a 16 MB array, like the leakage joint tables' memory traffic.

    Smaller arrays stay in cache and miss the memory-bandwidth contention
    that slows the scan; no temporaries are made, so the array is the
    kernel's only memory.
    """
    import numpy as np

    for _ in range(2):
        np.bincount(a, minlength=1001)
        a.sum()
        a.max()


def _small_matrices():
    import numpy as np

    rng = np.random.default_rng(0)
    return [rng.integers(0, 3, size=(4, 4)) for _ in range(300)]


def _rows(mats):
    """Row reduction of 4x4 integer matrices mod 3, like the verify censuses' loops."""
    for m in mats:
        a = m.copy()
        rank = 0
        for col in range(4):
            pivot = next((row for row in range(rank, 4) if a[row, col] != 0), None)
            if pivot is None:
                continue
            a[[rank, pivot]] = a[[pivot, rank]]
            a[rank] = (a[rank] * int(a[rank, col])) % 3
            for row in range(4):
                if row != rank and a[row, col] != 0:
                    a[row] = (a[row] - a[row, col] * a[rank]) % 3
            rank += 1


# nominal times: about each kernel's median on the machine the benchmark was sized on
CALLS = Reference(_small_vector, _calls, 0.014)
ROWS = Reference(_small_matrices, _rows, 0.018)
BULK = Reference(_bulk_array, _bulk, 0.011)
