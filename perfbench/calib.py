"""Fixed reference work that measures how fast the host runs right now.

The benchmark's host is shared: the same code takes up to 1.5 times as long
at some times as at others, and the speed changes from one second to the
next as well as over minutes.  A run of the benchmark can sit inside a slow
stretch, so medians over its repetitions cannot remove it.  The benchmark
therefore times reference work during and next to the measured work and
reports host times scaled to the reference: seconds as they would read on
the host at the speed it had when the reference constants were measured.

- kernel() stands for the simulator's hot loops.  Sampler runs it every
  INTERVAL_S of wall time from a timer signal, all through the measured
  cells; a repetition's wall time, less the kernels' time, is scaled by
  REFERENCE_S / (mean kernel time).  The tracer's spans leave the kernels'
  time out as well.
- import_probe_s() stands for set-up: a fresh interpreter that imports numpy
  and yaml.  Set-up samples alternate with probes, and each is scaled by
  IMPORT_REFERENCE_S / (mean of the probes on either side).

Neither imports anything from mecshield, so a change to the simulator cannot
move them.  The kernel mixes the simulator's three kinds of hot work: sorted
numpy samples turned into Python floats (traffic generation), a Python loop
over those floats (feature extraction) and small-array numpy updates of a
20 x 20 map (SOM training).
"""
from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# Mean times on a 2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6, in a fast
# stretch.  They only set the scale of the reported seconds.
REFERENCE_S = 0.0045
IMPORT_REFERENCE_S = 0.12

INTERVAL_S = 0.1       # wall time between kernels sampled during the cells

_PROBE = "import time, numpy, yaml; print(time.perf_counter())"


def kernel() -> float:
    rng = np.random.default_rng(12345)
    flows = [[float(t) for t in np.sort(rng.uniform(0.0, 30.0, size=1000))]
             for _ in range(5)]
    total = 0.0
    for ts in flows:
        covered, cur_start, cur_end = 0.0, None, None
        for t in ts:
            a, b = max(t, 1.0), min(t + 0.01, 29.0)
            if b <= a:
                continue
            if cur_end is None:
                cur_start, cur_end = a, b
            elif a <= cur_end:
                cur_end = max(cur_end, b)
            else:
                covered += cur_end - cur_start
                cur_start, cur_end = a, b
        total += covered
    weights = rng.uniform(size=(400, 5))
    coords = np.array([(i, j) for i in range(20) for j in range(20)], dtype=float)
    for v in rng.uniform(size=(33, 5)):
        win = int(np.argmin(np.einsum("ij,ij->i", weights - v, weights - v)))
        diff = coords - coords[win]
        d2 = np.einsum("ij,ij->i", diff, diff)
        mask = d2 <= 9.0
        h = np.exp(-d2[mask] / 18.0)
        weights[mask] += 0.05 * h[:, None] * (v - weights[mask])
        np.clip(weights, 0.0, 1.0, out=weights)
    return total + float(weights.sum())


def _timed_kernel() -> float:
    # a collection started by the kernel would sweep the simulator's heap
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def timed(n: int) -> list[float]:
    """Times of n kernels run back to back."""
    return [_timed_kernel() for _ in range(n)]


class Sampler:
    """Times one kernel every INTERVAL_S of wall time while started.

    The kernels run in a SIGALRM handler, between two bytecodes of whatever
    the main thread is doing.  spent_s is the wall time the handler took.
    """

    def __init__(self):
        self.times: list[float] = []
        self.spent_s = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:          # a tick that arrives during a kernel is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self.times.append(_timed_kernel())
        self.spent_s += time.perf_counter() - t0
        self._busy = False

    def work_clock(self) -> float:
        """perf_counter() less the time spent in kernels so far."""
        return time.perf_counter() - self.spent_s

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def import_probe_s(cwd) -> float:
    """Seconds from spawning a fresh interpreter until numpy and yaml are imported."""
    t_spawn = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", _PROBE], cwd=cwd, capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout) - t_spawn


def scale(times: list[float]) -> float:
    """Factor from host seconds to reference seconds, given kernel times."""
    return REFERENCE_S / statistics.fmean(times)


if __name__ == "__main__":
    kernel()
    times = timed(101)
    print(f"kernel mean {statistics.fmean(times):.5f} s, median "
          f"{statistics.median(times):.5f}, min {min(times):.5f}, max {max(times):.5f}")
