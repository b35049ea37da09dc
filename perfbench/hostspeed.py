"""Host speed, sampled by a fixed calibration kernel all through a pass.

On a shared host the speed of a core drifts by tens of percent over seconds
to minutes, and CPU time drifts with wall time, so the drift is in the work
done per second, not in scheduling.  While a pass runs, a timer signal runs
the kernel every PERIOD_S seconds in the pass's own thread, so the kernel
sees the same host as the pass, across the whole pass.  The pass's wall time
without the kernel runs, times `REFERENCE_S / mean kernel time`, is its wall
time at the reference host speed.  The kernel never touches lorahop, so only
the host, not the program, moves its time.  It mixes what lorahop passes do:
tiny numpy calls in a Python loop (batched training, single-vector
`forward`), dict look-ups over Python objects, and number formatting (CSV
and JSON writing).
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Mean kernel time on the 2-core x86-64 host where the bounds were set, so
# that wall_ref_s reads close to the wall seconds of a pass there.
REFERENCE_S = 0.0042
# One kernel run (about 4 ms) every 0.1 s costs the pass about 4%.
PERIOD_S = 0.1

_W = np.random.default_rng(0).standard_normal((10, 10)) / 4


def kernel():
    x = np.ones((32, 10))
    acc = {}
    for i in range(250):
        x = np.tanh(x @ _W)
        acc[i % 97] = acc.get(i % 97, 0.0) + float(x[0, 0]) * (i & 7)
    rows = [(i, i * 0.5, str(i)) for i in range(3000)]
    by_key = {row[2]: row for row in rows}
    total = sum(by_key[str(i * 7919 % 3000)][1] for i in range(0, 3000, 3))
    text = ",".join(f"{i}:{v:.2f}" for i, v, _ in rows[::4])
    return len(text) + total + sum(acc.values())


class Sampler:
    """Context manager: runs the kernel once on entry and every PERIOD_S
    seconds until exit.  Afterwards `busy_s` is the time spent in the kernel
    and `kernel_s` the mean time of one kernel run."""

    def __enter__(self):
        self.busy_s, self.runs = 0.0, 0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, *_):
        start = time.perf_counter()
        kernel()
        self.busy_s += time.perf_counter() - start
        self.runs += 1

    @property
    def kernel_s(self):
        return self.busy_s / self.runs
