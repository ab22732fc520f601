"""Host speed, sampled while a pass runs, to put timings in reference seconds.

On a shared host the same code runs 1.0-2.1x slower from one stretch of
seconds to the next (other tenants, clock changes), and ten-run medians of
one commit moved by 25% between two sets of runs ten minutes apart.  No
hardware counters are exposed, so the benchmark measures the host's
current speed instead: a timer interrupts the pass every `INTERVAL_S`
and times a fixed kernel that does not touch the package.  The mean of
`ref_s / sample` over a pass is the host's speed relative to the
reference host, and a time measured during the pass, multiplied by it,
is the time the reference host would have taken.

The kernel is small dense numpy operations driven from a Python loop, as
in the many tiny LPs of the m=10 table and the branch-and-bound node LPs.
Its 48x48 matrix stays in the L1 cache, so the kernel takes little from
the caches and memory bandwidth the timed work uses, and adds nothing
worth counting to the process's peak RSS.  Its cost is part of the pass
(about 1% of it) and is the same for every commit.

Measured on a 2-vCPU host over 16 repeats of a short pass, scaling cut the
pass time's relative standard deviation from 0.085 to 0.033 on the m=10
table and from 0.082 to 0.037 on the cut loop.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2


class Kernel:
    ref_s = 1.4e-3      # about the fastest time seen on a 2-vCPU host

    def __init__(self):
        self._m = np.random.default_rng(12345).random((48, 48))

    def run(self) -> float:
        x = np.ones(48)
        acc = 0.0
        for _ in range(300):
            y = self._m @ x
            j = int(np.argmax(y))
            x = x * 0.5 + y * (0.5 / y[j])
            acc += float(x[j])
        return acc


def time_kernel(kernel) -> float:
    t0 = time.perf_counter()
    kernel.run()
    return time.perf_counter() - t0


def speed(kernel, samples) -> float:
    return statistics.fmean(kernel.ref_s / s for s in samples)


class SpeedSampler:
    """Times `kernel` on SIGALRM while started (main thread only)."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(time_kernel(self.kernel))

    def start(self) -> None:
        self.samples = [time_kernel(self.kernel)]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; the pass's mean speed relative to the reference."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(time_kernel(self.kernel))
        return speed(self.kernel, self.samples)
