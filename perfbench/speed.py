"""Machine-speed calibration for the timed sections of an untraced pass.

The reference machine (2 vCPUs of a shared Xeon host) changes speed by up to
1.6x, from one second to the next and for minutes at a time, without any
steal time showing: CPU time and wall time read the same.  A median over the
passes of one run removes the short swings but not the long ones, so two
runs of the same code a few minutes apart can differ by more than the
bounds in BENCHMARK.json.

So every untraced pass also measures the machine.  A profiling timer
(SIGPROF, every TICK_S of the worker's CPU time) interrupts the pass and
runs a fixed calibration kernel of the benchmark's own; the kernel's time
is taken out of the item it interrupted.  A pass's reported seconds are its
measured seconds divided by its slowness, the mean kernel time in that pass
over the kernel's reference time (KERNELS): seconds at the speed at which
the kernel takes its reference time.  Set-up is too
short to interrupt, so each worker runs SETUP_BURST kernels right after it
and its set-up seconds are scaled by their mean in the same way.  Traced
passes are not calibrated: the kernel would show in the spans.  Each workload
uses the kernel whose mix of operations is closest to its own hot loop, as
the speed swings do not slow every kind of code alike: interpreted
small-integer and tuple arithmetic (table, queries, curves) or products of
big integers (embed).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

TICK_S = 0.05
# kernels run just after each worker's set-up, and the fewest per pass
SETUP_BURST = 10


def _cf_value(entries):
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for m in entries:
        p, p_prev = m * p + p_prev, p
        q, q_prev = m * q + q_prev, q
    return p, q


def two_bridge_kernel() -> int:
    """Continued fractions, class keys and tuple sets: the shape of the
    diagram enumeration that dominates table and queries, and of the
    interpreted small-number arithmetic of root isolation in curves."""
    seen = set()
    for a in range(1, 7):
        for b in range(1, 7):
            for c in range(1, 7):
                for d in (2, 3, 4):
                    entries = (a, b, c, d)
                    p, q = _cf_value(entries)
                    seen.add((p, min(q % p, pow(q, -1, p))))
                    seen.add(tuple(sorted(entries)))
    return len(seen)


_BASE = 3**900
_MODULUS = 7**500 + 12345


def bigint_kernel() -> int:
    """Products and remainders of 1,400- to 2,800-bit integers: the shape of
    the exact signs on 1,100- to 2,000-bit heights that dominate embed."""
    x = _BASE
    for _ in range(150):
        x = x * _BASE % _MODULUS
    return x


# kernel and its time at the reference speed (2.0 GHz Xeon vCPU, Python 3.11)
KERNELS = {
    "table": (two_bridge_kernel, 0.0015),
    "queries": (two_bridge_kernel, 0.0015),
    "curves": (two_bridge_kernel, 0.0015),
    "embed": (bigint_kernel, 0.0015),
}


def setup_slowness() -> float:
    """Slowness from SETUP_BURST kernels back to back, after one left out as a
    warm-up: how fast the machine is just after a worker's set-up.  Set-up
    is interpreted import code in every workload, hence the two-bridge
    kernel."""
    kernel, reference_s = KERNELS["table"]
    times = []
    for _ in range(SETUP_BURST + 1):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.fmean(times[1:]) / reference_s


class SpeedProbe:
    """Runs the workload's kernel every TICK_S of CPU time while started."""

    def __init__(self, workload: str):
        self.kernel, self.reference_s = KERNELS[workload]
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the kernel so far

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.kernel()
        d = perf_counter() - t0
        self.samples.append(d)
        self.spent += d

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def slowness(self) -> float:
        """Mean kernel time over its reference time: above 1 on a slow machine.

        A pass too short for SETUP_BURST ticks is topped up with kernels run
        right after it, so that a much faster program is still measured."""
        while len(self.samples) < SETUP_BURST:
            self._tick(None, None)
        return statistics.fmean(self.samples) / self.reference_s
