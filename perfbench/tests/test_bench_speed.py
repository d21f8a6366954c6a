import signal
from time import perf_counter

import pytest

import speed
import worker


def test_kernel_time_is_taken_out_of_the_item(monkeypatch):
    ends, own = [], []

    def busy(n):
        t0 = perf_counter()
        s = 0
        for i in range(n):
            s += i * i % 7
        ends.append(perf_counter())
        own.append(ends[-1] - t0)
        return s

    monkeypatch.setitem(worker.WORKLOADS, "busy", (lambda item: item, busy, lambda item, arg, raw, mirror: {"sum": raw}))
    probe = speed.SpeedProbe("table")
    ticks, kernel = [], probe.kernel
    probe.kernel = lambda: ticks.append(perf_counter()) or kernel()
    result = worker.run_pass("busy", [2_000_000, 10], probe=probe)
    inside = sum(d for t, d in zip(ticks, probe.samples) if t < ends[0])
    assert inside > 0
    assert result["item_s"][0] == pytest.approx(own[0] - inside, abs=0.005)
    assert result["item_s"][1] < speed.TICK_S  # too short for a tick
    assert result["speed_samples"] == len(probe.samples) >= speed.SETUP_BURST
    assert result["slowness"] == pytest.approx(sum(probe.samples) / len(probe.samples) / probe.reference_s)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL


def test_a_short_pass_is_topped_up_with_kernels():
    probe = speed.SpeedProbe("embed")
    probe.samples = [0.003]
    assert probe.slowness() > 0
    assert len(probe.samples) == speed.SETUP_BURST


@pytest.mark.parametrize("workload", ["table", "queries", "curves", "embed"])
def test_every_workload_has_a_kernel(workload):
    kernel, reference_s = speed.KERNELS[workload]
    assert kernel() == kernel() and reference_s > 0
