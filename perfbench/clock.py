"""Wall time corrected for the load of other tenants on a shared host.

On a shared 2-vCPU guest, other tenants slow every interpreter-bound
instruction stream by up to 2x for stretches of seconds, long enough to
cover a whole run. Raw wall times of identical work then spread by 20-50%
between runs, while the ratio of the work to a fixed reference loop run
next to it stays within a few percent.

So while a :class:`LoadClock` is running, an interval timer runs a small
fixed probe loop on the main thread every ``INTERVAL_S``. The probe's
duration measures the host's current speed. :meth:`LoadClock.timeline`
turns raw ``perf_counter`` readings into corrected seconds: probe time is
removed, and the time between two probes is scaled by ``PROBE_NOMINAL_S``
over the mean duration of those two probes. A corrected second is a second
on the host running at the probe's nominal speed.

The probe measures the host only while the measured work runs on this one
thread. If the process used more CPU time than wall time (threads or child
processes working in parallel), the probes were slowed by that work itself,
and the clock falls back to raw wall time minus the probes.
"""

from __future__ import annotations

import os
import random
import signal
from bisect import bisect_right
from time import perf_counter

INTERVAL_S = 0.01
# Fastest duration of ``_probe`` on an idle 2-vCPU x86_64 KVM guest
# with CPython 3.11.
PROBE_NOMINAL_S = 240e-6


def _probe() -> None:
    rnd = random.Random(12345)
    acc = 0
    for _ in range(220):
        acc ^= rnd.getrandbits(30)
        acc += sum([acc >> j & 1 for j in range(8)])


class LoadClock:
    """Context manager that probes the host speed while it is entered.

    Uses ``SIGALRM``, so it must be entered on the main thread, and
    nothing else in the process may use that signal meanwhile.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.corrected = True
        self._previous = None
        self._cpu0 = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        _probe()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def __enter__(self) -> "LoadClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._cpu0 = _cpu_s()
        self._on_alarm(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)
        wall = self.ends[-1] - self.starts[0]
        # os.times() counts whole clock ticks
        self.corrected = _cpu_s() - self._cpu0 <= 1.1 * wall + 0.05

    def timeline(self) -> "Timeline":
        """The time scale of everything measured while entered."""
        return Timeline(self.starts, self.ends, self.corrected)


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Timeline:
    """Piecewise-linear map from raw ``perf_counter`` readings to corrected
    seconds: flat during each probe, and between probes k and k+1 rising
    at ``PROBE_NOMINAL_S`` over their mean duration (at 1 if not
    ``corrected``)."""

    def __init__(self, starts: list[float], ends: list[float], corrected: bool = True) -> None:
        durs = [e - s for s, e in zip(starts, ends)]
        self.knots: list[float] = []
        self.values: list[float] = []
        self.slopes: list[float] = []
        acc = 0.0
        for k in range(len(starts)):
            # probe k: flat
            self.knots.append(starts[k])
            self.values.append(acc)
            self.slopes.append(0.0)
            # gap after probe k, at the speed of the probes around it
            nxt = durs[k + 1] if k + 1 < len(durs) else durs[k]
            slope = PROBE_NOMINAL_S / ((durs[k] + nxt) / 2) if corrected else 1.0
            self.knots.append(ends[k])
            self.values.append(acc)
            self.slopes.append(slope)
            if k + 1 < len(starts):
                acc += (starts[k + 1] - ends[k]) * slope
        self._first_slope = self.slopes[1]

    def __call__(self, t: float) -> float:
        i = bisect_right(self.knots, t) - 1
        if i < 0:
            return (t - self.knots[0]) * self._first_slope
        return self.values[i] + (t - self.knots[i]) * self.slopes[i]

    def span(self, t0: float, t1: float) -> float:
        return self(t1) - self(t0)
