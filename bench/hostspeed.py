"""Host-speed correction of measured times.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within seconds, so raw times of the same code spread too
far to compare.  `Sampler.measure` runs a fixed reference loop every
`INTERVAL` seconds while the measured call runs (from a SIGALRM handler,
so the loop runs interleaved with the program's own bytecode) and once
before and after it.  The call's time, without the loops, is then scaled
by how fast the loops ran:

    ref_s = raw_s * REF_LOOP_S / (mean reference-loop time)

`ref_s` is the call's time on a host that runs the reference loop in
`REF_LOOP_S` seconds.  The loop has the two kinds of inner loop the program
runs, for about equal time: numpy arithmetic on a short complex vector
driven from Python (network sweeps, root-finds) and Python complex scalar
arithmetic on numpy scalars (the RK4 integrator).  On the program's
workloads it tracks the host's speed far better than a pure Python loop or
a memory-bound vector loop does.

`clock()` is a wall clock that stops while a reference loop runs, for
timing spans inside a measured call.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

#: Program time between two reference loops.
INTERVAL = 0.05
#: Steps of each part of one reference loop (together about 1.5 ms on a
#: 2.1 GHz Xeon vCPU).
VECTOR_STEPS = 150
SCALAR_STEPS = 1000
#: Nominal reference-loop time that times are scaled to: 5 us per vector
#: step and 0.65 us per scalar step.
REF_LOOP_S = VECTOR_STEPS * 5e-6 + SCALAR_STEPS * 0.65e-6

_A = np.linspace(0.0, 1.0, 256) + 1j
_B = 0.5 * _A
_G = np.linspace(0.1, 0.2, 64)


def _reference_loop() -> tuple[float, float]:
    t0 = perf_counter()
    x = _A
    for _ in range(VECTOR_STEPS):
        x = (_A * _B + x) / (_B + 1.0)
    # a damped two-mode Euler step: a and b stay bounded
    a, b = 0.1 + 0j, 0.2j
    for n in range(SCALAR_STEPS):
        g = _G[n % 64]
        ka = (-0.01 + 1j) * a - 1j * g * b
        kb = (-0.02 - 1j) * b - 1j * g * a
        a = a + 0.005 * ka
        b = b + 0.005 * kb
    return t0, perf_counter()


class Sampler:
    """Times the reference loop while `measure` runs a call."""

    def __init__(self):
        self.stolen = 0.0  # total reference-loop time so far
        self._loops: list[float] = []
        self._armed = False

    def clock(self) -> float:
        """Wall time minus reference-loop time."""
        return perf_counter() - self.stolen

    def _sample(self):
        start, end = _reference_loop()
        self._loops.append(end - start)
        self.stolen += end - start

    def _on_alarm(self, signum, frame):
        if self._armed:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def measure(self, fn, *args):
        """Run fn(*args); return (raw_s, scale, result).

        raw_s is the call's wall time without the reference loops, and
        raw_s * scale its time at the reference speed.
        """
        self._loops = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        stolen = self.stolen
        t0 = perf_counter()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        try:
            result = fn(*args)
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            raw = perf_counter() - t0 - (self.stolen - stolen)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        return raw, REF_LOOP_S / statistics.fmean(self._loops), result
