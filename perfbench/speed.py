"""Host speed probe: CPU-bound times reported at a fixed reference speed.

The benchmark runs on a few cores of a shared host.  Other tenants'
load changes how fast the same code runs by 20-50%: in bursts of a
few seconds, and in drifts over minutes.  That is far more than the
change a later commit must be judged by.  So the in-process workloads
and every set-up time are measured next to a fixed reference
computation (interpreter work plus numpy streaming over a preallocated
array; none of it is the program's code), run in short pieces spread
over the measurement, and reported at reference speed::

    at reference speed = measured * NOMINAL_S / mean reference time

The mean of many short pieces sees the same mix of fast and slow
moments as the measured work around them, so a slower host slows both
and the quotient stays put.  The program never runs while the
reference is timed, so a change to the program moves the reported
figure exactly as it moves the measured one.  The measured figures
and the host speed are printed above the result line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds one reference piece takes at reference speed (about what it
#: takes on the reference VM when its host is quiet).
NOMINAL_S = 0.0025

_DATA = np.random.default_rng(0).random(131_072)
#: Preallocated: the reference must not depend on the allocator's
#: state, which the program's own allocations change.
_BUFFER = np.empty_like(_DATA)


def _reference() -> float:
    table = {}
    acc = 0
    for i in range(6_000):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 1)
    total = 0.0
    for _ in range(2):
        np.multiply(_DATA, 1.5, out=_BUFFER)
        np.add(_BUFFER, 0.25, out=_BUFFER)
        np.sqrt(_BUFFER, out=_BUFFER)
        total += float(_BUFFER.sum())
    return acc + total


class Probe:
    """Reference pieces timed over one measurement."""

    def __init__(self) -> None:
        self.seconds: list = []
        _reference()  # warm-up, untimed

    def sample(self, pieces: int = 1) -> None:
        """Time ``pieces`` reference pieces, one by one."""
        for _ in range(pieces):
            start = time.perf_counter()
            _reference()
            self.seconds.append(time.perf_counter() - start)

    def scale(self, since: int = 0) -> float:
        """Factor taking a time measured alongside the samples (from
        sample ``since`` on) to reference speed; above 1 when the host
        is faster."""
        return NOMINAL_S / statistics.fmean(self.seconds[since:])

    def show(self, outcome, label: str = "host_speed") -> None:
        outcome.show(label, self.scale(), "ratio", len(self.seconds),
                     f"mean reference piece "
                     f"{statistics.fmean(self.seconds) * 1e3:.4g} ms, "
                     f"{NOMINAL_S * 1e3:g} ms at reference speed")


#: Reference pieces timed before and after each set-up launch.
SETUP_PIECES = 12


def report_setup(outcome, setup_s: list, probe: Probe, what: str) -> None:
    """``setup_s``: the median launch at reference speed, ``probe``
    having sampled before and after each launch (and, for the
    in-process workloads, through the measurement that followed, so a
    burst of load at one launch does not skew the scale); the measured
    median is printed too."""
    measured = statistics.median(setup_s)
    setup = measured * probe.scale()
    outcome.metrics["setup_s"] = setup
    outcome.show("setup_s", setup, "s", len(setup_s),
                 f"median of launches: {what}, at reference speed")
    outcome.show("raw_setup_s", measured, "s", len(setup_s), "as measured")
    probe.show(outcome, "setup_host_speed")
