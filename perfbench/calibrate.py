"""A fixed reference workload for scaling times to one machine speed.

The reference machine is a 2-vCPU KVM guest whose speed changes by up to
1.9x within minutes, and stays changed for tens of seconds, as other guests
load the host. Over 100 s of interleaved samples, the time of this kernel
followed the time of fixed metric_queries rows and heat_evolve jobs with
correlation 0.98 and 0.92 and a log-log slope of 1.00 and 0.96. Dividing by
it cut the spread of those times (log standard deviation) from 0.26 to 0.05
for the rows and to 0.11 for the jobs.

The kernel mixes the three kinds of work the library does: float series
with exp/log, small-int dict work, and Fraction arithmetic. It is the
benchmark's own code, so no change to `src/` can alter it.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

# Kernel time on the reference machine when the host is quiet.  Scaled
# times read as if every reference sample had taken this long.
REFERENCE_S = 2.7e-3

# cli_cold's reference, run in a fresh interpreter.  CLI calls follow the
# kernel above with a log-log slope of only 0.55, and a bare `python -c pass`
# drifted by 20 % between two sets of runs whose CLI times agreed.  This
# import is most of a CLI call's own work: over 200 s its time followed a
# `delta` call with correlation 0.95 and slope 1.04, and dividing by it cut
# the spread (log standard deviation) of the call from 0.16 to 0.05.
CLI_REFERENCE = "import scipy.integrate"
CLI_REFERENCE_S = 0.55


def _series() -> float:
    total = 0.0
    for j in range(60):
        a = 0.001 * j
        for ell in range(1, 40):
            total += math.exp((ell - 1) * 0.69 - a * (2.0 ** (0.3 * ell) - 1.0))
        total = math.log1p(total)
    return total


def _mapping() -> int:
    d: dict[int, int] = {}
    for i in range(5000):
        d[i & 255] = d.get(i & 255, 0) + (i >> 3)
    return len(d)


def _rationals() -> Fraction:
    s = Fraction(0)
    for i in range(1, 250):
        s += Fraction(i, 1 << (i % 20)) - Fraction(1, 1 << (i % 7))
    return s


def sample() -> float:
    """Seconds for one run of the kernel."""
    start = time.perf_counter()
    for _ in range(3):
        _series()
    _mapping()
    _rationals()
    return time.perf_counter() - start
