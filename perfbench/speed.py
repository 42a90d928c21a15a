"""Machine-speed calibration of the benchmark's times.

The cores of a shared host do not run at one speed: when neighbouring
tenants are busy, pure-Python work slows down by up to 1.7x, and such a
phase can last for minutes, longer than a run.  No statistic taken inside a
run removes a slowdown that covers the whole run, so the benchmark measures
the core's speed next to the work instead.

Between timed pieces of work it runs a probe: Gauss-Jordan elimination of a
fixed sparse 24x24 rational matrix with ``Fraction`` entries, the kind of
work colorhom's exact linear algebra does, in code of the benchmark's own
that touches nothing of the program.  It is a single run of about 10 ms,
not the best of several, so that it sees the core's average speed, as the
program does.  The run's times are then scaled by ``REFERENCE_PROBE_S``
over the median of the run's probes.  The result is the time at the speed at
which the probe takes ``REFERENCE_PROBE_S`` -- about the speed of an unloaded
core of the machine the benchmark was defined on (a 2.1 GHz Xeon, Python 3.11).

A change to the program moves these times as it moves the raw ones; a
change in the machine's speed moves the probe as well and cancels out.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction
from time import perf_counter

# the probe's time on an unloaded core, in seconds
REFERENCE_PROBE_S = 0.010


def _probe_matrix():
    rng = random.Random(5)
    size = 24
    rows = [[Fraction(rng.randint(-9, 9)) if rng.random() < 0.1 else Fraction(0)
             for _ in range(size)] for _ in range(size)]
    for i in range(size):
        rows[i][i] += 1
    return rows


_PROBE_MATRIX = _probe_matrix()


def _eliminate(matrix):
    """Reduced row echelon form of a copy of ``matrix``; returns the rank."""
    rows = [row[:] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


def probe() -> float:
    """The time of one probe, in seconds (about 10 ms on an unloaded core)."""
    t0 = perf_counter()
    _eliminate(_PROBE_MATRIX)
    return perf_counter() - t0


class SpeedClock:
    """Probes between timed pieces of work and gives the factor that scales
    their times to the reference speed.

    Call ``before()`` just ahead of a timed piece: it probes when ``every``
    seconds of timed work have passed since the last probe.  Call
    ``after(seconds)`` with the piece's time, and ``close()`` at the end of a
    pass, which probes again."""

    def __init__(self, every: float):
        self.every = every
        self.probes = []
        self._since = math.inf

    def before(self) -> None:
        if self._since >= self.every:
            self.close()

    def after(self, seconds: float) -> None:
        self._since += seconds

    def close(self) -> None:
        self.probes.append(probe())
        self._since = 0.0

    def factor(self) -> float:
        """``REFERENCE_PROBE_S`` over the median probe of the run: a time
        times this factor is the time at the reference speed."""
        return REFERENCE_PROBE_S / statistics.median(self.probes)
