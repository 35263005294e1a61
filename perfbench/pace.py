"""Host pace: a fixed reference task timed between operations.

This benchmark runs on a few cores of a shared host whose speed drifts
by a third or more over tens of seconds, for every process alike.  Raw
times therefore spread between runs more than the changes the benchmark
must resolve.  So the runner times ``unit()``, a fixed piece of
pure-Python work of the kind kunzlab does (a pair-by-pair Kunz scan:
tuple indexing, integer arithmetic and comparisons in nested loops),
before every operation, and reports each operation's time scaled to the
pace at which one unit takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / (median unit time around it)

"Around it" is the WINDOW units on either side of the operation, widened
for a long operation to every unit timed from one operation length
before it starts to one length after it ends, so that the pace spans
about the time the operation spans.

The unit is the benchmark's own code and never calls kunzlab, so a
faster program still reads faster; only the host's drift divides out.
The raw times are printed beside the scaled ones.

Process start-up drifts apart from interpreted code, so a workload whose
operations are whole processes paces them with ``process_unit()``
instead: one fresh interpreter that runs three units, at a reference
pace of ``PROCESS_NOMINAL_S``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right

NOMINAL_S = 1.0e-3  # one unit at the reference pace
PROCESS_NOMINAL_S = 50e-3  # one process unit at the reference pace
WINDOW = 8  # units on each side of an operation that set its pace
_WORDS = tuple(tuple(1 + (7 * k + 3 * i * i) % 4 for i in range(7)) for k in range(40))


def _scan(u) -> int:
    """Failed Kunz conditions of a 1-based word, counted pair by pair."""
    n = len(u) - 1
    bad = 0
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i + j <= n:
                bad += u[i] + u[j] < u[i + j]
            elif i + j >= n + 2:
                bad += u[i] + u[j] + 1 < u[i + j - n - 1]
    return bad


def unit() -> float:
    """Seconds one reference unit takes now."""
    t0 = time.perf_counter()
    bad = 0
    for _ in range(6):
        for w in _WORDS:
            bad += _scan((0,) + w)
    if bad < 0:  # never; keeps the loop's result live
        raise AssertionError
    return time.perf_counter() - t0


def process_unit() -> float:
    """Seconds one fresh interpreter running three units takes now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True, timeout=60)
    return time.perf_counter() - t0


def paces(units: list[float], starts: list[float], lengths: list[float],
          nominal: float = NOMINAL_S) -> list[float]:
    """The host pace around each operation i, which started at starts[i]
    (ascending) and lasted lengths[i] seconds right after unit i:
    ``nominal`` over the median unit time around it."""
    out = []
    for i, (start, length) in enumerate(zip(starts, lengths)):
        lo = min(i - WINDOW, bisect_left(starts, start - length))
        hi = max(i + WINDOW + 1, bisect_right(starts, start + 2 * length))
        out.append(nominal / statistics.median(units[max(0, lo): hi]))
    return out


def interleaved(measures, timer=unit, nominal: float = NOMINAL_S, per: int = 3):
    """Run each of ``measures`` (callables returning seconds) after
    ``per`` units timed by ``timer``, and ``per`` more after the last;
    return (scaled seconds, raw seconds), scaled by the median unit."""
    units, raw = [], []
    for measure in measures:
        units += [timer() for _ in range(per)]
        raw.append(measure())
    units += [timer() for _ in range(per)]
    scale = nominal / statistics.median(units)
    return [x * scale for x in raw], raw


if __name__ == "__main__":
    for _ in range(3):
        unit()
