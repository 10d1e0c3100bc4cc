"""Machine-speed reference for the time metrics.

The machines this benchmark runs on are shared: a fixed loop of pure-Python
work can run 1.5x slower for seconds at a time when neighbours are busy.
Every measured call is therefore followed, outside the timed region, by this
fixed stdlib loop (Fraction and dict work, as in the library), and each
call's wall time is scaled by NOMINAL_S over the loop's time around it.  The
library cannot change the loop, so the scaled times still move exactly as
the library's speed does, while the machine's speed changes cancel out.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.002  # the loop's time at the speed the time metrics refer to


def reference_s() -> float:
    start = time.perf_counter()
    seen = {}
    for j in range(1, 250):
        a = Fraction(j, 7) + Fraction(3, j + 1)
        seen[(j % 17, a.denominator % 5)] = a * a
    return time.perf_counter() - start
