"""A clock that reads seconds at a fixed reference CPU speed.

On a shared host the same Python code runs at speeds that swing by up to 2x
from one tenth of a second to the next, as other tenants load the physical
core.  Wall time of a multi-second command then depends more on the host than
on the program.  `RefClock` measures the speed as it goes: every `PERIOD_S`
seconds a SIGALRM handler times one call of a small fixed kernel (an exact
rational polynomial product, the kind of work polylie does), and the wall
time until the next tick is scaled by `REF_S / kernel time`.  The call is
timed cold, right after polylie's code: that tracked polylie's speed better
than a second, warm call.  A region timed with `now()` thus reads the
seconds it would take on a CPU that runs the kernel in `REF_S`, which is
about the host's unloaded speed.  Time spent in the handler is left out.

The kernel lives here, not in the library, so a change to polylie cannot
change the reference.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.01
# The kernel's time on an unloaded core of the host the bounds were set on
# (2-vCPU Intel Xeon VM, Python 3.11); only a unit, any fixed value would do.
REF_S = 0.00023

_A = {(i, j, i + j): Fraction(i + 2 * j + 1, j + 3) for i in range(3) for j in range(3)}
_B = {(i, j, i * j): Fraction(3 * i - j + 1, i + 2) for i in range(3) for j in range(2)}


def kernel() -> int:
    """The product of two small polynomials with rational coefficients."""
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return len(out)


class RefClock:
    """Seconds at reference speed while started; one per process (SIGALRM)."""

    def __init__(self):
        self._ref = 0.0  # reference seconds up to self._last
        self._last = 0.0  # wall time the current interval began
        self.speed = 1.0  # reference seconds per wall second, last reading
        self._busy = False
        self.ticks = 0

    def _tick(self, signum, frame) -> None:
        if self._busy:  # the kernel itself overran a period
            return
        self._busy = True
        now = perf_counter()
        self._ref += (now - self._last) * self.speed
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.speed = REF_S / (end - start)
        self._last = end
        self.ticks += 1
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._last = perf_counter()
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        return self._ref + (perf_counter() - self._last) * self.speed
