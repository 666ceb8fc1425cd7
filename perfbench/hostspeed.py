"""Host speed, measured next to each timed pass.

On a shared host the speed of pure-Python code drifts by 30-50% over
minutes as other tenants come and go, which is wider than any useful
regression bound.  The benchmark therefore times a fixed reference kernel
of its own next to every timed pass and every set-up, and reports times at
a nominal host speed::

    reported_s = measured_s * NOMINAL_REFERENCE_S / reference_s

where ``reference_s`` is the reference kernel's time measured in the same
process around the timed work.  The kernel is benchmark code that no change
to ``microinject`` touches, and it runs with the garbage collector off, so
objects the program keeps alive do not slow it.  Run lengths and raw times
are printed next to the corrected ones.
"""

from __future__ import annotations

import gc
import math
import time

# Seconds the reference takes on a 2-vCPU x86-64 host under Python 3.11 in
# its quiet phases; a fixed unit, so corrected times stay in seconds.
NOMINAL_REFERENCE_S = 0.25
# Repeats of the kernel in one reference measurement: about 0.25-0.5 s,
# long enough to average out sub-second jitter.
REPEAT = 25


class _P:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def __add__(self, other: "_P") -> "_P":
        return _P(self.x + other.x, self.y + other.y)

    def scale(self, k: float) -> "_P":
        return _P(self.x * k, self.y * k)


def _kernel(steps: int = 4000) -> int:
    # a small closed loop of the same kind of code as the program: small
    # objects, method calls, float math and a growing list
    q, v, out = _P(0.0, 0.0), _P(0.0, 0.0), []
    for i in range(steps):
        t = i * 1e-3
        d = _P(math.sin(t), math.cos(t))
        a = (d + q.scale(-1.0)).scale(100.0) + v.scale(-20.0)
        v = v + a.scale(1e-3)
        q = q + v.scale(1e-3)
        out.append((t, q.x, q.y))
    return len(out)


def reference_s() -> float:
    """Seconds taken by REPEAT runs of the reference kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REPEAT):
            _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(reference: float) -> float:
    """Multiply a time measured next to ``reference`` by this factor."""
    return NOMINAL_REFERENCE_S / reference
