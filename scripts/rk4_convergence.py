#!/usr/bin/env python3
"""Convergence study: fixed-step RK4 against the closed-form free response.

Halves the step width repeatedly and prints the max position error and the
observed order (log2 of consecutive error ratios); the integrator should
sit at order 4 until rounding noise takes over.

Usage:
    python scripts/rk4_convergence.py [--halvings 6]
"""

import argparse
import math
import sys

from microinject.algebra2d import Vec2
from microinject.dynamics import (
    MassParams,
    StageState,
    ZERO_FORCE,
    ZERO_TORQUE,
    free_response_kernel,
    integrate,
)


def max_error(masses, ics, t_end, dt):
    x0, y0, xd0, yd0 = ics
    s0 = StageState(Vec2(x0, y0), Vec2(xd0, yd0))
    samples = integrate(masses, s0, ZERO_TORQUE, ZERO_FORCE, t_end, dt)
    closed_form = free_response_kernel(masses, x0, y0, xd0, yd0)
    worst = 0.0
    for t, state in samples:
        x, y, *_ = closed_form(t)
        worst = max(worst, abs(state.q.a0 - x), abs(state.q.a1 - y))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--halvings", type=int, default=6)
    parser.add_argument("--dt0", type=float, default=1e-2)
    parser.add_argument("--t-end", type=float, default=5.0)
    args = parser.parse_args()

    masses = MassParams(0.2, 0.2, 0.1)
    ics = (0.0, 0.0, 2.0, 2.0)
    print(f"{'dt':>12} {'max error':>14} {'ratio':>8} {'order':>7}")
    previous = None
    dt = args.dt0
    for _ in range(args.halvings):
        err = max_error(masses, ics, args.t_end, dt)
        if previous is None:
            print(f"{dt:>12.3e} {err:>14.6e} {'-':>8} {'-':>7}")
        else:
            ratio = previous / err if err > 0 else float("inf")
            print(f"{dt:>12.3e} {err:>14.6e} {ratio:>8.2f} "
                  f"{math.log2(ratio):>7.2f}")
        previous = err
        dt /= 2.0
    return 0


if __name__ == "__main__":
    sys.exit(main())
