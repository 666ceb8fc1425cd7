#!/usr/bin/env python3
"""Convergence study: fixed-step RK4 against the closed-form free response.

Halves the step width repeatedly and prints the max position error and the
observed order (log2 of consecutive error ratios); the integrator should
sit at order 4 until rounding noise takes over.

Errors come from ``verify.max_error_vs_closed_form``, as in the
``dynamics.rk4_order`` property.  Every halving's grid is checked with
``dynamics.check_steps`` before the first run.  A bad grid (a step width
that is not > 0, or more than ``dynamics.MAX_STEPS`` steps, as --halvings
12 and above gives at the defaults) or --halvings < 1 exits 2 with a
message on stderr and prints nothing.

Usage:
    python scripts/rk4_convergence.py [--halvings 6]
"""

import argparse
import math
import sys

from microinject.dynamics import MassParams, check_steps
from microinject.verify import max_error_vs_closed_form


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--halvings", type=int, default=6)
    parser.add_argument("--dt0", type=float, default=1e-2)
    parser.add_argument("--t-end", type=float, default=5.0)
    args = parser.parse_args()
    if args.halvings < 1:
        parser.exit(2, f"{parser.prog}: --halvings must be >= 1\n")
    # before any run, so a bad grid costs no computation; the step count
    # doubles with each halving, so this stops early on a huge --halvings
    dt = args.dt0
    for k in range(args.halvings):
        try:
            check_steps(args.t_end, dt, "t-end")
        except ValueError as exc:
            parser.exit(2, f"{parser.prog}: halving {k + 1}, dt {dt:.6g}: "
                           f"{exc}\n")
        dt /= 2.0

    masses = MassParams(0.2, 0.2, 0.1)
    ics = (0.0, 0.0, 2.0, 2.0)
    print(f"{'dt':>12} {'max error':>14} {'ratio':>8} {'order':>7}")
    previous = None
    dt = args.dt0
    for _ in range(args.halvings):
        err = max_error_vs_closed_form(masses, ics, args.t_end, dt)
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
