#!/usr/bin/env python3
"""Closed-loop comparison of the four torque-law formulations.

Runs the same injection scenario (quintic approach, membrane contact,
constant commanded force) under every controller variant, once with a
skewed camera frame and once with the identity frame, and tabulates how
far each formulation strays from the stage-consistent baseline.  Each
torque law runs once per frame (``sim.run_variants``), all of a frame's
laws in one walk of the grid.  On the identity frame ``Corrected`` binds
the stage-space operators, so it shares ``StageConsistent``'s law there:
5 closed loops in all.  With ``--out``, the skewed-frame runs write
``study_<variant>.csv`` as they step, through ``report.outputs``, and
the run of ``StageConsistent``'s law writes ``SimPaper``'s CSV too, the
same bytes.  A study CSV that cannot be written exits 2 naming it before
the study prints anything, and no other study CSV is left.

A bad grid (``--t-end`` not > 0, ``--dt`` not > 0, or more than
``dynamics.MAX_STEPS`` steps) exits 2 with a message on stderr before any
run, prints nothing and creates no ``--out`` directory.

Usage:
    python scripts/discrepancy_study.py [--t-end 5.0] [--dt 1e-3] [--out DIR]
"""

import argparse
import math
import os
import sys

from microinject.algebra2d import Vec2
from microinject.control import ControllerVariant, ImpedanceParams
from microinject.dynamics import ForcePair, MassParams
from microinject.frames import FrameParams
from microinject.report import CannotWrite, outputs
from microinject.sim import (
    MembraneModel,
    TrajectoryKind,
    TrajectorySpec,
    check_run_grid,
    compare_variants,
)

SKEWED = FrameParams(alpha=math.pi / 6, dx=0.5, dy=0.5, fx=2.0, fy=4.0)
IDENTITY = FrameParams(alpha=0.0, dx=0.5, dy=0.5, fx=1.0, fy=1.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-end", type=float, default=5.0)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--out", default=None,
                        help="optional directory for per-variant trace CSVs")
    args = parser.parse_args()
    try:
        check_run_grid(args.t_end, args.dt, "t-end")
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: {exc}\n")
    if args.out:
        # before any run, so a bad directory costs no computation
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            parser.exit(2, f"{parser.prog}: cannot create output dir: {exc}\n")

    masses = MassParams(mx=1.0, my=1.0, mp=1.0)
    gains = ImpedanceParams(m=1.0, b=20.0, k=100.0)
    spec = TrajectorySpec(kind=TrajectoryKind.QUINTIC, start=Vec2(0.0, 0.0),
                          end=Vec2(1.5, 0.2), duration=3.0)
    membrane = MembraneModel(stiffness=50.0, damping=2.0, contact_x=1.0)
    fed = ForcePair(0.5, 0.0)
    others = [ControllerVariant.CORRECTED, ControllerVariant.SIM_PAPER,
              ControllerVariant.MC_PAPER]

    def study_path(variant):
        return os.path.join(args.out, f"study_{variant.value}.csv")

    results = {}
    try:
        with outputs() as out:

            def study_csv(shared):
                """The sink of a skewed-frame run: it writes study_<v>.csv
                for each v in ``shared``, the variants of the run's law."""
                return out.trace_csv([study_path(v) for v in shared])

            for label, frame in (
                    ("skewed frame (alpha=pi/6, fx=2, fy=4)", SKEWED),
                    ("identity frame (alpha=0, fx=fy=1)", IDENTITY)):
                results[label] = compare_variants(
                    ControllerVariant.STAGE_CONSISTENT, others, masses, frame,
                    gains, spec, membrane, fed, args.t_end, args.dt,
                    study_csv if args.out and frame is SKEWED else None,
                )
    except CannotWrite as exc:
        parser.exit(2, f"{parser.prog}: {exc}\n")
    for label, result in results.items():
        print(f"\n== {label} ==")
        base = result.base_metrics
        print(f"{'variant':<18} {'rms e_x':>10} {'rms e_y':>10} "
              f"{'imp resid':>10} {'tau rms vs base':>16} "
              f"{'track rms vs base':>18}")
        print(f"{result.base.value:<18} "
              f"{base.rms_tracking_error.a0:>10.3e} "
              f"{base.rms_tracking_error.a1:>10.3e} "
              f"{base.max_impedance_residual:>10.3e} "
              f"{'-':>16} {'-':>18}")
        for rep in result.reports:
            m = rep.metrics
            print(f"{rep.variant.value:<18} "
                  f"{m.rms_tracking_error.a0:>10.3e} "
                  f"{m.rms_tracking_error.a1:>10.3e} "
                  f"{m.max_impedance_residual:>10.3e} "
                  f"{rep.torque_rms_vs_base:>16.3e} "
                  f"{rep.tracking_rms_vs_base:>18.3e}")

    if args.out:
        for variant in ControllerVariant:
            print(f"wrote {study_path(variant)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
