"""The closed loop rebuilt from the public kernels, one state at a time.

``closed_loop`` and ``compare`` give what ``sim.run_closed_loop`` and
``sim.compare_variants`` give, with nothing of the fused lane
``sim._lane``: each state takes its desired point from
``sample_trajectory``, its contact force from ``membrane_force``, c from
``commanded_accel_kernel``, the torques from ``torque_kernel``, the step
and the acceleration it realizes from ``rk4_kernel`` and the impedance
residual from ``force_control_residual_kernel``, on the grid of
``check_run_grid``.  A run ends at its first row with a field that is not
finite, tested field by field.  Every variant gets a run of its own, so a
run that ``run_variants`` shares is checked against a separate run of each
of its variants.  The tests pin the lane to this module by ``float.hex``,
and the kernels to the ``Vec2`` formulas; nothing in the package imports
it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .algebra2d import Vec2, mat_inv
from .control import (
    ControllerVariant,
    ImpedanceParams,
    commanded_accel_kernel,
    force_control_residual_kernel,
    torque_kernel,
)
from .dynamics import ForcePair, MassParams, mass_matrix, rk4_kernel
from .frames import FrameParams
from .sim import (
    ComparisonReport,
    MembraneModel,
    RunMetrics,
    TrajectorySpec,
    VariantReport,
    _Keeper,
    check_run_grid,
    membrane_force,
    sample_trajectory,
)


def _finite(row: Tuple[float, ...]) -> bool:
    return all(map(math.isfinite, row))


def _run(
    variant: ControllerVariant,
    rivals: Sequence[ControllerVariant],
    masses: MassParams,
    frame: FrameParams,
    gains: ImpedanceParams,
    spec: TrajectorySpec,
    membrane: MembraneModel,
    fed: ForcePair,
    t_end: float,
    dt: float,
) -> Tuple[List[Tuple[float, ...]], RunMetrics, List[float]]:
    """The rows and metrics of the closed loop of ``variant`` and, per
    variant of ``rivals``, the RMS over its finite rows of the gap between
    that variant's torque at the row's c and the applied one."""
    commanded = commanded_accel_kernel(gains)
    residual = force_control_residual_kernel(gains)
    step = rk4_kernel(mat_inv(mass_matrix(masses)))
    torque = torque_kernel(variant, masses, frame, fed)
    oracle = torque_kernel(ControllerVariant.STAGE_CONSISTENT, masses, frame, fed)
    scored = [torque_kernel(v, masses, frame, fed) for v in rivals]
    fed0, fed1 = fed.fex, fed.fey
    start = sample_trajectory(spec, 0.0)
    x, y, xdot, ydot = start.qd.a0, start.qd.a1, start.qd_dot.a0, start.qd_dot.a1
    rows = []
    sq_e0 = sq_e1 = sq_div = imp_max = 0.0
    sq_rivals = [0.0] * len(scored)
    diverged = False
    for t, h in check_run_grid(t_end, dt):
        desired = sample_trajectory(spec, t)
        qd0, qd1 = desired.qd.a0, desired.qd.a1
        qa0, qa1 = desired.qd_ddot.a0, desired.qd_ddot.a1
        e0, e1 = qd0 - x, qd1 - y
        ed0, ed1 = desired.qd_dot.a0 - xdot, desired.qd_dot.a1 - ydot
        fe = membrane_force(membrane, Vec2(x, y), Vec2(xdot, ydot))
        c = commanded(qa0, qa1, e0, e1, ed0, ed1, fe.fex, fe.fey)
        tau0, tau1 = torque(*c, fe.fex, fe.fey, xdot, ydot)
        or0, or1 = oracle(*c, fe.fex, fe.fey, xdot, ydot)
        row = (t, x, y, xdot, ydot, qd0, qd1, fe.fex, fe.fey,
               tau0, tau1, or0, or1)
        rows.append(row)
        if not _finite(row):
            diverged = True
            break
        for i, rival in enumerate(scored):
            r0, r1 = rival(*c, fe.fex, fe.fey, xdot, ydot)
            d0, d1 = r0 - tau0, r1 - tau1
            sq_rivals[i] += d0 * d0 + d1 * d1
        x, y, xdot, ydot, a0, a1 = step(
            tau0 - fed0, tau1 - fed1, x, y, xdot, ydot, h)
        r0, r1 = residual(e0, e1, ed0, ed1, qa0 - a0, qa1 - a1, fe.fex, fe.fey)
        imp_max = max(imp_max, max(abs(r0), abs(r1)))
        sq_e0 += e0 * e0
        sq_e1 += e1 * e1
        g0, g1 = tau0 - or0, tau1 - or1
        sq_div += g0 * g0 + g1 * g1
    n = max(len(rows) - diverged, 1)
    metrics = RunMetrics(
        Vec2(math.sqrt(sq_e0 / n), math.sqrt(sq_e1 / n)), imp_max,
        math.sqrt(sq_div / n), len(rows), diverged)
    return rows, metrics, [math.sqrt(sq / n) for sq in sq_rivals]


def closed_loop(
    variant: ControllerVariant,
    masses: MassParams,
    frame: FrameParams,
    gains: ImpedanceParams,
    spec: TrajectorySpec,
    membrane: MembraneModel,
    fed: ForcePair,
    t_end: float,
    dt: float,
) -> Tuple[List[Tuple[float, ...]], RunMetrics]:
    """``sim.run_closed_loop``, from the kernels."""
    rows, metrics, _ = _run(variant, [], masses, frame, gains, spec, membrane,
                            fed, t_end, dt)
    return rows, metrics


def compare(
    base: ControllerVariant,
    others: Sequence[ControllerVariant],
    masses: MassParams,
    frame: FrameParams,
    gains: ImpedanceParams,
    spec: TrajectorySpec,
    membrane: MembraneModel,
    fed: ForcePair,
    t_end: float,
    dt: float,
    keeper: Optional[_Keeper] = None,
) -> ComparisonReport:
    """``sim.compare_variants``, from the kernels: the base run scores each
    variant of ``others`` at its finite rows, and each of them runs again
    to be paired with the base run row by row, up to the first row where
    either is not finite.  Each run's rows, a repeated variant's included,
    go in one block to the sink that ``keeper([variant])`` gives as a
    context manager, if given, as ``sim.run_variants`` takes it."""
    scenario = (masses, frame, gains, spec, membrane, fed, t_end, dt)

    def keep(variant: ControllerVariant, rows: List[Tuple[float, ...]]) -> None:
        if keeper is not None:
            with keeper([variant]) as sink:
                sink(rows)

    base_rows, base_metrics, torque_gaps = _run(base, others, *scenario)
    keep(base, base_rows)
    reports = []
    for variant, torque_gap in zip(others, torque_gaps):
        rows, metrics, _ = _run(variant, [], *scenario)
        keep(variant, rows)
        sq_track = 0.0
        paired = 0
        for row, base_row in zip(rows, base_rows):
            if not (_finite(row) and _finite(base_row)):
                break
            dx, dy = row[1] - base_row[1], row[2] - base_row[2]
            sq_track += dx * dx + dy * dy
            paired += 1
        reports.append(VariantReport(
            variant, metrics, torque_gap, math.sqrt(sq_track / max(paired, 1))))
    return ComparisonReport(base, base_metrics, tuple(reports))
