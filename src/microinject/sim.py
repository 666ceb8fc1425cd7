"""Closed-loop scenario engine.

Wires a desired trajectory, a one-sided membrane contact model, one of the
torque-law variants and the stage dynamics into a deterministic fixed-step
loop.  The controller runs at the integration rate: its output is held
constant across each RK4 step.  Identical inputs produce bit-identical
traces.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .algebra2d import Vec2, mat_inv
from .control import (
    STAGE_SPACE_VARIANTS,
    ControllerVariant,
    DesiredTrajectoryPoint,
    ErrorState,
    ImpedanceParams,
    force_control_residual,
    impedance_accel,
    torque_controller,
)
from .dynamics import (
    ForcePair,
    MassParams,
    _sample_times,
    mass_matrix,
    rk4_step,
    stage_accel,
)
from .frames import FrameParams


class TrajectoryKind(enum.Enum):
    QUINTIC = "Quintic"
    SINUSOID = "Sinusoid"


@dataclass(frozen=True)
class TrajectorySpec:
    """Desired-trajectory description.

    Quintic: minimum-jerk polynomial from ``start`` to ``end`` over
    ``duration`` seconds with zero boundary velocity and acceleration,
    clamped at ``end`` afterwards.  Sinusoid: ``start + amplitude *
    sin(2*pi*frequency*t)`` per axis.  Derivatives are always analytic.
    """

    kind: TrajectoryKind
    start: Vec2
    duration: float
    end: Optional[Vec2] = None
    amplitude: Optional[Vec2] = None
    frequency: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError("duration must be finite and > 0")
        if self.kind is TrajectoryKind.QUINTIC:
            if self.end is None:
                raise ValueError("quintic trajectory requires 'end'")
            if self.amplitude is not None or self.frequency is not None:
                raise ValueError("amplitude/frequency are only valid for Sinusoid")
        else:
            if self.amplitude is None or self.frequency is None:
                raise ValueError("sinusoid trajectory requires 'amplitude' and 'frequency'")
            if self.end is not None:
                raise ValueError("end is only valid for Quintic")
            if not (math.isfinite(self.frequency) and self.frequency > 0.0):
                raise ValueError("frequency must be finite and > 0")


@dataclass(frozen=True)
class MembraneModel:
    """One-sided linear spring-dashpot along x past ``contact_x``.

    Produces the applied contact force; never pulls (x-component floored
    at zero) and never pushes sideways.
    """

    stiffness: float
    damping: float
    contact_x: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.stiffness) and self.stiffness >= 0.0):
            raise ValueError("stiffness must be finite and >= 0")
        if not (math.isfinite(self.damping) and self.damping >= 0.0):
            raise ValueError("damping must be finite and >= 0")
        if not math.isfinite(self.contact_x):
            raise ValueError("contact_x must be finite")


@dataclass(frozen=True)
class RunMetrics:
    """Aggregates over the finite rows of one closed-loop trace.

    rms_tracking_error: per-component RMS of e = qd - q.
    max_impedance_residual: worst |m*eddot + b*edot + k*e - fe| with eddot
        the acceleration actually realized by the applied torque.
    torque_divergence_rms: RMS Euclidean gap between the applied torque and
        the stage-consistent oracle torque at the same state.
    samples: number of trace rows (including a flagged non-finite final
        row when ``diverged``).
    """

    rms_tracking_error: Vec2
    max_impedance_residual: float
    torque_divergence_rms: float
    samples: int
    diverged: bool = False


@dataclass(frozen=True)
class TraceRow:
    """One sample of a closed-loop run; field order matches the CSV schema."""

    t: float
    x: float
    y: float
    xdot: float
    ydot: float
    xd: float
    yd: float
    fex: float
    fey: float
    taux: float
    tauy: float
    taux_oracle: float
    tauy_oracle: float

    def is_finite(self) -> bool:
        return all(
            math.isfinite(v)
            for v in (
                self.t, self.x, self.y, self.xdot, self.ydot, self.xd, self.yd,
                self.fex, self.fey, self.taux, self.tauy,
                self.taux_oracle, self.tauy_oracle,
            )
        )


def sample_trajectory(spec: TrajectorySpec, t: float) -> DesiredTrajectoryPoint:
    """Desired point at time t (>= 0) with analytic derivatives."""
    if not t >= 0.0:
        raise ValueError("t must be >= 0")
    if spec.kind is TrajectoryKind.QUINTIC:
        assert spec.end is not None
        if t >= spec.duration:
            return DesiredTrajectoryPoint(spec.end, Vec2(0.0, 0.0), Vec2(0.0, 0.0))
        sigma = t / spec.duration
        s = sigma * sigma * sigma * (10.0 - 15.0 * sigma + 6.0 * sigma * sigma)
        sd = 30.0 * sigma * sigma * (1.0 - sigma) * (1.0 - sigma) / spec.duration
        sdd = (60.0 * sigma * (1.0 - sigma) * (1.0 - 2.0 * sigma)) / (
            spec.duration * spec.duration
        )
        delta = spec.end - spec.start
        return DesiredTrajectoryPoint(
            spec.start + delta.scale(s), delta.scale(sd), delta.scale(sdd)
        )
    assert spec.amplitude is not None and spec.frequency is not None
    w = 2.0 * math.pi * spec.frequency
    sin_wt = math.sin(w * t)
    cos_wt = math.cos(w * t)
    return DesiredTrajectoryPoint(
        spec.start + spec.amplitude.scale(sin_wt),
        spec.amplitude.scale(w * cos_wt),
        spec.amplitude.scale(-w * w * sin_wt),
    )


def membrane_force(model: MembraneModel, q: Vec2, qdot: Vec2) -> ForcePair:
    """Contact force at state (q, qdot); zero before contact, never adhesive."""
    if q.a0 > model.contact_x:
        raw = model.stiffness * (q.a0 - model.contact_x) + model.damping * qdot.a0
        return ForcePair(max(0.0, raw), 0.0)
    return ForcePair(0.0, 0.0)


def _controller_inputs(
    spec: TrajectorySpec,
    membrane: MembraneModel,
    gains: ImpedanceParams,
    t: float,
    q: Vec2,
    qdot: Vec2,
) -> Tuple[DesiredTrajectoryPoint, ForcePair, ErrorState]:
    """Desired point, contact force and impedance-target error state at
    (t, q, qdot): what every torque-law variant is evaluated on."""
    desired = sample_trajectory(spec, t)
    fe = membrane_force(membrane, q, qdot)
    e = desired.qd - q
    edot = desired.qd_dot - qdot
    return desired, fe, ErrorState(e, edot, impedance_accel(gains, e, edot, fe))


def run_closed_loop(
    variant: ControllerVariant,
    masses: MassParams,
    frame: FrameParams,
    gains: ImpedanceParams,
    spec: TrajectorySpec,
    membrane: MembraneModel,
    fed: ForcePair,
    t_end: float,
    dt: float,
) -> Tuple[List[TraceRow], RunMetrics]:
    """Simulate one controller variant in closed loop.

    The stage starts on the trajectory: q(0) = qd(0), qdot(0) = qd_dot(0).
    Each step samples the desired point, measures the membrane contact
    force, forms the stage-frame error state (eddot from the impedance
    target m*eddot = fe - b*edot - k*e), evaluates the variant's torque and
    the stage-consistent oracle torque at the same state, records a trace
    row, and advances the dynamics one RK4 step with the variant's torque
    held constant.

    On divergence the offending row is recorded as the flagged final row,
    metrics cover the finite prefix, and ``diverged`` is set instead of
    raising.
    """
    if not dt > 0.0:
        raise ValueError("dt must be > 0")
    if not t_end > 0.0:
        raise ValueError("t_end must be > 0")
    d0 = sample_trajectory(spec, 0.0)
    q, qdot = d0.qd, d0.qd_dot
    minv = mat_inv(mass_matrix(masses))
    times = _sample_times(t_end, dt)

    rows: List[TraceRow] = []
    sq_e0 = 0.0
    sq_e1 = 0.0
    sq_div = 0.0
    imp_max = 0.0
    finite_rows = 0
    diverged = False

    for i, t in enumerate(times):
        desired, fe, errors = _controller_inputs(spec, membrane, gains, t, q, qdot)
        tau = torque_controller(
            variant, masses, frame, gains, desired, qdot, errors, fe, fed
        )
        # a stage-space variant's torque is the oracle's, bit for bit
        oracle = tau if variant in STAGE_SPACE_VARIANTS else torque_controller(
            ControllerVariant.STAGE_CONSISTENT,
            masses, frame, gains, desired, qdot, errors, fe, fed,
        )
        row = TraceRow(
            t, q.a0, q.a1, qdot.a0, qdot.a1, desired.qd.a0, desired.qd.a1,
            fe.fex, fe.fey, tau.taux, tau.tauy, oracle.taux, oracle.tauy,
        )
        rows.append(row)
        if not row.is_finite():
            diverged = True
            break

        qddot_real = stage_accel(minv, qdot, tau.vec, fed.vec)
        e = errors.e
        realized = ErrorState(e, errors.edot, desired.qd_ddot - qddot_real)
        imp_max = max(imp_max, force_control_residual(gains, realized, fe).max_abs())
        sq_e0 += e.a0 * e.a0
        sq_e1 += e.a1 * e.a1
        gap = tau.vec - oracle.vec
        sq_div += gap.a0 * gap.a0 + gap.a1 * gap.a1
        finite_rows += 1

        if i < len(times) - 1:
            q, qdot = rk4_step(minv, q, qdot, tau.vec, fed.vec, times[i + 1] - t)

    n = max(finite_rows, 1)
    metrics = RunMetrics(
        rms_tracking_error=Vec2(math.sqrt(sq_e0 / n), math.sqrt(sq_e1 / n)),
        max_impedance_residual=imp_max,
        torque_divergence_rms=math.sqrt(sq_div / n),
        samples=len(rows),
        diverged=diverged,
    )
    return rows, metrics


@dataclass(frozen=True)
class VariantReport:
    """One variant's closed-loop metrics and its gaps to the base run."""

    variant: ControllerVariant
    metrics: RunMetrics
    torque_rms_vs_base: float
    tracking_rms_vs_base: float


@dataclass(frozen=True)
class ComparisonReport:
    base: ControllerVariant
    base_metrics: RunMetrics
    reports: Tuple[VariantReport, ...]


def compare_variants(
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
) -> ComparisonReport:
    """Run every variant through the same scenario and quantify the gaps.

    ``torque_rms_vs_base`` re-evaluates the variant's torque law along the
    base run's state sequence, so it isolates the controller-law
    disagreement from closed-loop state drift (the two runs evolve
    differently as soon as their torques differ).  ``tracking_rms_vs_base``
    compares the evolved positions of the two runs at equal times.
    Divergence in one variant is flagged in its metrics and does not abort
    the others.
    """
    base_rows, base_metrics = run_closed_loop(
        base, masses, frame, gains, spec, membrane, fed, t_end, dt
    )
    base_finite = [r for r in base_rows if r.is_finite()]
    reports = []
    for variant in others:
        rows, metrics = run_closed_loop(
            variant, masses, frame, gains, spec, membrane, fed, t_end, dt
        )

        sq_tau = 0.0
        for row in base_finite:
            qdot = Vec2(row.xdot, row.ydot)
            desired, fe, errors = _controller_inputs(
                spec, membrane, gains, row.t, Vec2(row.x, row.y), qdot
            )
            tau = torque_controller(
                variant, masses, frame, gains, desired, qdot, errors, fe, fed
            )
            dx = tau.taux - row.taux
            dy = tau.tauy - row.tauy
            sq_tau += dx * dx + dy * dy
        torque_rms = math.sqrt(sq_tau / max(len(base_finite), 1))

        sq_track = 0.0
        paired = 0
        for rv, rb in zip(rows, base_rows):
            if not (rv.is_finite() and rb.is_finite()):
                break
            dx = rv.x - rb.x
            dy = rv.y - rb.y
            sq_track += dx * dx + dy * dy
            paired += 1
        tracking_rms = math.sqrt(sq_track / max(paired, 1))

        reports.append(VariantReport(variant, metrics, torque_rms, tracking_rms))
    return ComparisonReport(base, base_metrics, tuple(reports))
