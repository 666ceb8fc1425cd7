"""Impedance force control and the image-based torque-controller variants.

The impedance law shapes the stage tracking error like a programmable
mass-spring-damper against the contact force:

    m*eddot + b*edot + k*e = fe

with scalar gains (m, b, k) applied per axis and stage-frame errors
e = qd - q.  Substituting eddot from the law into the stage dynamics
yields a torque law built around the commanded acceleration

    c = qd_ddot + (1/m) * (b*edot + k*e - fe).

Four published or derived formulations of that torque law are implemented
side by side so their disagreement can be measured instead of argued:

* ``CORRECTED``        tau = M@T@c + (B@T_inv)@T@qdot + fed
                       (transform-weighted form, T the stage-to-image
                       matrix)
* ``SIM_PAPER``        tau = M@c + B@qdot + fed
                       (drops the transform everywhere)
* ``MC_PAPER``         tau = M@T@c + (B@T_inv)@T@qdot + fe
                       (substitutes the measured contact force for the
                       commanded actuator force)
* ``STAGE_CONSISTENT`` tau = M@c + B@qdot + fed
                       (dynamics inversion in stage coordinates; the one
                       form for which the impedance law plus the stage
                       dynamics imply the torque law exactly, used as the
                       oracle throughout)

STAGE_CONSISTENT and SIM_PAPER are algebraically identical under the
stage-frame error definition; both names are kept because they answer
different questions (oracle vs. published formulation).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

from .algebra2d import Vec2, mat_inv, mat_mul, mat_vec_mul
from .dynamics import (
    ForcePair,
    MassParams,
    Torque,
    damping_matrix,
    mass_matrix,
)
from .frames import FrameParams, transformation_matrix


class PreconditionViolated(ValueError):
    """The supplied states do not satisfy the impedance law; the result
    of an implication check would not be probative."""


@dataclass(frozen=True)
class ImpedanceParams:
    """Desired impedance: inertia m, damping b, stiffness k; all > 0."""

    m: float
    b: float
    k: float

    def __post_init__(self) -> None:
        for name in ("m", "b", "k"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class ErrorState:
    """Stage-frame tracking error and its first two derivatives."""

    e: Vec2
    edot: Vec2
    eddot: Vec2


@dataclass(frozen=True)
class DesiredTrajectoryPoint:
    """Desired stage position, velocity and acceleration at one instant."""

    qd: Vec2
    qd_dot: Vec2
    qd_ddot: Vec2


class ControllerVariant(enum.Enum):
    CORRECTED = "Corrected"
    SIM_PAPER = "SimPaper"
    MC_PAPER = "McPaper"
    STAGE_CONSISTENT = "StageConsistent"


# Variants whose torque law is the stage-space form M@c + B@qdot + fed.
STAGE_SPACE_VARIANTS = frozenset(
    {ControllerVariant.SIM_PAPER, ControllerVariant.STAGE_CONSISTENT}
)


def error_state(
    desired: DesiredTrajectoryPoint, q: Vec2, qdot: Vec2, qddot: Vec2
) -> ErrorState:
    """Componentwise errors e = qd - q, edot = qd_dot - qdot, eddot = qd_ddot - qddot."""
    return ErrorState(desired.qd - q, desired.qd_dot - qdot, desired.qd_ddot - qddot)


def impedance_accel(
    gains: ImpedanceParams, e: Vec2, edot: Vec2, fe: ForcePair
) -> Vec2:
    """The impedance law solved for the error acceleration:
    eddot = (fe - b*edot - k*e) * (1/m)."""
    return (fe.vec - edot.scale(gains.b) - e.scale(gains.k)).scale(1.0 / gains.m)


def force_control_residual(
    gains: ImpedanceParams, errors: ErrorState, fe: ForcePair
) -> Vec2:
    """m*eddot + b*edot + k*e - fe; zero iff the impedance law holds."""
    return (
        errors.eddot.scale(gains.m)
        + errors.edot.scale(gains.b)
        + errors.e.scale(gains.k)
        - fe.vec
    )


def required_torque(
    masses: MassParams, qddot: Vec2, qdot: Vec2, fed: ForcePair
) -> Torque:
    """Dynamics inversion: the torque that realizes qddot at state qdot.

    tau = M @ qddot + B @ qdot + fed; feeding it back into the dynamics
    residual gives exactly zero up to rounding.
    """
    tau = (
        mat_vec_mul(mass_matrix(masses), qddot)
        + mat_vec_mul(damping_matrix(), qdot)
        + fed.vec
    )
    return Torque.from_vec(tau)


def commanded_accel(
    gains: ImpedanceParams, desired: DesiredTrajectoryPoint, errors: ErrorState, fe: ForcePair
) -> Vec2:
    """c = qd_ddot + (1/m) * (b*edot + k*e - fe)."""
    correction = errors.edot.scale(gains.b) + errors.e.scale(gains.k) - fe.vec
    return desired.qd_ddot + correction.scale(1.0 / gains.m)


def torque_controller(
    variant: ControllerVariant,
    masses: MassParams,
    frame: FrameParams,
    gains: ImpedanceParams,
    desired: DesiredTrajectoryPoint,
    qdot: Vec2,
    errors: ErrorState,
    fe: ForcePair,
    fed: ForcePair,
) -> Torque:
    """Evaluate one torque-law variant (see the module docstring).

    All variants share the commanded acceleration c; they differ only in
    whether the transform T enters and in which force closes the law.  The
    transform-weighted variants evaluate their leading terms identically,
    so MC_PAPER minus CORRECTED is exactly fe - fed, and at the identity
    transform (fx = fy = 1, alpha = 0) all evaluation collapses bit-for-bit
    onto the stage-space form.
    """
    m_mat = mass_matrix(masses)
    b_mat = damping_matrix()
    c = commanded_accel(gains, desired, errors, fe)
    if variant in STAGE_SPACE_VARIANTS:
        lead = mat_vec_mul(m_mat, c) + mat_vec_mul(b_mat, qdot)
        tail = fed.vec
    else:
        t_mat = transformation_matrix(frame)
        mt = mat_mul(m_mat, t_mat)
        nt = mat_mul(mat_mul(b_mat, mat_inv(t_mat)), t_mat)
        lead = mat_vec_mul(mt, c) + mat_vec_mul(nt, qdot)
        tail = fe.vec if variant is ControllerVariant.MC_PAPER else fed.vec
    return Torque.from_vec(lead + tail)


def implication_residual(
    variant: ControllerVariant,
    masses: MassParams,
    frame: FrameParams,
    gains: ImpedanceParams,
    desired: DesiredTrajectoryPoint,
    actual: Tuple[Vec2, Vec2, Vec2],
    fe: ForcePair,
    fed: ForcePair,
) -> Vec2:
    """Gap between a torque-law variant and the dynamics-inversion torque.

    ``actual`` is the (q, qdot, qddot) triple of the true stage motion.
    The caller must supply states satisfying the impedance law; this is
    checked and PreconditionViolated raised otherwise, because the
    implication (impedance law + dynamics => torque law) only speaks about
    such states.  For STAGE_CONSISTENT the residual is zero up to rounding
    whenever the precondition holds.
    """
    q, qdot, qddot = actual
    errors = error_state(desired, q, qdot, qddot)
    fc_res = force_control_residual(gains, errors, fe)
    scale = max(
        1.0,
        fe.vec.max_abs(),
        errors.eddot.scale(gains.m).max_abs(),
        errors.edot.scale(gains.b).max_abs(),
        errors.e.scale(gains.k).max_abs(),
    )
    if fc_res.max_abs() > 1e-9 * scale:
        raise PreconditionViolated(
            f"impedance-law residual {fc_res.max_abs():.3e} exceeds "
            f"{1e-9 * scale:.3e}; implication check is not probative"
        )
    tau_variant = torque_controller(
        variant, masses, frame, gains, desired, qdot, errors, fe, fed
    )
    tau_required = required_torque(masses, qddot, qdot, fed)
    return tau_variant.vec - tau_required.vec
