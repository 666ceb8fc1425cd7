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

Each formula has one float kernel that binds its constant operators
once: ``commanded_accel_kernel`` (c, with the gains), ``torque_kernel``
(the L = M or M@T, N = B or (B@T_inv)@T and tail force of the variant's
``torque_law``, applied to a given c), ``impedance_accel_kernel``,
``force_control_residual_kernel`` and ``required_torque_kernel`` (over
``dynamics.inverse_dynamics_kernel``).  The torque laws act on c and bind
no gains, so a caller solves c once per state and passes it to every law
it evaluates there.  ``TorqueLaw.key`` names the operators and tail of
a variant's law, so a caller runs each distinct law once.  The closed
loop in ``sim`` evaluates c, the laws of ``torque_law`` and the residual
inline, in the kernels' operation order, and the kernels are its
reference.
``implication_check`` tests the impedance-law precondition and solves c
once per state, and then combines any number of torque kernels with the
required torque.  ``torque_controller``,
``commanded_accel``, ``impedance_accel``, ``force_control_residual``,
``required_torque`` and ``implication_residual`` build their kernel and
evaluate it once.  The kernels perform the float operations of the
``Vec2`` algebra in the same order, products with structural zeros
included, so they match the ``Vec2`` formulas bit for bit.

The kernels are number-generic over floats and float64 arrays: every
operation is elementwise ``+ - * /`` or ``abs``, every ``max`` is
``algebra2d.lane_max``, and T comes from ``frames.transformation_matrix``,
which takes frames of lanes; so given parameters and states whose entries
are arrays, one lane per trial, they give each lane the bits they give its
floats.  The ``verify`` control suites run them that way, a chunk of
trials per call.  T reads the frame's cached ``FrameParams.rotation``, so
every kernel built on one frame shares one cosine and sine of alpha.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

from .algebra2d import (
    Mat2, Vec2, _is_lanes, check_fields, lane_max, mat_inv, mat_mul,
)
from .dynamics import (
    ForcePair,
    MassParams,
    Torque,
    damping_matrix,
    inverse_dynamics_kernel,
    mass_matrix,
)
from .frames import FrameParams, transformation_matrix


_B = damping_matrix()


class PreconditionViolated(ValueError):
    """The supplied states do not satisfy the impedance law; the result
    of an implication check would not be probative.

    ``lane`` is the first violating lane when the states are float64
    lanes, and None for float states.
    """

    def __init__(self, message: str, lane: Optional[int] = None) -> None:
        super().__init__(message)
        self.lane = lane


@dataclass(frozen=True)
class ImpedanceParams:
    """Desired impedance: inertia m, damping b, stiffness k; all > 0."""

    m: float
    b: float
    k: float

    def __post_init__(self) -> None:
        check_fields(self, "> 0", "m", "b", "k")


class ErrorState(NamedTuple):
    """Stage-frame tracking error and its first two derivatives."""

    e: Vec2
    edot: Vec2
    eddot: Vec2


class DesiredTrajectoryPoint(NamedTuple):
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


class TorqueLaw(NamedTuple):
    """What one torque-law variant binds at given masses and frame: the
    entries of L and N, row by row, and whether its tail is fe (else fed).
    """

    l00: float
    l01: float
    l10: float
    l11: float
    n00: float
    n01: float
    n10: float
    n11: float
    use_fe: bool

    @property
    def key(self) -> Tuple[Tuple[str, ...], bool]:
        """What decides the law's torque: the entries of L and N, by
        ``float.hex``, and whether its tail is fe.

        Laws with equal keys give the same torque at every state bit for
        bit, so their closed loops are identical and need to be run only
        once.  Both stage-space variants always share a key.  At the
        identity frame (alpha = +-0.0, fx = fy = 1) CORRECTED binds exactly
        the stage-space L = M and N = B, so it shares theirs too.
        """
        return tuple(float(v).hex() for v in self[:8]), self.use_fe


def torque_law(
    variant: ControllerVariant, masses: MassParams, frame: FrameParams,
) -> TorqueLaw:
    """The operators and tail of ``variant``: L = M and N = B in stage
    space; L = M@T and N = (B@T_inv)@T, with T = transformation_matrix(frame),
    for the transform-weighted variants, which raise SingularMatrix when T
    fails ``mat_inv``'s scale-relative cutoff.  The stage-space variants
    never form T.  T reads the frame's cached ``rotation``, so the laws
    built on one frame compute its cosine and sine once between them.

    ``torque_kernel`` evaluates the law it gives, and the closed loop in
    ``sim`` evaluates it inline.
    """
    m_mat = mass_matrix(masses)
    if variant in STAGE_SPACE_VARIANTS:
        l_mat, n_mat = m_mat, _B
    else:
        t_mat = transformation_matrix(frame)
        l_mat = mat_mul(m_mat, t_mat)
        n_mat = mat_mul(mat_mul(_B, mat_inv(t_mat)), t_mat)
    return TorqueLaw(
        l_mat.m00, l_mat.m01, l_mat.m10, l_mat.m11,
        n_mat.m00, n_mat.m01, n_mat.m10, n_mat.m11,
        variant is ControllerVariant.MC_PAPER,
    )


def error_state(
    desired: DesiredTrajectoryPoint, q: Vec2, qdot: Vec2, qddot: Vec2
) -> ErrorState:
    """Componentwise errors e = qd - q, edot = qd_dot - qdot, eddot = qd_ddot - qddot."""
    return ErrorState(desired.qd - q, desired.qd_dot - qdot, desired.qd_ddot - qddot)


def impedance_accel_kernel(
    gains: ImpedanceParams,
) -> Callable[..., Tuple[float, float]]:
    """The impedance law solved for the error acceleration, in floats, with
    the gains bound once.

    The returned ``eddot(e0, e1, ed0, ed1, fe0, fe1)`` gives
    (fe - b*edot - k*e) * (1/m) per axis.
    """
    inv_m, b, k = 1.0 / gains.m, gains.b, gains.k

    def eddot(
        e0: float, e1: float, ed0: float, ed1: float, fe0: float, fe1: float,
    ) -> Tuple[float, float]:
        return (
            inv_m * ((fe0 - b * ed0) - k * e0),
            inv_m * ((fe1 - b * ed1) - k * e1),
        )

    return eddot


def impedance_accel(
    gains: ImpedanceParams, e: Vec2, edot: Vec2, fe: ForcePair
) -> Vec2:
    """The impedance law solved for the error acceleration:
    eddot = (fe - b*edot - k*e) * (1/m)."""
    return Vec2(*impedance_accel_kernel(gains)(
        e.a0, e.a1, edot.a0, edot.a1, fe.fex, fe.fey
    ))


def force_control_residual_kernel(
    gains: ImpedanceParams,
) -> Callable[..., Tuple[float, float]]:
    """The impedance-law residual in floats, with the gains bound once.

    The returned ``residual(e0, e1, ed0, ed1, edd0, edd1, fe0, fe1)`` gives
    m*eddot + b*edot + k*e - fe per axis.
    """
    m, b, k = gains.m, gains.b, gains.k

    def residual(
        e0: float, e1: float, ed0: float, ed1: float,
        edd0: float, edd1: float, fe0: float, fe1: float,
    ) -> Tuple[float, float]:
        return (
            ((m * edd0 + b * ed0) + k * e0) - fe0,
            ((m * edd1 + b * ed1) + k * e1) - fe1,
        )

    return residual


def force_control_residual(
    gains: ImpedanceParams, errors: ErrorState, fe: ForcePair
) -> Vec2:
    """m*eddot + b*edot + k*e - fe; zero iff the impedance law holds."""
    e, edot, eddot = errors.e, errors.edot, errors.eddot
    return Vec2(*force_control_residual_kernel(gains)(
        e.a0, e.a1, edot.a0, edot.a1, eddot.a0, eddot.a1, fe.fex, fe.fey
    ))


def required_torque_kernel(
    m_mat: Mat2, fed: ForcePair,
) -> Callable[..., Tuple[float, float]]:
    """Dynamics inversion in floats, with the mass matrix ``m_mat``, B and
    fed bound once.

    The returned ``required(a0, a1, v0, v1)`` gives M @ a + B @ v + fed, the
    torque that realizes the acceleration a at velocity v.
    """
    lhs = inverse_dynamics_kernel(m_mat)
    fed0, fed1 = fed.fex, fed.fey

    def required(a0: float, a1: float, v0: float, v1: float) -> Tuple[float, float]:
        l0, l1 = lhs(a0, a1, v0, v1)
        return l0 + fed0, l1 + fed1

    return required


def required_torque(
    masses: MassParams, qddot: Vec2, qdot: Vec2, fed: ForcePair
) -> Torque:
    """Dynamics inversion: the torque that realizes qddot at state qdot.

    tau = M @ qddot + B @ qdot + fed; feeding it back into the dynamics
    residual gives exactly zero up to rounding.
    """
    return Torque(*required_torque_kernel(mass_matrix(masses), fed)(
        qddot.a0, qddot.a1, qdot.a0, qdot.a1
    ))


def commanded_accel_kernel(
    gains: ImpedanceParams,
) -> Callable[..., Tuple[float, float]]:
    """The commanded acceleration in floats, with the gains bound once.

    The returned ``commanded(qdd0, qdd1, e0, e1, ed0, ed1, fe0, fe1)`` gives
    c = qd_ddot + (1/m) * (b*edot + k*e - fe) per axis.
    """
    inv_m, b, k = 1.0 / gains.m, gains.b, gains.k

    def commanded(
        qdd0: float, qdd1: float, e0: float, e1: float,
        ed0: float, ed1: float, fe0: float, fe1: float,
    ) -> Tuple[float, float]:
        return (
            qdd0 + inv_m * ((b * ed0 + k * e0) - fe0),
            qdd1 + inv_m * ((b * ed1 + k * e1) - fe1),
        )

    return commanded


def commanded_accel(
    gains: ImpedanceParams, desired: DesiredTrajectoryPoint, errors: ErrorState, fe: ForcePair
) -> Vec2:
    """c = qd_ddot + (1/m) * (b*edot + k*e - fe)."""
    qdd, e, edot = desired.qd_ddot, errors.e, errors.edot
    return Vec2(*commanded_accel_kernel(gains)(
        qdd.a0, qdd.a1, e.a0, e.a1, edot.a0, edot.a1, fe.fex, fe.fey
    ))


def torque_kernel(
    variant: ControllerVariant,
    masses: MassParams,
    frame: FrameParams,
    fed: ForcePair,
) -> Callable[..., Tuple[float, float]]:
    """One torque-law variant in floats, with its ``torque_law`` bound once.

    The returned ``torque(c0, c1, fe0, fe1, v0, v1)`` gives
    tau = L @ c + N @ qdot + tail at one state, with the commanded
    acceleration c from ``commanded_accel_kernel(gains)`` and the tail fe
    for MC_PAPER, fed otherwise, picked when the kernel is built.  The
    gains enter only through c, so a caller solves c once per state for
    every law it evaluates there.  Every matrix product is formed, the
    structural zeros included, in the order of ``mat_vec_mul``.
    """
    l00, l01, l10, l11, n00, n01, n10, n11, use_fe = torque_law(
        variant, masses, frame)
    if use_fe:
        def torque(
            c0: float, c1: float, fe0: float, fe1: float, v0: float, v1: float,
        ) -> Tuple[float, float]:
            return (
                ((l00 * c0 + l01 * c1) + (n00 * v0 + n01 * v1)) + fe0,
                ((l10 * c0 + l11 * c1) + (n10 * v0 + n11 * v1)) + fe1,
            )

        return torque
    fed0, fed1 = fed.fex, fed.fey

    def torque_fed(
        c0: float, c1: float, fe0: float, fe1: float, v0: float, v1: float,
    ) -> Tuple[float, float]:
        return (
            ((l00 * c0 + l01 * c1) + (n00 * v0 + n01 * v1)) + fed0,
            ((l10 * c0 + l11 * c1) + (n10 * v0 + n11 * v1)) + fed1,
        )

    return torque_fed


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
    onto the stage-space form.  Builds ``torque_kernel`` and evaluates it
    once on c from ``commanded_accel_kernel``.
    """
    qdd, e, edot = desired.qd_ddot, errors.e, errors.edot
    c0, c1 = commanded_accel_kernel(gains)(
        qdd.a0, qdd.a1, e.a0, e.a1, edot.a0, edot.a1, fe.fex, fe.fey
    )
    return Torque(*torque_kernel(variant, masses, frame, fed)(
        c0, c1, fe.fex, fe.fey, qdot.a0, qdot.a1
    ))


def implication_check(
    gains: ImpedanceParams, required: Callable[..., Tuple[float, float]],
    qd0: float, qd1: float, qdv0: float, qdv1: float, qdd0: float,
    qdd1: float, q0: float, q1: float, v0: float, v1: float, a0: float,
    a1: float, fe0: float, fe1: float,
) -> Callable[[Callable[..., Tuple[float, float]]], Tuple[float, float]]:
    """The implication check at one state: the desired position, velocity
    and acceleration, the actual ones and the contact force, with the
    required-torque kernel ``required`` (from ``required_torque_kernel``).

    Raises PreconditionViolated when the state breaks the impedance law,
    naming the first violating lane of float64 lanes.  Otherwise returns
    ``residual_of(torque)``, which takes a kernel from ``torque_kernel``
    and gives the torque minus the dynamics-inversion torque at that state,
    so the precondition is tested, and the commanded acceleration solved,
    once for any number of laws.
    """
    fc_residual = force_control_residual_kernel(gains)
    m, b, k = gains.m, gains.b, gains.k
    e0, e1 = qd0 - q0, qd1 - q1
    ed0, ed1 = qdv0 - v0, qdv1 - v1
    edd0, edd1 = qdd0 - a0, qdd1 - a1
    f0, f1 = fc_residual(e0, e1, ed0, ed1, edd0, edd1, fe0, fe1)
    fc_max = lane_max(abs(f0), abs(f1))
    bound = 1e-9 * lane_max(
        1.0,
        lane_max(abs(fe0), abs(fe1)),
        lane_max(abs(m * edd0), abs(m * edd1)),
        lane_max(abs(b * ed0), abs(b * ed1)),
        lane_max(abs(k * e0), abs(k * e1)),
    )
    violated = fc_max > bound
    if _is_lanes(violated):
        if violated.any():
            lane = int(violated.argmax())
            raise PreconditionViolated(
                f"impedance-law residual {fc_max[lane]:.3e} exceeds "
                f"{bound[lane]:.3e} in lane {lane}; implication check "
                "is not probative", lane,
            )
    elif violated:
        raise PreconditionViolated(
            f"impedance-law residual {fc_max:.3e} exceeds "
            f"{bound:.3e}; implication check is not probative"
        )
    r0, r1 = required(a0, a1, v0, v1)
    c0, c1 = commanded_accel_kernel(gains)(
        qdd0, qdd1, e0, e1, ed0, ed1, fe0, fe1
    )

    def residual_of(
        torque: Callable[..., Tuple[float, float]],
    ) -> Tuple[float, float]:
        t0, t1 = torque(c0, c1, fe0, fe1, v0, v1)
        return t0 - r0, t1 - r1

    return residual_of


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
    whenever the precondition holds.  Builds ``torque_kernel`` and
    evaluates it and ``implication_check`` once.
    """
    q, qdot, qddot = actual
    qd, qd_dot, qd_ddot = desired.qd, desired.qd_dot, desired.qd_ddot
    required = required_torque_kernel(mass_matrix(masses), fed)
    torque = torque_kernel(variant, masses, frame, fed)
    return Vec2(*implication_check(
        gains, required, qd.a0, qd.a1, qd_dot.a0, qd_dot.a1, qd_ddot.a0,
        qd_ddot.a1, q.a0, q.a1, qdot.a0, qdot.a1, qddot.a0, qddot.a1,
        fe.fex, fe.fey,
    )(torque))
