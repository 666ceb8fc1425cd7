"""Dynamics of the 2-DOF motion stage.

The stage obeys ``M @ qddot + B @ qdot = tau - fed`` with diagonal mass
matrix ``M = diag(mx+my+mp, my+mp)``, identity damping matrix ``B``, motor
torque ``tau`` and commanded actuator force ``fed``.  Torque and force
components are treated as commensurable generalized forces, exactly as the
model equation states them.

With ``tau = fed = 0`` the system decouples into two first-order velocity
decays and has the closed-form solution implemented by
``free_response_kernel``; the RK4 integrator, which holds the forcing
constant, is checked against it by the test suite and by ``verify``.

Each formula is evaluated in one place, a float kernel bound once per
parameter set: ``free_response_kernel`` (position, velocity and
acceleration from one ``exp`` per axis), ``inverse_dynamics_kernel``
(M @ a + B @ v) and ``rk4_kernel``.
``free_response``, ``free_response_accel`` and ``dynamics_residual`` wrap
them and evaluate them once.  ``mass_matrix``, ``inverse_dynamics_kernel``
and ``free_response_kernel`` are elementwise ``+ - * /`` and ``exp``, with
``exp`` from ``math`` lane by lane, so the verify suites run them on
float64 lanes, one per trial or per sample time, each lane with the bits
of its float evaluation.

The RK4 step is evaluated in one place: ``rk4_kernel`` binds M_inv and B
once and takes a step of plain floats in one call, its four stage
accelerations M_inv @ (f - B @ v) written inline.  It also hands back its
first stage, the acceleration at the state it starts from, which the
closed loop in ``sim`` scores instead of solving the dynamics a second
time.  ``rk4_step`` and ``integrate`` wrap it, and the closed loop calls it
directly.  It performs the float operations of the ``Vec2`` algebra in the
same order, products with the structural zeros of M_inv and B included, so
its results are those of the ``Vec2`` formulas bit for bit, signed zeros
and NaN/inf patterns included.  Only the products with B's unit diagonal
are left out, in it and in ``inverse_dynamics_kernel``: ``1.0 * v`` is
``v`` bit for bit, signed zeros and NaN included.

A run's time grid is walked, never held: ``step_grid`` checks it once
with ``check_steps`` and then yields each sample time with the width of
the step to the next one, and ``integrate`` and the closed loop in
``sim`` both iterate over it.  ``grid_rows`` counts its times without
walking it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Tuple

from .algebra2d import (
    Mat2, Vec2, check_fields, diag, identity, lane_map, mat_inv, mat_mul,
)
from .frames import FrameParams, transformation_matrix


class NonFiniteState(RuntimeError):
    """Integration diverged: a state component became NaN or infinite.

    ``samples`` holds the finite prefix of the rows, as ``integrate``
    returns them; ``last_index`` is the index of its final (finite) row.
    """

    def __init__(
        self, message: str,
        samples: List[Tuple[float, float, float, float, float]],
    ):
        super().__init__(message)
        self.samples = samples
        self.last_index = len(samples) - 1


@dataclass(frozen=True)
class MassParams:
    """Masses of the x-table, y-table and working plate; all > 0."""

    mx: float
    my: float
    mp: float

    def __post_init__(self) -> None:
        check_fields(self, "> 0", "mx", "my", "mp")

    @property
    def total_x(self) -> float:
        """Mass moved along x: mx + my + mp."""
        return self.mx + self.my + self.mp

    @property
    def total_y(self) -> float:
        """Mass moved along y: my + mp."""
        return self.my + self.mp


class StageState(NamedTuple):
    """Stage configuration: positions q = (x, y) and velocities qdot."""

    q: Vec2
    qdot: Vec2


@dataclass(frozen=True)
class ForcePair:
    """Planar force with x/y components (applied or commanded)."""

    fex: float
    fey: float

    @property
    def vec(self) -> Vec2:
        return Vec2(self.fex, self.fey)


@dataclass(frozen=True)
class Torque:
    """Motor torque with x/y components."""

    taux: float
    tauy: float

    @property
    def vec(self) -> Vec2:
        return Vec2(self.taux, self.tauy)


ZERO_FORCE = ForcePair(0.0, 0.0)
ZERO_TORQUE = Torque(0.0, 0.0)


def mass_matrix(masses: MassParams) -> Mat2:
    """diag(mx+my+mp, my+mp); diagonal and positive-definite."""
    return diag(masses.total_x, masses.total_y)


def damping_matrix() -> Mat2:
    """The positioning-table matrix: the 2x2 identity."""
    return identity()


_B = damping_matrix()


def inverse_dynamics_kernel(m_mat: Mat2) -> Callable[..., Tuple[float, float]]:
    """The left side of the dynamics in floats, with the mass matrix
    ``m_mat`` (from ``mass_matrix``) and B bound once.

    The returned ``lhs(a0, a1, v0, v1)`` gives M @ a + B @ v for the
    acceleration a and velocity v.  Every product of both matrices is
    formed, the structural zeros included, in the order of ``mat_vec_mul``,
    but those with B's unit diagonal: ``1.0 * v`` is ``v`` bit for bit.
    ``dynamics_residual`` and ``control.required_torque_kernel`` wrap it.
    """
    m00, m01, m10, m11 = m_mat.m00, m_mat.m01, m_mat.m10, m_mat.m11
    b01, b10 = _B.m01, _B.m10

    def lhs(a0: float, a1: float, v0: float, v1: float) -> Tuple[float, float]:
        return (
            (m00 * a0 + m01 * a1) + (v0 + b01 * v1),
            (m10 * a0 + m11 * a1) + (b10 * v0 + v1),
        )

    return lhs


def dynamics_residual(
    masses: MassParams, qddot: Vec2, qdot: Vec2, tau: Torque, fed: ForcePair
) -> Vec2:
    """M @ qddot + B @ qdot - (tau - fed); zero iff the dynamics hold."""
    l0, l1 = inverse_dynamics_kernel(mass_matrix(masses))(
        qddot.a0, qddot.a1, qdot.a0, qdot.a1
    )
    return Vec2(l0 - (tau.taux - fed.fex), l1 - (tau.tauy - fed.fey))


def free_response_kernel(
    masses: MassParams, x0: float, y0: float, xd0: float, yd0: float
) -> Callable[[float], Tuple[float, float, float, float, float, float]]:
    """The closed-form free response, with its constants bound once.

    The returned ``at(t)`` gives (x, y, xdot, ydot, xddot, yddot) at time t,
    from one ``exp`` per axis shared by the three derivatives:

        x(t) = (x0 + xd0*Mx) - xd0*Mx*exp(-t/Mx),  xdot(t) = xd0*exp(-t/Mx),
        xddot(t) = -(xd0/Mx)*exp(-t/Mx),

    with Mx = mx+my+mp, and the analogous y terms with My = my+mp.  The
    masses, initial conditions and t may be floats or float64 lanes
    (``verify._lanes(MassParams, ...)``); ``exp`` is ``math.exp`` lane by
    lane, because numpy's need not round as libm does, so each lane gets
    the bits of its float evaluation.  It does not check t;
    ``free_response`` and ``free_response_accel`` wrap it and reject t < 0.
    """
    mx_tot = masses.total_x
    my_tot = masses.total_y
    x_inf, y_inf = x0 + xd0 * mx_tot, y0 + yd0 * my_tot
    x_span, y_span = xd0 * mx_tot, yd0 * my_tot
    x_acc, y_acc = -(xd0 / mx_tot), -(yd0 / my_tot)

    def at(t: float) -> Tuple[float, float, float, float, float, float]:
        ex = lane_map(math.exp, -t / mx_tot)
        ey = lane_map(math.exp, -t / my_tot)
        return (
            x_inf - x_span * ex, y_inf - y_span * ey,
            xd0 * ex, yd0 * ey,
            x_acc * ex, y_acc * ey,
        )

    return at


def free_response(
    masses: MassParams, x0: float, y0: float, xd0: float, yd0: float, t: float
) -> StageState:
    """Closed-form torque-free, force-free motion from (x0, y0, xd0, yd0).

    x(t) = (x0 + xd0*Mx) - xd0*Mx*exp(-t/Mx) with Mx = mx+my+mp, and the
    analogous y(t) with My = my+mp; velocities are the analytic derivatives
    xd0*exp(-t/Mx), yd0*exp(-t/My).
    """
    if not t >= 0.0:
        raise ValueError("t must be >= 0")
    x, y, xd, yd, _, _ = free_response_kernel(masses, x0, y0, xd0, yd0)(t)
    return StageState(Vec2(x, y), Vec2(xd, yd))


def free_response_accel(
    masses: MassParams, xd0: float, yd0: float, t: float
) -> Vec2:
    """Analytic accelerations of the free response:
    (-(xd0/Mx)*exp(-t/Mx), -(yd0/My)*exp(-t/My))."""
    if not t >= 0.0:
        raise ValueError("t must be >= 0")
    *_, xdd, ydd = free_response_kernel(masses, 0.0, 0.0, xd0, yd0)(t)
    return Vec2(xdd, ydd)


# The most steps (t_end / dt) a run may take.  The time grid is walked, not
# held, and a closed loop holds no rows, so for a closed loop the cap bounds
# run time: a step and its CSV row take about 8 us, most of it formatting
# the CSV (a 1,000,000-step Corrected run of the README scenario with --svg
# took 7.7-8.7 s in three runs on a 2-core x86-64 container, Python
# 3.11.7), so a variant's run takes at most about 8 s and a 216 MB CSV.
# ``integrate`` still keeps every sample, about 0.2 KB a step, so for it the
# cap also bounds memory, to about 200 MB.  The README scenario takes 5,000
# steps.
MAX_STEPS = 1_000_000


def check_steps(
    t_end: float, dt: float, t_name: str = "t_end", dt_name: str = "dt"
) -> None:
    """Raise ValueError unless dt is finite and > 0, t_end >= 0 and
    t_end / dt <= ``MAX_STEPS`` (NaN and inf fail); the messages use the
    caller's names."""
    if not dt > 0.0:
        raise ValueError(f"{dt_name} must be > 0")
    if dt == math.inf:
        raise ValueError(f"{dt_name} must be finite")
    if not t_end >= 0.0:
        raise ValueError(f"{t_name} must be >= 0")
    if not t_end / dt <= MAX_STEPS:
        raise ValueError(
            f"{t_name} / {dt_name} must be <= {MAX_STEPS} steps, "
            f"got {t_end / dt:.6g}"
        )


def _whole_steps(t_end: float, dt: float) -> int:
    """The number of full steps of width dt in the grid to t_end."""
    n = int(math.floor(t_end / dt))
    if (n + 1) * dt <= t_end:
        n += 1
    return n


def grid_rows(t_end: float, dt: float) -> int:
    """The number of times ``step_grid(t_end, dt)`` yields, worked out
    without walking it, for a grid that ``check_steps`` accepts."""
    n = _whole_steps(t_end, dt)
    # the walk's last full step ends at n*dt; a partial step follows it
    # when that falls short of t_end
    return n + 1 + (n * dt < t_end)


def step_grid(
    t_end: float, dt: float, t_name: str = "t_end", dt_name: str = "dt"
) -> Iterator[Tuple[float, float]]:
    """The time grid of a run, checked by ``check_steps`` when called and
    then walked lazily.

    Yields ``(t, h)`` for t = 0, dt, 2*dt, ..., t_end, with h the width of
    the step to the next time; the last time is paired with h = 0.0.  Times
    are k*dt (not accumulated, to avoid drift), then a final partial step
    lands exactly on t_end.
    """
    check_steps(t_end, dt, t_name, dt_name)
    n = _whole_steps(t_end, dt)

    def walk() -> Iterator[Tuple[float, float]]:
        t = 0.0
        for k in range(1, n + 1):
            t_next = k * dt
            yield t, t_next - t
            t = t_next
        if t < t_end:
            yield t, t_end - t
            t = t_end
        yield t, 0.0

    return walk()


def rk4_kernel(minv: Mat2) -> Callable[..., Tuple[float, ...]]:
    """One classical Runge-Kutta step in floats, with M_inv and B bound once.

    The returned ``step(f0, f1, x, y, vx, vy, h)`` advances the state
    (x, y, vx, vy) by h under the net forcing f = tau - fed, held constant
    across the substages, and gives (x, y, vx, vy, ax, ay): the new state
    and the acceleration M_inv @ (f - B @ v) at the state it started from,
    its first stage, which does not depend on h.  Each stage acceleration
    is evaluated inline, every product of both matrices formed, the
    structural zeros included, in the order of ``mat_vec_mul``, so a
    non-finite component spreads as it does there; only the products with
    B's unit diagonal are left out, since ``1.0 * v`` is ``v`` bit for bit.
    It is the one RK4 and the one stage acceleration of the package:
    ``rk4_step``, ``integrate`` and the closed loop all call it.
    """
    m00, m01, m10, m11 = minv.m00, minv.m01, minv.m10, minv.m11
    b01, b10 = _B.m01, _B.m10

    # the entries are bound as defaults, which step reads as fast locals
    def step(
        f0: float, f1: float, x: float, y: float, vx: float, vy: float, h: float,
        m00: float = m00, m01: float = m01, m10: float = m10,
        m11: float = m11, b01: float = b01, b10: float = b10,
    ) -> Tuple[float, ...]:
        half = 0.5 * h
        r0 = f0 - (vx + b01 * vy)
        r1 = f1 - (b10 * vx + vy)
        k1x, k1y = m00 * r0 + m01 * r1, m10 * r0 + m11 * r1
        v2x, v2y = vx + half * k1x, vy + half * k1y
        r0 = f0 - (v2x + b01 * v2y)
        r1 = f1 - (b10 * v2x + v2y)
        k2x, k2y = m00 * r0 + m01 * r1, m10 * r0 + m11 * r1
        v3x, v3y = vx + half * k2x, vy + half * k2y
        r0 = f0 - (v3x + b01 * v3y)
        r1 = f1 - (b10 * v3x + v3y)
        k3x, k3y = m00 * r0 + m01 * r1, m10 * r0 + m11 * r1
        v4x, v4y = vx + h * k3x, vy + h * k3y
        r0 = f0 - (v4x + b01 * v4y)
        r1 = f1 - (b10 * v4x + v4y)
        k4x, k4y = m00 * r0 + m01 * r1, m10 * r0 + m11 * r1
        w = h / 6.0
        return (
            x + w * (((vx + 2.0 * v2x) + 2.0 * v3x) + v4x),
            y + w * (((vy + 2.0 * v2y) + 2.0 * v3y) + v4y),
            vx + w * (((k1x + 2.0 * k2x) + 2.0 * k3x) + k4x),
            vy + w * (((k1y + 2.0 * k2y) + 2.0 * k3y) + k4y),
            k1x, k1y,
        )

    return step


def rk4_step(
    minv: Mat2, q: Vec2, qdot: Vec2, tau_vec: Vec2, fed_vec: Vec2, h: float
) -> Tuple[Vec2, Vec2]:
    """One classical Runge-Kutta step of the stage dynamics.

    The forcing (tau_vec, fed_vec) is held constant across the substages;
    damping is the identity matrix acting on the substage velocities.
    """
    x, y, vx, vy, _, _ = rk4_kernel(minv)(
        tau_vec.a0 - fed_vec.a0, tau_vec.a1 - fed_vec.a1,
        q.a0, q.a1, qdot.a0, qdot.a1, h,
    )
    return Vec2(x, y), Vec2(vx, vy)


def integrate(
    masses: MassParams,
    s0: StageState,
    tau: Torque,
    fed: ForcePair,
    t_end: float,
    dt: float,
) -> List[Tuple[float, float, float, float, float]]:
    """Fixed-step RK4 integration of the stage dynamics under constant forcing.

    Parameters
    ----------
    masses : MassParams
    s0 : StageState
        Initial state at t = 0.
    tau, fed : Torque, ForcePair
        Motor torque and commanded force, held constant over the whole run.
    t_end : float
        End time (>= 0); a final partial step lands exactly on it.
    dt : float
        Step width (finite, > 0), at most ``MAX_STEPS`` steps to ``t_end``.

    Returns
    -------
    list of plain tuples (t, x, y, xdot, ydot), one per sample at
    t = 0, dt, 2*dt, ..., t_end, the times of ``step_grid``: the first five
    columns of ``sim.TraceRow``.
    The first row holds ``s0``'s components as they are, signed zeros
    included.

    Raises
    ------
    ValueError
        If the grid breaks ``check_steps``, before anything is allocated.
    NonFiniteState
        If any state component becomes NaN or infinite; the exception
        carries the finite prefix of the rows.  A state is tested by the
        sum of its components, and component by component only when that
        sum is not finite, since finite components can overflow when summed.
    """
    grid = step_grid(t_end, dt)
    step = rk4_kernel(mat_inv(mass_matrix(masses)))
    f0, f1 = tau.taux - fed.fex, tau.tauy - fed.fey
    x, y, vx, vy = s0.q.a0, s0.q.a1, s0.qdot.a0, s0.qdot.a1
    samples: List[Tuple[float, float, float, float, float]] = []
    isfinite = math.isfinite
    for t, h in grid:
        samples.append((t, x, y, vx, vy))
        if not h:
            # t_end: no state follows it, so its zero-width step is not taken
            break
        x, y, vx, vy, _, _ = step(f0, f1, x, y, vx, vy, h)
        if not isfinite(x + y + vx + vy) and not (
            isfinite(x) and isfinite(y) and isfinite(vx) and isfinite(vy)
        ):
            # t + h is the next grid time: the two are within a factor of 2
            # of each other, so h is their exact difference
            raise NonFiniteState(
                f"state became non-finite at t={t + h!r}", samples)
    return samples


def image_space_operators(masses: MassParams, p: FrameParams) -> Tuple[Mat2, Mat2]:
    """Inertia and positioning-table operators in image space.

    Returns (M @ T_inv, B @ T_inv).  For any stage trajectory satisfying
    the dynamics, the image trajectory u = T @ q + offset satisfies
    (M @ T_inv) @ uddot + (B @ T_inv) @ udot = tau - fed.
    """
    t_inv = mat_inv(transformation_matrix(p))
    return mat_mul(mass_matrix(masses), t_inv), mat_mul(damping_matrix(), t_inv)
