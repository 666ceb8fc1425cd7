"""Randomized numerical verification suites.

Each suite turns one family of model identities into a seeded ensemble
check and reports the worst-case residual observed.  Draws come from
numpy's PCG64 generator so a (seed, trials) pair replicates exactly.

Suites:

* ``frames``       frame-transform composition, rotation orthogonality,
                   transform invertibility, round trips.
* ``dynamics``     closed-form free response against the stage dynamics,
                   RK4 accuracy and convergence order, image-space
                   operators, long-time asymptotics.
* ``implication``  impedance law + dynamics imply the stage-consistent
                   torque law.
* ``discrepancy``  quantified separation of the faulty torque-law variants
                   from the transform-weighted form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .algebra2d import Vec2, det, identity, mat_inv, mat_mul, mat_vec_mul, transpose
from .control import (
    ControllerVariant,
    DesiredTrajectoryPoint,
    ErrorState,
    ImpedanceParams,
    commanded_accel,
    impedance_accel,
    implication_residual,
    required_torque,
    torque_controller,
)
from .dynamics import (
    ForcePair,
    MassParams,
    StageState,
    ZERO_FORCE,
    ZERO_TORQUE,
    dynamics_residual,
    free_response,
    free_response_accel,
    image_space_operators,
    integrate,
)
from .frames import (
    FrameParams,
    StageCoord,
    camera_to_image,
    image_offset,
    rotation_matrix,
    stage_to_camera,
    stage_to_image,
    transformation_matrix,
)

SUITE_NAMES = ("frames", "dynamics", "implication", "discrepancy", "all")

_DEFAULT_TRIALS = {
    "frames": 10_000,
    "dynamics": 1_000,
    "implication": 10_000,
    "discrepancy": 10_000,
}


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one ensemble property check.

    ``worst`` is the worst-case residual (or, for separation/order checks,
    the extremal observed value) and ``bound`` the acceptance threshold;
    ``detail`` explains the comparison direction when it is not
    worst <= bound.
    """

    name: str
    passed: bool
    worst: float
    bound: float
    trials: int
    detail: str = ""


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# --- frames ----------------------------------------------------------------

def frames_suite(seed: int, trials: Optional[int] = None) -> List[PropertyResult]:
    n = trials or _DEFAULT_TRIALS["frames"]
    rng = _rng(seed)
    alpha = rng.uniform(-math.pi, math.pi, n)
    dx = rng.uniform(1e-3, 10.0, n)
    dy = rng.uniform(1e-3, 10.0, n)
    fx = rng.uniform(0.1, 10.0, n)
    fy = rng.uniform(0.1, 10.0, n)
    sx = rng.uniform(-1e3, 1e3, n)
    sy = rng.uniform(-1e3, 1e3, n)

    worst_comp = 0.0
    worst_rot = 0.0
    worst_inv = 0.0
    worst_round = 0.0
    eye = identity()
    for i in range(n):
        p = FrameParams(float(alpha[i]), float(dx[i]), float(dy[i]),
                        float(fx[i]), float(fy[i]))
        s = StageCoord(float(sx[i]), float(sy[i]))

        one = stage_to_image(p, s)
        two = camera_to_image(p, stage_to_camera(p, s))
        worst_comp = max(worst_comp, abs(one.u - two.u), abs(one.v - two.v))

        r = rotation_matrix(p.alpha)
        rtr = mat_mul(transpose(r), r)
        worst_rot = max(
            worst_rot,
            abs(rtr.m00 - 1.0), abs(rtr.m01), abs(rtr.m10), abs(rtr.m11 - 1.0),
            abs(det(r) - 1.0),
        )

        t = transformation_matrix(p)
        worst_inv = max(worst_inv, abs(det(t) - p.fx * p.fy) / (p.fx * p.fy))
        t_inv = mat_inv(t)
        prod = mat_mul(t, t_inv)
        worst_inv = max(
            worst_inv,
            abs(prod.m00 - 1.0), abs(prod.m01),
            abs(prod.m10), abs(prod.m11 - 1.0),
        )

        back = mat_vec_mul(t_inv, one.vec - image_offset(p))
        worst_round = max(worst_round, abs(back.a0 - s.x), abs(back.a1 - s.y))

    return [
        PropertyResult("frames.composition", worst_comp <= 1e-9, worst_comp,
                       1e-9, n),
        PropertyResult("frames.rotation_orthogonality", worst_rot <= 1e-12,
                       worst_rot, 1e-12, n),
        PropertyResult("frames.transform_invertibility", worst_inv <= 1e-12,
                       worst_inv, 1e-12, n),
        PropertyResult("frames.round_trip", worst_round <= 1e-9, worst_round,
                       1e-9, n),
    ]


# --- dynamics ----------------------------------------------------------------

def _max_error_vs_closed_form(
    masses: MassParams, ics: Tuple[float, float, float, float],
    t_end: float, dt: float,
) -> float:
    x0, y0, xd0, yd0 = ics
    s0 = StageState(Vec2(x0, y0), Vec2(xd0, yd0))
    samples = integrate(masses, s0, ZERO_TORQUE, ZERO_FORCE, t_end, dt)
    worst = 0.0
    for t, state in samples:
        ref = free_response(masses, x0, y0, xd0, yd0, t)
        worst = max(
            worst,
            abs(state.q.a0 - ref.q.a0),
            abs(state.q.a1 - ref.q.a1),
        )
    return worst


def _image_space_residual(h: float = 1e-3) -> float:
    # free-response trajectory watched through the stage-to-image map;
    # derivatives from 4th-order central differences on the pixel signal
    masses = MassParams(1.0, 0.5, 0.5)
    frame = FrameParams(alpha=math.pi / 6, dx=0.5, dy=0.25, fx=2.0, fy=4.0)
    ics = (0.4, -0.3, 1.2, -0.8)
    t_mat = transformation_matrix(frame)
    off = image_offset(frame)
    iner, pos_fin = image_space_operators(masses, frame)

    def u(t: float) -> Vec2:
        state = free_response(masses, *ics, t)
        return mat_vec_mul(t_mat, state.q) + off

    worst = 0.0
    for t in np.linspace(0.1, 10.0, 60):
        t = float(t)
        step = h * max(1.0, abs(t))
        um2, um1, u0 = u(t - 2 * step), u(t - step), u(t)
        up1, up2 = u(t + step), u(t + 2 * step)
        udot = (-up2 + up1.scale(8.0) - um1.scale(8.0) + um2).scale(
            1.0 / (12.0 * step)
        )
        uddot = (
            -up2 + up1.scale(16.0) - u0.scale(30.0) + um1.scale(16.0) - um2
        ).scale(1.0 / (12.0 * step * step))
        res = mat_vec_mul(iner, uddot) + mat_vec_mul(pos_fin, udot)
        worst = max(worst, res.max_abs())
    return worst


def dynamics_suite(seed: int, trials: Optional[int] = None) -> List[PropertyResult]:
    n = trials or _DEFAULT_TRIALS["dynamics"]
    rng = _rng(seed)
    m_draw = rng.uniform(0.1, 10.0, (n, 3))
    q_draw = rng.uniform(-10.0, 10.0, (n, 4))

    worst_resid = 0.0
    worst_asym = 0.0
    for i in range(n):
        masses = MassParams(*(float(v) for v in m_draw[i]))
        x0, y0, xd0, yd0 = (float(v) for v in q_draw[i])
        scale = max(1.0, abs(xd0), abs(yd0))
        horizon = 10.0 * masses.total_x
        for j in range(100):
            t = horizon * j / 99.0
            state = free_response(masses, x0, y0, xd0, yd0, t)
            accel = free_response_accel(masses, xd0, yd0, t)
            res = dynamics_residual(masses, accel, state.qdot, ZERO_TORQUE,
                                    ZERO_FORCE)
            worst_resid = max(worst_resid, res.max_abs() / scale)

        t_inf = 50.0 * max(masses.total_x, masses.total_y)
        limit = Vec2(x0 + xd0 * masses.total_x, y0 + yd0 * masses.total_y)
        final = free_response(masses, x0, y0, xd0, yd0, t_inf)
        gap = (final.q - limit).max_abs() / max(1.0, limit.max_abs())
        worst_asym = max(worst_asym, gap)

    rk4_err = _max_error_vs_closed_form(
        MassParams(1.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0), 10.0, 1e-3
    )

    order_masses = MassParams(0.2, 0.2, 0.1)
    order_ics = (0.0, 0.0, 2.0, 2.0)
    errs = [
        _max_error_vs_closed_form(order_masses, order_ics, 5.0, dt)
        for dt in (1e-2, 5e-3, 2.5e-3)
    ]
    min_ratio = min(errs[0] / errs[1], errs[1] / errs[2])

    image_resid = _image_space_residual()

    return [
        PropertyResult("dynamics.closed_form_residual",
                       worst_resid <= 1e-10, worst_resid, 1e-10, n,
                       detail="residual scaled by max(1,|xd0|,|yd0|)"),
        PropertyResult("dynamics.rk4_matches_closed_form",
                       rk4_err <= 1e-6, rk4_err, 1e-6, 1,
                       detail="unit masses, dt=1e-3, t in [0,10]"),
        PropertyResult("dynamics.rk4_order", min_ratio >= 8.0, min_ratio, 8.0,
                       1, detail="min error ratio per dt halving, must be >= 8"),
        PropertyResult("dynamics.image_space_residual",
                       image_resid <= 1e-6, image_resid, 1e-6, 1,
                       detail="4th-order central differences on the pixel signal"),
        PropertyResult("dynamics.asymptotic_positions",
                       worst_asym <= 1e-8, worst_asym, 1e-8, n,
                       detail="relative gap to (x0+xd0*Mx, y0+yd0*My)"),
    ]


# --- implication and discrepancy ---------------------------------------------

def _draw_control_case(
    rng: np.random.Generator,
) -> Tuple[MassParams, ImpedanceParams, DesiredTrajectoryPoint,
           Tuple[Vec2, Vec2, Vec2], ForcePair, ForcePair]:
    """One random scenario whose actual states satisfy the impedance law
    exactly: eddot is solved from the law and qddot = qd_ddot - eddot."""
    masses = MassParams(*(float(v) for v in rng.uniform(0.1, 10.0, 3)))
    gains = ImpedanceParams(
        m=float(rng.uniform(0.1, 10.0)),
        b=float(rng.uniform(0.1, 50.0)),
        k=float(rng.uniform(0.1, 200.0)),
    )
    qd = Vec2(*(float(v) for v in rng.uniform(-5.0, 5.0, 2)))
    qd_dot = Vec2(*(float(v) for v in rng.uniform(-5.0, 5.0, 2)))
    qd_ddot = Vec2(*(float(v) for v in rng.uniform(-5.0, 5.0, 2)))
    desired = DesiredTrajectoryPoint(qd, qd_dot, qd_ddot)
    e = Vec2(*(float(v) for v in rng.uniform(-2.0, 2.0, 2)))
    edot = Vec2(*(float(v) for v in rng.uniform(-2.0, 2.0, 2)))
    fe = ForcePair(*(float(v) for v in rng.uniform(-10.0, 10.0, 2)))
    fed = ForcePair(*(float(v) for v in rng.uniform(-10.0, 10.0, 2)))
    eddot = impedance_accel(gains, e, edot, fe)
    actual = (qd - e, qd_dot - edot, qd_ddot - eddot)
    return masses, gains, desired, actual, fe, fed


def _draw_frame(rng: np.random.Generator) -> FrameParams:
    return FrameParams(
        alpha=float(rng.uniform(-math.pi, math.pi)),
        dx=float(rng.uniform(0.1, 5.0)),
        dy=float(rng.uniform(0.1, 5.0)),
        fx=float(rng.uniform(0.1, 10.0)),
        fy=float(rng.uniform(0.1, 10.0)),
    )


def _residual_scale(tau: Vec2) -> float:
    return max(1.0, tau.max_abs())


def implication_suite(seed: int, trials: Optional[int] = None) -> List[PropertyResult]:
    n = trials or _DEFAULT_TRIALS["implication"]
    rng = _rng(seed)
    worst_stage = 0.0
    worst_ident = 0.0
    identity_frame = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
    for _ in range(n):
        masses, gains, desired, actual, fe, fed = _draw_control_case(rng)
        frame = _draw_frame(rng)
        res = implication_residual(
            ControllerVariant.STAGE_CONSISTENT, masses, frame, gains,
            desired, actual, fe, fed,
        )
        _, qdot, qddot = actual
        tau = required_torque(masses, qddot, qdot, fed)
        worst_stage = max(worst_stage, res.max_abs() / _residual_scale(tau.vec))

        res_i = implication_residual(
            ControllerVariant.CORRECTED, masses, identity_frame, gains,
            desired, actual, fe, fed,
        )
        worst_ident = max(worst_ident, res_i.max_abs() / _residual_scale(tau.vec))
    return [
        PropertyResult("implication.stage_consistent", worst_stage <= 1e-9,
                       worst_stage, 1e-9, n,
                       detail="residual scaled by max(1,||tau||_inf)"),
        PropertyResult("implication.corrected_identity_frame",
                       worst_ident <= 1e-9, worst_ident, 1e-9, n,
                       detail="transform-weighted law at fx=fy=1, alpha=0"),
    ]


def discrepancy_suite(seed: int, trials: Optional[int] = None) -> List[PropertyResult]:
    n = trials or _DEFAULT_TRIALS["discrepancy"]
    rng = _rng(seed)
    skewed = FrameParams(alpha=math.pi / 6, dx=1.0, dy=1.0, fx=2.0, fy=4.0)
    identity_frame = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)

    min_gap = math.inf
    max_gap = 0.0
    worst_collapse = 0.0
    worst_subst = 0.0
    worst_scaling = 0.0
    all_separated = True
    for _ in range(n):
        masses, gains, desired, actual, fe, fed = _draw_control_case(rng)
        q, qdot, _ = actual
        errors = ErrorState(desired.qd - q, desired.qd_dot - qdot,
                            Vec2(0.0, 0.0))
        c = commanded_accel(gains, desired, errors, fe)

        tau_sim = torque_controller(
            ControllerVariant.SIM_PAPER, masses, skewed, gains, desired,
            qdot, errors, fe, fed,
        )
        tau_corr = torque_controller(
            ControllerVariant.CORRECTED, masses, skewed, gains, desired,
            qdot, errors, fe, fed,
        )
        gap = (tau_sim.vec - tau_corr.vec).max_abs()
        if c.max_abs() > 0.0:
            min_gap = min(min_gap, gap)
            max_gap = max(max_gap, gap)
            if gap <= 0.0:
                all_separated = False

        tau_sim_i = torque_controller(
            ControllerVariant.SIM_PAPER, masses, identity_frame, gains,
            desired, qdot, errors, fe, fed,
        )
        tau_corr_i = torque_controller(
            ControllerVariant.CORRECTED, masses, identity_frame, gains,
            desired, qdot, errors, fe, fed,
        )
        worst_collapse = max(
            worst_collapse, (tau_sim_i.vec - tau_corr_i.vec).max_abs()
        )

        frame = _draw_frame(rng)
        tau_corr_f = torque_controller(
            ControllerVariant.CORRECTED, masses, frame, gains, desired,
            qdot, errors, fe, fed,
        )
        tau_mc_f = torque_controller(
            ControllerVariant.MC_PAPER, masses, frame, gains, desired,
            qdot, errors, fe, fed,
        )
        subst = ((tau_mc_f.vec - tau_corr_f.vec) - (fe.vec - fed.vec)).max_abs()
        worst_subst = max(
            worst_subst, subst / _residual_scale(tau_corr_f.vec)
        )

        lam = float(rng.uniform(0.1, 100.0))
        scaled_gains = ImpedanceParams(lam * gains.m, lam * gains.b, lam * gains.k)
        scaled_fe = ForcePair(lam * fe.fex, lam * fe.fey)
        tau_scaled = torque_controller(
            ControllerVariant.CORRECTED, masses, frame, gains=scaled_gains,
            desired=desired, qdot=qdot, errors=errors, fe=scaled_fe, fed=fed,
        )
        term_mag = (
            gains.b * errors.edot.max_abs()
            + gains.k * errors.e.max_abs()
            + fe.vec.max_abs()
        ) / gains.m
        scale = max(1.0, tau_corr_f.vec.max_abs(), 30.0 * term_mag)
        worst_scaling = max(
            worst_scaling, (tau_scaled.vec - tau_corr_f.vec).max_abs() / scale
        )

    if min_gap is math.inf:
        min_gap = 0.0
    return [
        PropertyResult(
            "discrepancy.missing_transform_gap", all_separated and min_gap > 0.0,
            min_gap, 0.0, n,
            detail=f"gap range [{min_gap:.3e}, {max_gap:.3e}] at alpha=pi/6, "
                   "fx=2, fy=4; must stay > 0",
        ),
        PropertyResult(
            "discrepancy.identity_frame_collapse", worst_collapse == 0.0,
            worst_collapse, 0.0, n,
            detail="bit-exact agreement required at fx=fy=1, alpha=0",
        ),
        PropertyResult(
            "discrepancy.force_substitution_identity", worst_subst <= 1e-12,
            worst_subst, 1e-12, n,
            detail="(McPaper - Corrected) - (fe - fed), scaled",
        ),
        PropertyResult(
            "discrepancy.gain_scaling_invariance", worst_scaling <= 1e-12,
            worst_scaling, 1e-12, n,
            detail="common positive factor on (m, b, k, fe)",
        ),
    ]


_SUITES: Dict[str, Callable[[int, Optional[int]], List[PropertyResult]]] = {
    "frames": frames_suite,
    "dynamics": dynamics_suite,
    "implication": implication_suite,
    "discrepancy": discrepancy_suite,
}


def run_suite(name: str, seed: int, trials: Optional[int] = None) -> List[PropertyResult]:
    """Run one named suite (or 'all'); unknown names raise ValueError."""
    if name == "all":
        results: List[PropertyResult] = []
        for suite_name in ("frames", "dynamics", "implication", "discrepancy"):
            results.extend(_SUITES[suite_name](seed, trials))
        return results
    if name not in _SUITES:
        raise ValueError(f"unknown suite '{name}' (valid: {', '.join(SUITE_NAMES)})")
    return _SUITES[name](seed, trials)
