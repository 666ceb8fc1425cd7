"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s`);
the assertions carry the same bounds, so plain `pytest` is equally
authoritative.  Ensembles are seeded numpy draws; the library code under
test never sees numpy values except as plain floats.
"""

import math
import time

import numpy as np

from microinject.algebra2d import Vec2, det, mat_inv, mat_mul, mat_vec_mul
from microinject.control import (
    ControllerVariant,
    DesiredTrajectoryPoint,
    ErrorState,
    ImpedanceParams,
    commanded_accel,
    implication_residual,
    required_torque_kernel,
    torque_controller,
)
from microinject.dynamics import (
    ForcePair,
    MassParams,
    StageState,
    ZERO_FORCE,
    ZERO_TORQUE,
    free_response,
    free_response_kernel,
    image_space_operators,
    integrate,
    inverse_dynamics_kernel,
    mass_matrix,
)
from microinject.frames import (
    FrameParams,
    StageCoord,
    camera_to_image,
    image_offset,
    stage_to_camera,
    stage_to_image,
    transformation_matrix,
)
from microinject.report import write_trace_csv
from microinject.sim import (
    MembraneModel,
    TrajectoryKind,
    TrajectorySpec,
    membrane_force,
    run_closed_loop,
    sample_trajectory,
)

SEED = 2026


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def frame_ensemble(n):
    rng = np.random.Generator(np.random.PCG64(SEED))
    return (
        rng.uniform(-math.pi, math.pi, n),
        rng.uniform(1e-3, 10.0, n),
        rng.uniform(1e-3, 10.0, n),
        rng.uniform(0.1, 10.0, n),
        rng.uniform(0.1, 10.0, n),
        rng.uniform(-1e3, 1e3, n),
        rng.uniform(-1e3, 1e3, n),
    )


def control_ensemble(n, seed_offset):
    rng = np.random.Generator(np.random.PCG64(SEED + seed_offset))
    return {
        "masses": rng.uniform(0.1, 10.0, (n, 3)),
        "gains_m": rng.uniform(0.1, 10.0, n),
        "gains_b": rng.uniform(0.1, 50.0, n),
        "gains_k": rng.uniform(0.1, 200.0, n),
        "qd": rng.uniform(-5.0, 5.0, (n, 6)),
        "err": rng.uniform(-2.0, 2.0, (n, 4)),
        "fe": rng.uniform(-10.0, 10.0, (n, 2)),
        "fed": rng.uniform(-10.0, 10.0, (n, 2)),
    }


def control_case(draw, i):
    masses = MassParams(*(float(v) for v in draw["masses"][i]))
    gains = ImpedanceParams(float(draw["gains_m"][i]), float(draw["gains_b"][i]),
                            float(draw["gains_k"][i]))
    qd_row = draw["qd"][i]
    desired = DesiredTrajectoryPoint(
        Vec2(float(qd_row[0]), float(qd_row[1])),
        Vec2(float(qd_row[2]), float(qd_row[3])),
        Vec2(float(qd_row[4]), float(qd_row[5])),
    )
    err_row = draw["err"][i]
    e = Vec2(float(err_row[0]), float(err_row[1]))
    edot = Vec2(float(err_row[2]), float(err_row[3]))
    fe = ForcePair(float(draw["fe"][i][0]), float(draw["fe"][i][1]))
    fed = ForcePair(float(draw["fed"][i][0]), float(draw["fed"][i][1]))
    return masses, gains, desired, e, edot, fe, fed


def impedance_consistent_actual(gains, desired, e, edot, fe):
    eddot = (fe.vec - edot.scale(gains.b) - e.scale(gains.k)).scale(1.0 / gains.m)
    return desired.qd - e, desired.qd_dot - edot, desired.qd_ddot - eddot


def test_criterion_1_frame_composition():
    n = 10_000
    start = time.perf_counter()
    alpha, dx, dy, fx, fy, sx, sy = frame_ensemble(n)
    worst = 0.0
    for i in range(n):
        p = FrameParams(float(alpha[i]), float(dx[i]), float(dy[i]),
                        float(fx[i]), float(fy[i]))
        s = StageCoord(float(sx[i]), float(sy[i]))
        one = stage_to_image(p, s)
        two = camera_to_image(p, stage_to_camera(p, s))
        worst = max(worst, abs(one.u - two.u), abs(one.v - two.v))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    assert report(
        "criterion 1 (frame composition)", ok,
        f"worst residual {worst:.3e} <= 1e-9 over {n} draws, "
        f"runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_2_transformation_invertibility():
    n = 10_000
    alpha, dx, dy, fx, fy, _sx, _sy = frame_ensemble(n)
    worst_det = 0.0
    worst_inv = 0.0
    for i in range(n):
        p = FrameParams(float(alpha[i]), float(dx[i]), float(dy[i]),
                        float(fx[i]), float(fy[i]))
        t = transformation_matrix(p)
        worst_det = max(worst_det, abs(det(t) - p.fx * p.fy) / (p.fx * p.fy))
        prod = mat_mul(t, mat_inv(t))
        worst_inv = max(
            worst_inv,
            abs(prod.m00 - 1.0), abs(prod.m01),
            abs(prod.m10), abs(prod.m11 - 1.0),
        )
    ok = worst_det <= 1e-12 and worst_inv <= 1e-12
    assert report(
        "criterion 2 (transformation invertibility)", ok,
        f"det gap {worst_det:.3e} <= 1e-12 rel, "
        f"T@T_inv gap {worst_inv:.3e} <= 1e-12, {n} draws",
    )


def test_criterion_3_closed_form_solution():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(SEED + 3))
    n = 1_000
    m_draw = rng.uniform(0.1, 10.0, (n, 3))
    ic_draw = rng.uniform(-10.0, 10.0, (n, 4))
    worst_ratio = 0.0
    for i in range(n):
        masses = MassParams(*(float(v) for v in m_draw[i]))
        x0, y0, xd0, yd0 = (float(v) for v in ic_draw[i])
        scale = max(1.0, abs(xd0), abs(yd0))
        horizon = 10.0 * masses.total_x
        # the closed form's velocity and acceleration, substituted into the
        # torque-free dynamics M @ qddot + B @ qdot = 0
        at = free_response_kernel(masses, x0, y0, xd0, yd0)
        lhs = inverse_dynamics_kernel(mass_matrix(masses))
        for j in range(100):
            t = horizon * j / 99.0
            _, _, xd, yd, xdd, ydd = at(t)
            res = Vec2(*lhs(xdd, ydd, xd, yd))
            worst_ratio = max(worst_ratio, res.max_abs() / scale)

    masses = MassParams(1.0, 1.0, 1.0)
    s0 = StageState(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
    samples = integrate(masses, s0, ZERO_TORQUE, ZERO_FORCE, 10.0, 1e-3)
    rk4_err = 0.0
    for t, x, y, _, _ in samples:
        ref = free_response(masses, 0.0, 0.0, 1.0, 1.0, t)
        rk4_err = max(rk4_err, (Vec2(x, y) - ref.q).max_abs())
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1e-10 and rk4_err <= 1e-6 and elapsed < 5.0
    assert report(
        "criterion 3 (closed-form solution)", ok,
        f"analytic residual {worst_ratio:.3e} <= 1e-10 (scaled, {n} draws x "
        f"100 times), rk4 gap {rk4_err:.3e} <= 1e-6, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_4_integrator_order():
    masses = MassParams(0.2, 0.2, 0.1)
    ics = (0.0, 0.0, 2.0, 2.0)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        s0 = StageState(Vec2(ics[0], ics[1]), Vec2(ics[2], ics[3]))
        samples = integrate(masses, s0, ZERO_TORQUE, ZERO_FORCE, 5.0, dt)
        worst = 0.0
        for t, x, y, _, _ in samples:
            ref = free_response(masses, *ics, t)
            worst = max(worst, (Vec2(x, y) - ref.q).max_abs())
        errs.append(worst)
    ratio_1 = errs[0] / errs[1]
    ratio_2 = errs[1] / errs[2]
    ok = ratio_1 >= 8.0 and ratio_2 >= 8.0
    assert report(
        "criterion 4 (integrator order)", ok,
        f"halving ratios {ratio_1:.1f}, {ratio_2:.1f} both >= 8 "
        f"(errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e})",
    )


def test_criterion_5_torque_law_implication():
    n = 10_000
    start = time.perf_counter()
    draw = control_ensemble(n, seed_offset=5)
    rng = np.random.Generator(np.random.PCG64(SEED + 55))
    res_draw = rng.uniform(0.1, 10.0, (n, 2))
    off_draw = rng.uniform(0.1, 5.0, (n, 2))
    alpha_draw = rng.uniform(-math.pi, math.pi, n)
    worst = 0.0
    for i in range(n):
        masses, gains, desired, e, edot, fe, fed = control_case(draw, i)
        frame = FrameParams(float(alpha_draw[i]),
                            float(off_draw[i][0]), float(off_draw[i][1]),
                            float(res_draw[i][0]), float(res_draw[i][1]))
        actual = impedance_consistent_actual(gains, desired, e, edot, fe)
        res = implication_residual(
            ControllerVariant.STAGE_CONSISTENT, masses, frame, gains,
            desired, actual, fe, fed,
        )
        qddot, qdot = actual[2], actual[1]
        tau = Vec2(*required_torque_kernel(mass_matrix(masses), fed)(
            qddot.a0, qddot.a1, qdot.a0, qdot.a1))
        worst = max(worst, res.max_abs() / max(1.0, tau.max_abs()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 2.0
    assert report(
        "criterion 5 (torque-law implication)", ok,
        f"worst scaled residual {worst:.3e} <= 1e-9 over {n} draws, "
        f"runtime {elapsed:.2f}s < 2s",
    )


def test_criterion_6_missing_transform_discrepancy():
    n = 10_000
    draw = control_ensemble(n, seed_offset=6)
    skewed = FrameParams(alpha=math.pi / 6, dx=1.0, dy=1.0, fx=2.0, fy=4.0)
    min_gap = math.inf
    separated = True
    checked = 0
    for i in range(n):
        masses, gains, desired, e, edot, fe, fed = control_case(draw, i)
        errors = ErrorState(e, edot, Vec2(0.0, 0.0))
        c = commanded_accel(gains, desired, errors, fe)
        if c.max_abs() == 0.0:
            continue
        qdot = desired.qd_dot - edot
        sim = torque_controller(ControllerVariant.SIM_PAPER, masses, skewed,
                                gains, desired, qdot, errors, fe, fed)
        corr = torque_controller(ControllerVariant.CORRECTED, masses, skewed,
                                 gains, desired, qdot, errors, fe, fed)
        gap = (sim.vec - corr.vec).max_abs()
        min_gap = min(min_gap, gap)
        separated = separated and gap > 0.0
        checked += 1

    # at the identity transform the two variants must produce bit-identical
    # closed-loop traces, including their serialized form
    masses = MassParams(1.0, 1.0, 1.0)
    gains = ImpedanceParams(1.0, 20.0, 100.0)
    identity_frame = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
    spec = TrajectorySpec(kind=TrajectoryKind.QUINTIC, start=Vec2(0.0, 0.0),
                          end=Vec2(1.5, 0.0), duration=1.0)
    contact = MembraneModel(stiffness=50.0, damping=2.0, contact_x=1.0)
    shared = (masses, identity_frame, gains, spec, contact,
              ForcePair(0.5, 0.0), 1.5, 1e-3)
    rows_corr, _ = run_closed_loop(ControllerVariant.CORRECTED, *shared)
    rows_sim, _ = run_closed_loop(ControllerVariant.SIM_PAPER, *shared)
    bitwise_equal = len(rows_corr) == len(rows_sim) and all(
        tuple("%.17g" % v for v in a) == tuple("%.17g" % v for v in b)
        for a, b in zip(rows_corr, rows_sim)
    )
    ok = separated and checked > 0 and bitwise_equal
    assert report(
        "criterion 6 (missing-transform discrepancy)", ok,
        f"gap > 0 in all {checked} draws with c != 0 (min {min_gap:.3e}) at "
        f"alpha=pi/6, fx=2, fy=4; bit-identical traces at the identity "
        f"transform: {bitwise_equal}",
    )


def test_criterion_7_force_substitution_discrepancy():
    n = 10_000
    draw = control_ensemble(n, seed_offset=7)
    rng = np.random.Generator(np.random.PCG64(SEED + 77))
    alpha_draw = rng.uniform(-math.pi, math.pi, n)
    res_draw = rng.uniform(0.1, 10.0, (n, 2))
    off_draw = rng.uniform(0.1, 5.0, (n, 2))
    worst = 0.0
    for i in range(n):
        masses, gains, desired, e, edot, fe, fed = control_case(draw, i)
        frame = FrameParams(float(alpha_draw[i]),
                            float(off_draw[i][0]), float(off_draw[i][1]),
                            float(res_draw[i][0]), float(res_draw[i][1]))
        errors = ErrorState(e, edot, Vec2(0.0, 0.0))
        qdot = desired.qd_dot - edot
        corr = torque_controller(ControllerVariant.CORRECTED, masses, frame,
                                 gains, desired, qdot, errors, fe, fed)
        mc = torque_controller(ControllerVariant.MC_PAPER, masses, frame,
                               gains, desired, qdot, errors, fe, fed)
        gap = ((mc.vec - corr.vec) - (fe.vec - fed.vec)).max_abs()
        worst = max(worst, gap / max(1.0, corr.vec.max_abs()))

    # closed loop with contact at the identity transform: the within-run
    # torque divergence metric must equal the rms of fe - fed over the trace
    masses = MassParams(1.0, 1.0, 1.0)
    gains = ImpedanceParams(1.0, 20.0, 100.0)
    identity_frame = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
    spec = TrajectorySpec(kind=TrajectoryKind.QUINTIC, start=Vec2(0.0, 0.0),
                          end=Vec2(1.5, 0.0), duration=1.0)
    contact = MembraneModel(stiffness=50.0, damping=2.0, contact_x=1.0)
    fed = ForcePair(0.5, 0.0)
    rows, metrics = run_closed_loop(
        ControllerVariant.MC_PAPER, masses, identity_frame, gains, spec,
        contact, fed, 5.0, 1e-3,
    )
    sq = 0.0
    for *_, fex, fey, _, _, _, _ in rows:
        dx = fex - fed.fex
        dy = fey - fed.fey
        sq += dx * dx + dy * dy
    ref_rms = math.sqrt(sq / len(rows))
    rel_gap = abs(metrics.torque_divergence_rms - ref_rms) / ref_rms
    ok = worst <= 1e-12 and rel_gap <= 1e-9
    assert report(
        "criterion 7 (force-substitution discrepancy)", ok,
        f"(McPaper-Corrected)-(fe-fed) worst {worst:.3e} <= 1e-12 rel over "
        f"{n} draws; closed-loop divergence rms matches rms(fe-fed) within "
        f"{rel_gap:.3e} <= 1e-9 rel",
    )


def test_criterion_8_image_space_dynamics():
    # finite-difference oracle: derivatives of the pixel-space signal from
    # 4th-order central differences, never from the model's chain rule
    masses = MassParams(1.0, 0.5, 0.5)
    frame = FrameParams(alpha=math.pi / 6, dx=0.5, dy=0.25, fx=2.0, fy=4.0)
    ics = (0.4, -0.3, 1.2, -0.8)
    iner, pos_fin = image_space_operators(masses, frame)
    t_mat = transformation_matrix(frame)
    off = image_offset(frame)

    def u(t):
        state = free_response(masses, *ics, t)
        return mat_vec_mul(t_mat, state.q) + off

    worst = 0.0
    for t in np.linspace(0.1, 10.0, 60):
        t = float(t)
        h = 1e-3 * max(1.0, abs(t))
        um2, um1, u0 = u(t - 2 * h), u(t - h), u(t)
        up1, up2 = u(t + h), u(t + 2 * h)
        udot = (-up2 + up1.scale(8.0) - um1.scale(8.0) + um2).scale(
            1.0 / (12.0 * h)
        )
        uddot = (-up2 + up1.scale(16.0) - u0.scale(30.0) + um1.scale(16.0)
                 - um2).scale(1.0 / (12.0 * h * h))
        res = mat_vec_mul(iner, uddot) + mat_vec_mul(pos_fin, udot)
        worst = max(worst, res.max_abs())
    ok = worst <= 1e-6
    assert report(
        "criterion 8 (image-space dynamics)", ok,
        f"finite-difference residual {worst:.3e} <= 1e-6 per component",
    )


def test_criterion_9_closed_loop_sanity(tmp_path):
    masses = MassParams(1.0, 1.0, 1.0)
    gains = ImpedanceParams(1.0, 20.0, 100.0)
    frame = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
    spec = TrajectorySpec(kind=TrajectoryKind.QUINTIC, start=Vec2(0.0, 0.0),
                          end=Vec2(1.5, 0.5), duration=3.0)
    no_contact = MembraneModel(stiffness=0.0, damping=0.0, contact_x=1e9)
    args = (ControllerVariant.STAGE_CONSISTENT, masses, frame, gains, spec,
            no_contact, ZERO_FORCE, 5.0, 1e-3)

    start = time.perf_counter()
    rows_a, metrics_a = run_closed_loop(*args)
    rows_b, _metrics_b = run_closed_loop(*args)
    elapsed = time.perf_counter() - start

    # per-step impedance residual recomputed from the trace alone
    minv = mat_inv(mass_matrix(masses))
    worst_res = 0.0
    for t, x, y, xdot, ydot, _, _, _, _, taux, tauy, _, _ in rows_a:
        desired = sample_trajectory(spec, t)
        q = Vec2(x, y)
        qdot = Vec2(xdot, ydot)
        fe = membrane_force(no_contact, q, qdot)
        e = desired.qd - q
        edot = desired.qd_dot - qdot
        # qddot = M_inv @ (tau - fed - B @ qdot), with fed = 0 and B = I here
        qddot = mat_vec_mul(minv, Vec2(taux, tauy) - ZERO_FORCE.vec - qdot)
        eddot = desired.qd_ddot - qddot
        res = (eddot.scale(gains.m) + edot.scale(gains.b) + e.scale(gains.k)
               - fe.vec)
        worst_res = max(worst_res, res.max_abs())

    path_a = tmp_path / "run_a.csv"
    path_b = tmp_path / "run_b.csv"
    write_trace_csv(str(path_a), rows_a)
    write_trace_csv(str(path_b), rows_b)
    identical = path_a.read_bytes() == path_b.read_bytes()

    ok = (worst_res <= 1e-6 and metrics_a.max_impedance_residual <= 1e-6
          and identical and elapsed < 2.0)
    assert report(
        "criterion 9 (closed-loop sanity)", ok,
        f"impedance residual {worst_res:.3e} <= 1e-6 per step, "
        f"byte-identical reruns: {identical}, runtime {elapsed:.2f}s < 2s",
    )
