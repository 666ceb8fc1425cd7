import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microinject import verify
from microinject.algebra2d import SingularMatrix, Vec2, mat_inv, mat_mul, mat_vec_mul
from microinject.control import (
    ControllerVariant,
    DesiredTrajectoryPoint,
    ErrorState,
    ImpedanceParams,
    PreconditionViolated,
    STAGE_SPACE_VARIANTS,
    commanded_accel,
    commanded_accel_kernel,
    error_state,
    force_control_residual,
    impedance_accel,
    implication_residual,
    required_torque,
    torque_controller,
    torque_kernel,
)
from microinject.dynamics import (
    ForcePair,
    MassParams,
    ZERO_FORCE,
    damping_matrix,
    dynamics_residual,
    mass_matrix,
)
from microinject.frames import FrameParams, transformation_matrix

IDENTITY_FRAME = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
SKEWED_FRAME = FrameParams(alpha=math.pi / 6, dx=1.0, dy=1.0, fx=2.0, fy=4.0)

masses_st = st.builds(
    MassParams,
    mx=st.floats(0.1, 10.0, allow_nan=False),
    my=st.floats(0.1, 10.0, allow_nan=False),
    mp=st.floats(0.1, 10.0, allow_nan=False),
)
gains_st = st.builds(
    ImpedanceParams,
    m=st.floats(0.1, 10.0, allow_nan=False),
    b=st.floats(0.1, 50.0, allow_nan=False),
    k=st.floats(0.1, 200.0, allow_nan=False),
)
small_vec = st.builds(Vec2, st.floats(-5.0, 5.0, allow_nan=False),
                      st.floats(-5.0, 5.0, allow_nan=False))
force_st = st.builds(ForcePair, st.floats(-10.0, 10.0, allow_nan=False),
                     st.floats(-10.0, 10.0, allow_nan=False))
desired_st = st.builds(DesiredTrajectoryPoint, small_vec, small_vec, small_vec)
frame_st = st.builds(
    FrameParams,
    alpha=st.floats(-math.pi, math.pi, allow_nan=False),
    dx=st.floats(0.1, 5.0, allow_nan=False),
    dy=st.floats(0.1, 5.0, allow_nan=False),
    fx=st.floats(0.1, 10.0, allow_nan=False),
    fy=st.floats(0.1, 10.0, allow_nan=False),
)


def impedance_consistent_actual(gains, desired, e, edot, fe):
    """States satisfying the impedance law exactly: eddot solved from the
    law, then qddot = qd_ddot - eddot."""
    eddot = (fe.vec - edot.scale(gains.b) - e.scale(gains.k)).scale(1.0 / gains.m)
    return desired.qd - e, desired.qd_dot - edot, desired.qd_ddot - eddot


class TestImpedanceParams:
    @pytest.mark.parametrize("field", ["m", "b", "k"])
    def test_rejects_non_positive(self, field):
        kwargs = dict(m=1.0, b=1.0, k=1.0)
        kwargs[field] = -0.5
        with pytest.raises(ValueError, match=field):
            ImpedanceParams(**kwargs)


class TestErrorState:
    def test_perfect_tracking_gives_zeros(self):
        d = DesiredTrajectoryPoint(Vec2(1, 2), Vec2(3, 4), Vec2(5, 6))
        es = error_state(d, Vec2(1, 2), Vec2(3, 4), Vec2(5, 6))
        assert es.e == Vec2(0, 0)
        assert es.edot == Vec2(0, 0)
        assert es.eddot == Vec2(0, 0)

    def test_pure_offset(self):
        d = DesiredTrajectoryPoint(Vec2(1, 1), Vec2(0, 0), Vec2(0, 0))
        es = error_state(d, Vec2(0, 0), Vec2(0, 0), Vec2(0, 0))
        assert es.e == Vec2(1, 1)
        assert es.edot == Vec2(0, 0) and es.eddot == Vec2(0, 0)

    def test_componentwise_subtraction(self):
        d = DesiredTrajectoryPoint(Vec2(2, 0), Vec2(1, 0), Vec2(0, 0))
        es = error_state(d, Vec2(1, 0), Vec2(0.5, 0), Vec2(0, 0))
        assert es.e == Vec2(1.0, 0.0)
        assert es.edot == Vec2(0.5, 0.0)


class TestForceControlResidual:
    def test_all_zero(self):
        gains = ImpedanceParams(1.0, 2.0, 3.0)
        es = ErrorState(Vec2(0, 0), Vec2(0, 0), Vec2(0, 0))
        assert force_control_residual(gains, es, ZERO_FORCE) == Vec2(0, 0)

    def test_unit_terms_sum(self):
        gains = ImpedanceParams(1.0, 1.0, 1.0)
        es = ErrorState(Vec2(1, 0), Vec2(1, 0), Vec2(1, 0))
        res = force_control_residual(gains, es, ForcePair(3.0, 0.0))
        assert res == Vec2(0.0, 0.0)

    def test_stiffness_term_alone(self):
        gains = ImpedanceParams(1.0, 1.0, 2.0)
        es = ErrorState(Vec2(1, 0), Vec2(0, 0), Vec2(0, 0))
        assert force_control_residual(gains, es, ZERO_FORCE) == Vec2(2.0, 0.0)


class TestRequiredTorque:
    def test_static_equilibrium(self):
        tau = required_torque(
            MassParams(1, 1, 1), Vec2(0, 0), Vec2(0, 0), ForcePair(1.0, 2.0)
        )
        assert (tau.taux, tau.tauy) == (1.0, 2.0)

    def test_mass_term(self):
        tau = required_torque(
            MassParams(1, 1, 1), Vec2(1, 0), Vec2(0, 0), ZERO_FORCE
        )
        assert (tau.taux, tau.tauy) == (3.0, 0.0)

    def test_damping_term(self):
        tau = required_torque(
            MassParams(1, 1, 1), Vec2(0, 0), Vec2(0, 1), ZERO_FORCE
        )
        assert (tau.taux, tau.tauy) == (0.0, 1.0)

    @given(masses_st, small_vec, small_vec, force_st)
    def test_inverts_dynamics(self, masses, qddot, qdot, fed):
        tau = required_torque(masses, qddot, qdot, fed)
        res = dynamics_residual(masses, qddot, qdot, tau, fed)
        scale = max(1.0, tau.vec.max_abs())
        assert res.max_abs() <= 1e-12 * scale


class TestTorqueController:
    def test_identity_transform_collapse_is_bitwise(self):
        masses = MassParams(0.8, 1.1, 0.6)
        gains = ImpedanceParams(0.9, 7.0, 40.0)
        d = DesiredTrajectoryPoint(Vec2(0.5, -0.2), Vec2(1.0, 0.3), Vec2(-0.4, 0.9))
        es = ErrorState(Vec2(0.1, -0.3), Vec2(0.2, 0.05), Vec2(0.0, 0.0))
        qdot = Vec2(0.8, -0.5)
        fe = ForcePair(1.5, -0.5)
        fed = ForcePair(0.5, 0.25)
        taus = {
            v: torque_controller(v, masses, IDENTITY_FRAME, gains, d, qdot, es, fe, fed)
            for v in ControllerVariant
        }
        assert taus[ControllerVariant.CORRECTED] == taus[ControllerVariant.SIM_PAPER]
        assert taus[ControllerVariant.SIM_PAPER] == taus[ControllerVariant.STAGE_CONSISTENT]
        mc = taus[ControllerVariant.MC_PAPER]
        corr = taus[ControllerVariant.CORRECTED]
        assert (mc.vec - corr.vec) == (fe.vec - fed.vec)

    def test_missing_transform_example(self):
        # c = (1, 0) via qd_ddot = (1, 0) and zero errors/forces
        masses = MassParams(1.0, 1.0, 1.0)
        frame = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=2.0, fy=4.0)
        gains = ImpedanceParams(1.0, 1.0, 1.0)
        d = DesiredTrajectoryPoint(Vec2(0, 0), Vec2(0, 0), Vec2(1.0, 0.0))
        es = ErrorState(Vec2(0, 0), Vec2(0, 0), Vec2(0, 0))
        corr = torque_controller(
            ControllerVariant.CORRECTED, masses, frame, gains, d,
            Vec2(0, 0), es, ZERO_FORCE, ZERO_FORCE,
        )
        sim = torque_controller(
            ControllerVariant.SIM_PAPER, masses, frame, gains, d,
            Vec2(0, 0), es, ZERO_FORCE, ZERO_FORCE,
        )
        assert (corr.taux, corr.tauy) == (6.0, 0.0)
        assert (sim.taux, sim.tauy) == (3.0, 0.0)
        assert (corr.vec - sim.vec).max_abs() == 3.0

    @given(masses_st, gains_st, desired_st, small_vec, small_vec, small_vec,
           force_st, force_st, frame_st)
    @settings(max_examples=150)
    def test_force_substitution_gap(self, masses, gains, d, e, edot, qdot, fe,
                                    fed, frame):
        # McPaper and Corrected share their leading terms, so the gap is
        # exactly the measured-vs-commanded force mismatch
        es = ErrorState(e, edot, Vec2(0, 0))
        corr = torque_controller(
            ControllerVariant.CORRECTED, masses, frame, gains, d, qdot, es, fe, fed
        )
        mc = torque_controller(
            ControllerVariant.MC_PAPER, masses, frame, gains, d, qdot, es, fe, fed
        )
        gap = (mc.vec - corr.vec) - (fe.vec - fed.vec)
        assert gap.max_abs() <= 1e-12 * max(1.0, corr.vec.max_abs())

    @given(masses_st, gains_st, desired_st, small_vec, small_vec, small_vec,
           force_st, force_st)
    @settings(max_examples=150)
    def test_skewed_frame_separates_variants(self, masses, gains, d, e, edot,
                                             qdot, fe, fed):
        es = ErrorState(e, edot, Vec2(0, 0))
        c = commanded_accel(gains, d, es, fe)
        corr = torque_controller(
            ControllerVariant.CORRECTED, masses, SKEWED_FRAME, gains, d, qdot,
            es, fe, fed,
        )
        sim = torque_controller(
            ControllerVariant.SIM_PAPER, masses, SKEWED_FRAME, gains, d, qdot,
            es, fe, fed,
        )
        if c.max_abs() > 1e-6:
            assert (sim.vec - corr.vec).max_abs() > 0.0

    @given(masses_st, gains_st, desired_st, small_vec, small_vec, small_vec,
           force_st, force_st, frame_st,
           st.floats(0.1, 100.0, allow_nan=False))
    @settings(max_examples=150)
    def test_gain_scaling_invariance(self, masses, gains, d, e, edot, qdot,
                                     fe, fed, frame, lam):
        es = ErrorState(e, edot, Vec2(0, 0))
        tau = torque_controller(
            ControllerVariant.CORRECTED, masses, frame, gains, d, qdot, es, fe, fed
        )
        scaled = ImpedanceParams(lam * gains.m, lam * gains.b, lam * gains.k)
        fe_scaled = ForcePair(lam * fe.fex, lam * fe.fey)
        tau_scaled = torque_controller(
            ControllerVariant.CORRECTED, masses, frame, scaled, d, qdot, es,
            fe_scaled, fed,
        )
        term_mag = (
            gains.b * es.edot.max_abs()
            + gains.k * es.e.max_abs()
            + fe.vec.max_abs()
        ) / gains.m
        scale = max(1.0, tau.vec.max_abs(), 30.0 * term_mag)
        assert (tau_scaled.vec - tau.vec).max_abs() <= 1e-12 * scale


def _vec2_torque(variant, masses, frame, gains, desired, qdot, errors, fe, fed):
    """The Vec2 torque laws that the float kernel replaced."""
    c = desired.qd_ddot + (
        errors.edot.scale(gains.b) + errors.e.scale(gains.k) - fe.vec
    ).scale(1.0 / gains.m)
    m_mat, b_mat = mass_matrix(masses), damping_matrix()
    if variant in (ControllerVariant.SIM_PAPER, ControllerVariant.STAGE_CONSISTENT):
        return mat_vec_mul(m_mat, c) + mat_vec_mul(b_mat, qdot) + fed.vec
    t_mat = transformation_matrix(frame)
    lead = mat_vec_mul(mat_mul(m_mat, t_mat), c) + mat_vec_mul(
        mat_mul(mat_mul(b_mat, mat_inv(t_mat)), t_mat), qdot)
    return lead + (fe.vec if variant is ControllerVariant.MC_PAPER else fed.vec)


def test_float_kernels_match_vec2_formulas_bitwise():
    # torque_controller, commanded_accel and force_control_residual evaluate
    # float kernels; they must give the bits of the Vec2 expressions,
    # signed zeros and non-finite components included
    special = (0.0, -0.0, 2.5, -1.0, 1e308, -1e308, math.inf, -math.inf, math.nan)
    rng = random.Random(5)

    def draw():
        return rng.choice(special) if rng.random() < 0.2 else rng.uniform(-5.0, 5.0)

    def vec():
        return Vec2(draw(), draw())

    def bits(v):
        return v.a0.hex(), v.a1.hex()

    for i in range(1000):
        masses = MassParams(*(rng.uniform(0.1, 3.0) for _ in range(3)))
        frame = IDENTITY_FRAME if i % 3 == 0 else FrameParams(
            rng.uniform(-3.0, 3.0), 1.0, 1.0, rng.uniform(0.2, 5.0),
            rng.uniform(0.2, 5.0))
        gains = ImpedanceParams(rng.uniform(0.2, 3.0), rng.uniform(1.0, 30.0),
                                rng.uniform(1.0, 200.0))
        desired = DesiredTrajectoryPoint(vec(), vec(), vec())
        errors = ErrorState(vec(), vec(), vec())
        qdot = vec()
        fe, fed = ForcePair(draw(), draw()), ForcePair(draw(), draw())
        for variant in ControllerVariant:
            tau = torque_controller(variant, masses, frame, gains, desired, qdot,
                                    errors, fe, fed)
            want = _vec2_torque(variant, masses, frame, gains, desired, qdot,
                                errors, fe, fed)
            assert bits(tau.vec) == bits(want), (i, variant)
        c = desired.qd_ddot + (errors.edot.scale(gains.b) + errors.e.scale(gains.k)
                               - fe.vec).scale(1.0 / gains.m)
        assert bits(commanded_accel(gains, desired, errors, fe)) == bits(c), i
        residual = (errors.eddot.scale(gains.m) + errors.edot.scale(gains.b)
                    + errors.e.scale(gains.k) - fe.vec)
        assert bits(force_control_residual(gains, errors, fe)) == bits(residual), i
        eddot = (fe.vec - errors.edot.scale(gains.b)
                 - errors.e.scale(gains.k)).scale(1.0 / gains.m)
        assert bits(impedance_accel(gains, errors.e, errors.edot, fe)) == bits(eddot), i
        required = (mat_vec_mul(mass_matrix(masses), errors.eddot)
                    + mat_vec_mul(damping_matrix(), qdot) + fed.vec)
        assert bits(required_torque(masses, errors.eddot, qdot, fed).vec) == bits(
            required), i


def test_torque_kernel_matches_vec2_formulas_bitwise():
    # torque_kernel built per draw at eight frames, each on c from two sets
    # of gains, and once on a chunk of lanes; all give the bits of the Vec2
    # laws
    special = (0.0, -0.0, 2.5, -1.0, 1e308, -1e308, math.inf, -math.inf, math.nan)
    rng = random.Random(13)

    def draw():
        return rng.choice(special) if rng.random() < 0.2 else rng.uniform(-5.0, 5.0)

    def vec():
        return Vec2(draw(), draw())

    def bits(v):
        return v.a0.hex(), v.a1.hex()

    frames = [IDENTITY_FRAME, SKEWED_FRAME,
              FrameParams(-0.0, 1.0, 1.0, 1.0, 1.0),
              FrameParams(-0.0, 1.0, 1.0, 3.0, 0.5)] + [
        FrameParams(rng.uniform(-3.0, 3.0), 1.0, 1.0, rng.uniform(0.2, 5.0),
                    rng.uniform(0.2, 5.0)) for _ in range(4)]

    def random_gains():
        return ImpedanceParams(rng.uniform(0.2, 3.0), rng.uniform(1.0, 30.0),
                               rng.uniform(1.0, 200.0))

    for i in range(800):
        frame = frames[i % len(frames)]
        masses = MassParams(*(rng.uniform(0.1, 3.0) for _ in range(3)))
        gains, other_gains = random_gains(), random_gains()
        desired = DesiredTrajectoryPoint(vec(), vec(), vec())
        errors = ErrorState(vec(), vec(), vec())
        qdot = vec()
        fe, fed = ForcePair(draw(), draw()), ForcePair(draw(), draw())
        args = (desired.qd_ddot.a0, desired.qd_ddot.a1, errors.e.a0,
                errors.e.a1, errors.edot.a0, errors.edot.a1, fe.fex, fe.fey,
                qdot.a0, qdot.a1)
        for variant in ControllerVariant:
            for g in (gains, other_gains):
                want = bits(_vec2_torque(variant, masses, frame, g, desired,
                                         qdot, errors, fe, fed))
                c = commanded_accel_kernel(g)(*args[:8])
                got = torque_kernel(variant, masses, frame, fed)(*c, *args[6:])
                assert bits(Vec2(*got)) == want, (i, variant)

    # one chunk of lanes, every input a float64 array; alpha takes +-0.0
    # and +-pi in the first lanes
    lanes = verify._CHUNK_ROWS
    np_rng = np.random.default_rng(13)

    def lane_draws():
        values = np_rng.uniform(-5.0, 5.0, lanes)
        pick = np_rng.random(lanes) < 0.2
        values[pick] = np_rng.choice(special, int(pick.sum()))
        return values

    alpha = np_rng.uniform(-3.0, 3.0, lanes)
    alpha[:4] = (0.0, -0.0, math.pi, -math.pi)
    ones = np.ones(lanes)
    frame = verify._lanes(FrameParams, alpha, ones, ones,
                          *np_rng.uniform(0.2, 5.0, (2, lanes)))
    masses = verify._lanes(MassParams, *np_rng.uniform(0.1, 3.0, (3, lanes)))
    gain_sets = [
        verify._lanes(ImpedanceParams, np_rng.uniform(0.2, 3.0, lanes),
                      np_rng.uniform(1.0, 30.0, lanes),
                      np_rng.uniform(1.0, 200.0, lanes))
        for _ in range(2)]
    args = [lane_draws() for _ in range(10)]
    fed = ForcePair(lane_draws(), lane_draws())
    for variant in ControllerVariant:
        for g in gain_sets:
            with np.errstate(all="ignore"):
                c = commanded_accel_kernel(g)(*args[:8])
                got = torque_kernel(variant, masses, frame, fed)(*c, *args[6:])
            for lane in range(lanes):
                def at(*columns):
                    return [float(column[lane]) for column in columns]

                qdd0, qdd1, e0, e1, ed0, ed1, fe0, fe1, v0, v1 = at(*args)
                zero = Vec2(0.0, 0.0)
                want = _vec2_torque(
                    variant, MassParams(*at(masses.mx, masses.my, masses.mp)),
                    FrameParams(*at(alpha, ones, ones, frame.fx, frame.fy)),
                    ImpedanceParams(*at(g.m, g.b, g.k)),
                    DesiredTrajectoryPoint(zero, zero, Vec2(qdd0, qdd1)),
                    Vec2(v0, v1),
                    ErrorState(Vec2(e0, e1), Vec2(ed0, ed1), zero),
                    ForcePair(fe0, fe1), ForcePair(*at(fed.fex, fed.fey)),
                )
                assert bits(Vec2(*at(*got))) == bits(want), (lane, variant)


def test_only_transform_weighted_laws_invert_the_frame():
    # det T = fx*fy = 1 passes FrameParams, but T fails mat_inv's
    # scale-relative cutoff; the stage-space laws never form T
    frame = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1e7, fy=1e-7)
    masses = MassParams(0.8, 1.1, 0.6)
    gains = ImpedanceParams(0.9, 7.0, 40.0)
    fed = ForcePair(0.5, 0.25)
    state = (-0.4, 0.9, 0.1, -0.3, 0.2, 0.05, 1.5, -0.5, 0.8, -0.5)
    args = (*commanded_accel_kernel(gains)(*state[:8]), *state[6:])
    with pytest.raises(SingularMatrix):
        mat_inv(transformation_matrix(frame))
    for variant in ControllerVariant:
        if variant in STAGE_SPACE_VARIANTS:
            tau = torque_kernel(variant, masses, frame, fed)(*args)
            assert tau == torque_kernel(variant, masses, SKEWED_FRAME,
                                        fed)(*args)
            assert all(math.isfinite(t) for t in tau)
        else:
            with pytest.raises(SingularMatrix):
                torque_kernel(variant, masses, frame, fed)


def test_torque_kernel_tail_is_picked_when_built():
    # McPaper closes its law with fe as given, -0.0 included; the others
    # with fed, whatever fe is; on floats and on float64 lanes alike
    masses = MassParams(0.8, 1.1, 0.6)
    fed = ForcePair(0.5, 0.0)
    args = (-0.0, -0.0, 1.25, -0.0, -0.0, -0.0)  # c0, c1, fe0, fe1, v0, v1
    want = {
        ControllerVariant.MC_PAPER: ["0x1.4000000000000p+0", "-0x0.0p+0"],
        ControllerVariant.CORRECTED: ["0x1.0000000000000p-1", "0x0.0p+0"],
        ControllerVariant.SIM_PAPER: ["0x1.0000000000000p-1", "0x0.0p+0"],
        ControllerVariant.STAGE_CONSISTENT: ["0x1.0000000000000p-1", "0x0.0p+0"],
    }
    lanes = [np.full(3, a) for a in args]
    for variant, hexes in want.items():
        torque = torque_kernel(variant, masses, IDENTITY_FRAME, fed)
        assert [t.hex() for t in torque(*args)] == hexes, variant
        for lane in range(3):
            assert [float(t[lane]).hex() for t in torque(*lanes)] == hexes, (
                variant, lane)


def _vec2_implication_residual(variant, masses, frame, gains, desired, actual,
                               fe, fed):
    """The Vec2 implication check that the float kernel replaced."""
    q, qdot, qddot = actual
    errors = ErrorState(desired.qd - q, desired.qd_dot - qdot,
                        desired.qd_ddot - qddot)
    fc_res = (errors.eddot.scale(gains.m) + errors.edot.scale(gains.b)
              + errors.e.scale(gains.k) - fe.vec)
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
    tau = _vec2_torque(variant, masses, frame, gains, desired, qdot, errors, fe, fed)
    required = (mat_vec_mul(mass_matrix(masses), qddot)
                + mat_vec_mul(damping_matrix(), qdot) + fed.vec)
    return tau - required


def test_implication_residual_matches_vec2_formula_bitwise():
    # half the cases satisfy the impedance law, so the residual is reached;
    # the others mostly raise, and must raise with the same message
    special = (0.0, -0.0, 2.5, -1.0, 1e308, -1e308, math.inf, -math.inf, math.nan)
    rng = random.Random(23)

    def draw():
        return rng.choice(special) if rng.random() < 0.1 else rng.uniform(-5.0, 5.0)

    def vec():
        return Vec2(draw(), draw())

    def outcome(fn, *args):
        try:
            res = fn(*args)
        except PreconditionViolated as exc:
            return "raised", str(exc)
        return res.a0.hex(), res.a1.hex()

    raised = 0
    for i in range(2000):
        masses = MassParams(*(rng.uniform(0.1, 3.0) for _ in range(3)))
        frame = IDENTITY_FRAME if i % 3 == 0 else FrameParams(
            rng.uniform(-3.0, 3.0), 1.0, 1.0, rng.uniform(0.2, 5.0),
            rng.uniform(0.2, 5.0))
        gains = ImpedanceParams(rng.uniform(0.2, 3.0), rng.uniform(1.0, 30.0),
                                rng.uniform(1.0, 200.0))
        desired = DesiredTrajectoryPoint(vec(), vec(), vec())
        fe, fed = ForcePair(draw(), draw()), ForcePair(draw(), draw())
        if i % 2 == 0:
            actual = impedance_consistent_actual(gains, desired, vec(), vec(), fe)
        else:
            actual = (vec(), vec(), vec())
        for variant in ControllerVariant:
            args = (variant, masses, frame, gains, desired, actual, fe, fed)
            got = outcome(implication_residual, *args)
            assert got == outcome(_vec2_implication_residual, *args), (i, variant)
            raised += got[0] == "raised"
    assert 0 < raised < 2000 * len(ControllerVariant)


class TestImplicationResidual:
    @given(masses_st, gains_st, desired_st, small_vec, small_vec, force_st,
           force_st, frame_st)
    @settings(max_examples=200)
    def test_stage_consistent_closes_the_loop(self, masses, gains, d, e, edot,
                                              fe, fed, frame):
        actual = impedance_consistent_actual(gains, d, e, edot, fe)
        res = implication_residual(
            ControllerVariant.STAGE_CONSISTENT, masses, frame, gains, d,
            actual, fe, fed,
        )
        tau = required_torque(masses, actual[2], actual[1], fed)
        assert res.max_abs() <= 1e-9 * max(1.0, tau.vec.max_abs())

    def test_corrected_matches_at_identity_transform(self):
        masses = MassParams(1.5, 0.5, 0.25)
        gains = ImpedanceParams(2.0, 8.0, 30.0)
        d = DesiredTrajectoryPoint(Vec2(0.3, -0.1), Vec2(0.4, 0.2), Vec2(-0.6, 1.0))
        fe = ForcePair(2.0, -1.0)
        fed = ForcePair(0.5, 0.5)
        actual = impedance_consistent_actual(gains, d, Vec2(0.2, -0.4),
                                             Vec2(-0.1, 0.3), fe)
        res = implication_residual(
            ControllerVariant.CORRECTED, masses, IDENTITY_FRAME, gains, d,
            actual, fe, fed,
        )
        assert res.max_abs() <= 1e-9

    def test_mc_paper_residual_is_force_mismatch_at_identity(self):
        masses = MassParams(1.0, 1.0, 1.0)
        gains = ImpedanceParams(1.0, 5.0, 20.0)
        d = DesiredTrajectoryPoint(Vec2(1.0, 0.0), Vec2(0.0, 0.5), Vec2(0.2, 0.0))
        fe = ForcePair(3.0, -2.0)
        fed = ForcePair(1.0, 1.0)
        actual = impedance_consistent_actual(gains, d, Vec2(0.5, 0.1),
                                             Vec2(0.0, -0.2), fe)
        res = implication_residual(
            ControllerVariant.MC_PAPER, masses, IDENTITY_FRAME, gains, d,
            actual, fe, fed,
        )
        mismatch = fe.vec - fed.vec
        assert (res - mismatch).max_abs() <= 1e-9

    def test_violated_precondition_raises(self):
        masses = MassParams(1.0, 1.0, 1.0)
        gains = ImpedanceParams(1.0, 5.0, 20.0)
        d = DesiredTrajectoryPoint(Vec2(0, 0), Vec2(0, 0), Vec2(0, 0))
        # states violating the impedance law: everything zero but fe nonzero
        actual = (Vec2(0, 0), Vec2(0, 0), Vec2(0, 0))
        with pytest.raises(PreconditionViolated) as exc_info:
            implication_residual(
                ControllerVariant.STAGE_CONSISTENT, masses, IDENTITY_FRAME,
                gains, d, actual, ForcePair(5.0, 0.0), ZERO_FORCE,
            )
        assert str(exc_info.value) == (
            "impedance-law residual 5.000e+00 exceeds 5.000e-09; "
            "implication check is not probative"
        )
