import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memprobe import traced_peak
from microinject import verify
from microinject.algebra2d import Vec2, diag, identity, mat_mul, mat_inv, mat_vec_mul
from microinject.dynamics import (
    ForcePair,
    MassParams,
    NonFiniteState,
    StageState,
    Torque,
    ZERO_FORCE,
    ZERO_TORQUE,
    damping_matrix,
    free_response,
    free_response_kernel,
    image_space_operators,
    integrate,
    inverse_dynamics_kernel,
    mass_matrix,
    rk4_kernel,
    rk4_step,
)
from microinject.frames import FrameParams

masses_st = st.builds(
    MassParams,
    mx=st.floats(0.1, 10.0, allow_nan=False),
    my=st.floats(0.1, 10.0, allow_nan=False),
    mp=st.floats(0.1, 10.0, allow_nan=False),
)
ics_st = st.tuples(*[st.floats(-10.0, 10.0, allow_nan=False)] * 4)


class TestMassParams:
    def test_unit_masses_matrix(self):
        assert mass_matrix(MassParams(1.0, 1.0, 1.0)) == diag(3.0, 2.0)

    @pytest.mark.parametrize("field", ["mx", "my", "mp"])
    def test_rejects_non_positive(self, field):
        kwargs = dict(mx=1.0, my=1.0, mp=1.0)
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match=field):
            MassParams(**kwargs)

    @given(masses_st)
    def test_matrix_diagonal_positive_definite(self, masses):
        m = mass_matrix(masses)
        assert m.m01 == 0.0 and m.m10 == 0.0
        assert m.m00 > 0.0 and m.m11 > 0.0


def test_damping_matrix_is_identity():
    b = damping_matrix()
    assert b == identity()
    assert b.m00 * b.m11 - b.m01 * b.m10 == 1.0
    v = Vec2(3.7, -0.2)
    from microinject.algebra2d import mat_vec_mul

    assert mat_vec_mul(b, v) == v


def _dynamics_residual(masses, qddot, qdot, tau, fed):
    """M @ qddot + B @ qdot - (tau - fed), from the inverse-dynamics kernel."""
    l0, l1 = inverse_dynamics_kernel(mass_matrix(masses))(
        qddot.a0, qddot.a1, qdot.a0, qdot.a1)
    return Vec2(l0 - (tau.taux - fed.fex), l1 - (tau.tauy - fed.fey))


class TestDynamicsResidual:
    def test_static_equilibrium(self):
        masses = MassParams(2.0, 3.0, 0.5)
        tau = Torque(1.0, -2.0)
        fed = ForcePair(1.0, -2.0)
        res = _dynamics_residual(masses, Vec2(0, 0), Vec2(0, 0), tau, fed)
        assert res == Vec2(0.0, 0.0)

    def test_unit_masses_substitution(self):
        masses = MassParams(1.0, 1.0, 1.0)
        res = _dynamics_residual(
            masses, Vec2(1.0, 1.0), Vec2(0.0, 0.0), Torque(3.0, 2.0), ZERO_FORCE
        )
        assert res == Vec2(0.0, 0.0)

    def test_damping_term_alone(self):
        masses = MassParams(1.0, 1.0, 1.0)
        res = _dynamics_residual(
            masses, Vec2(0.0, 0.0), Vec2(1.0, 0.0), ZERO_TORQUE, ZERO_FORCE
        )
        assert res == Vec2(1.0, 0.0)


class TestFreeResponse:
    def test_initial_conditions(self):
        masses = MassParams(0.7, 1.3, 0.4)
        s = free_response(masses, 1.5, -2.5, 0.25, -0.75, 0.0)
        assert s.q == Vec2(1.5, -2.5)
        assert s.qdot == Vec2(0.25, -0.75)

    def test_rest_stays_at_rest(self):
        masses = MassParams(1.0, 2.0, 3.0)
        for t in (0.0, 0.5, 10.0, 500.0):
            s = free_response(masses, 0.4, -0.6, 0.0, 0.0, t)
            assert s.q == Vec2(0.4, -0.6)
            assert s.qdot == Vec2(0.0, 0.0)

    def test_unit_mass_closed_form_value(self):
        # x(3) = 3*(1 - exp(-1)) for Mx = 3, x0 = 0, xd0 = 1
        masses = MassParams(1.0, 1.0, 1.0)
        s = free_response(masses, 0.0, 0.0, 1.0, 0.0, 3.0)
        assert s.q.a0 == pytest.approx(3.0 * (1.0 - math.exp(-1.0)), rel=1e-15)
        assert s.q.a0 == pytest.approx(1.896361676485673, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            free_response(MassParams(1, 1, 1), 0, 0, 0, 0, -0.1)

    @pytest.mark.parametrize("t", [-0.1, -math.inf, math.nan])
    def test_kernel_wrappers_reject_negative_or_nan_time(self, t):
        with pytest.raises(ValueError, match="t must be >= 0"):
            free_response(MassParams(1, 1, 1), 0, 0, 0, 0, t)

    @given(masses_st, ics_st)
    @settings(max_examples=150)
    def test_satisfies_dynamics(self, masses, ics):
        # substitute the closed form (with analytic accelerations) into the
        # torque-free dynamics at a handful of times
        x0, y0, xd0, yd0 = ics
        scale = max(1.0, abs(xd0), abs(yd0))
        at = free_response_kernel(masses, x0, y0, xd0, yd0)
        for i in range(20):
            t = 10.0 * masses.total_x * i / 19.0
            _, _, xd, yd, xdd, ydd = at(t)
            res = _dynamics_residual(masses, Vec2(xdd, ydd), Vec2(xd, yd),
                                     ZERO_TORQUE, ZERO_FORCE)
            assert res.max_abs() <= 1e-10 * scale

    @given(masses_st, ics_st)
    @settings(max_examples=100)
    def test_position_asymptotes(self, masses, ics):
        x0, y0, xd0, yd0 = ics
        t_inf = 50.0 * max(masses.total_x, masses.total_y)
        s = free_response(masses, x0, y0, xd0, yd0, t_inf)
        limit = Vec2(x0 + xd0 * masses.total_x, y0 + yd0 * masses.total_y)
        assert (s.q - limit).max_abs() <= 1e-8 * max(1.0, limit.max_abs())


class TestIntegrate:
    def test_matches_closed_form(self):
        masses = MassParams(1.0, 1.0, 1.0)
        s0 = StageState(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
        samples = integrate(masses, s0, ZERO_TORQUE, ZERO_FORCE, 10.0, 1e-3)
        worst = 0.0
        for t, x, y, _, _ in samples:
            ref = free_response(masses, 0.0, 0.0, 1.0, 1.0, t)
            worst = max(worst, (Vec2(x, y) - ref.q).max_abs())
        assert worst <= 1e-6

    def test_rejects_bad_steps(self):
        masses = MassParams(1.0, 1.0, 1.0)
        s0 = StageState(Vec2(0, 0), Vec2(0, 0))
        with pytest.raises(ValueError):
            integrate(masses, s0, ZERO_TORQUE, ZERO_FORCE, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(masses, s0, ZERO_TORQUE, ZERO_FORCE, -1.0, 0.1)

    def test_zero_horizon_returns_initial_sample(self):
        masses = MassParams(1.0, 1.0, 1.0)
        s0 = StageState(Vec2(0.3, 0.4), Vec2(0.0, 0.0))
        samples = integrate(masses, s0, ZERO_TORQUE, ZERO_FORCE, 0.0, 0.1)
        assert samples == [(0.0, 0.3, 0.4, 0.0, 0.0)]

    def test_equilibrium_preserved_exactly(self):
        masses = MassParams(0.5, 0.25, 0.25)
        s0 = StageState(Vec2(1.0, -1.0), Vec2(0.0, 0.0))
        forcing = ForcePair(0.8, -0.4)
        samples = integrate(masses, s0, Torque(0.8, -0.4), forcing, 2.0, 0.01)
        for _t, x, y, xdot, ydot in samples:
            assert Vec2(x, y) == s0.q
            assert Vec2(xdot, ydot) == s0.qdot

    def test_lands_exactly_on_t_end(self):
        masses = MassParams(1.0, 1.0, 1.0)
        s0 = StageState(Vec2(0, 0), Vec2(1, 1))
        samples = integrate(masses, s0, ZERO_TORQUE, ZERO_FORCE, 0.7, 0.3)
        assert samples[-1][0] == 0.7
        assert [t for t, *_ in samples] == [0.0, 0.3, 0.6, 0.7]

    def test_divergence_raises_with_finite_prefix(self):
        masses = MassParams(1.0, 1.0, 1.0)
        s0 = StageState(Vec2(0, 0), Vec2(0, 0))
        with pytest.raises(NonFiniteState) as exc_info:
            integrate(masses, s0, Torque(1e308, 0.0), ZERO_FORCE, 10.0, 1.0)
        exc = exc_info.value
        assert all(math.isfinite(v) for row in exc.samples for v in row)

    @pytest.mark.parametrize("tau, t_bad", [
        (Torque(1e308, 0.0), 2.0),           # x overflows on the second step
        (Torque(0.0, -1e308), 1.0),          # y alone overflows
        (Torque(0.0, float("nan")), 1.0),    # NaN in y alone
    ])
    def test_divergence_names_the_step_and_keeps_the_prefix(self, tau, t_bad):
        masses = MassParams(1.0, 1.0, 1.0)
        s0 = StageState(Vec2(0, 0), Vec2(0, 0))
        with pytest.raises(NonFiniteState) as exc_info:
            integrate(masses, s0, tau, ZERO_FORCE, 10.0, 1.0)
        exc = exc_info.value
        assert str(exc) == f"state became non-finite at t={t_bad!r}"
        # the prefix is exactly the run that stops before the bad step
        assert exc.samples == integrate(
            masses, s0, tau, ZERO_FORCE, t_bad - 1.0, 1.0)

    @pytest.mark.parametrize("s0, tau, fed, t_end, dt", [
        # a final partial step of 0.1 after two full ones
        (StageState(Vec2(0.5, -0.25), Vec2(1.0, -2.0)), Torque(0.3, -0.7),
         ForcePair(0.1, 0.2), 0.7, 0.3),
        # signed zeros in the initial position and velocity
        (StageState(Vec2(-0.0, -0.0), Vec2(-0.0, -0.0)), ZERO_TORQUE,
         ZERO_FORCE, 1.0, 0.25),
        (StageState(Vec2(-0.0, 0.0), Vec2(0.0, -0.0)), Torque(0.0, -0.0),
         ForcePair(-0.0, 0.0), 0.7, 0.3),
        # non-zero forcing over many steps
        (StageState(Vec2(1.0, -1.0), Vec2(0.4, 0.9)), Torque(0.8, -1.3),
         ForcePair(-0.4, 0.6), 2.0, 0.01),
    ])
    def test_rows_match_a_chain_of_rk4_steps_bitwise(self, s0, tau, fed,
                                                     t_end, dt):
        masses = MassParams(0.7, 0.4, 0.2)
        samples = integrate(masses, s0, tau, fed, t_end, dt)
        assert type(samples) is list
        assert all(type(row) is tuple and len(row) == 5 for row in samples)
        times = [k * dt for k in range(int(round(t_end / dt)) + 1)]
        if times[-1] < t_end:
            times.append(t_end)
        assert _row_bits(samples) == _row_bits(
            _rk4_chain_rows(masses, s0, tau, fed, times))
        assert _row_bits(samples[:1]) == _row_bits(
            [(0.0, s0.q.a0, s0.q.a1, s0.qdot.a0, s0.qdot.a1)])

    def test_non_finite_state_carries_the_finite_prefix_of_rows(self):
        masses = MassParams(1.0, 1.0, 1.0)
        s0 = StageState(Vec2(-0.0, 0.5), Vec2(0.25, -0.0))
        tau = Torque(1e308, 0.0)
        with pytest.raises(NonFiniteState) as exc_info:
            integrate(masses, s0, tau, ZERO_FORCE, 10.0, 1.0)
        exc = exc_info.value
        # x overflows on the second step, so two finite rows come before it
        assert _row_bits(exc.samples) == _row_bits(
            _rk4_chain_rows(masses, s0, tau, ZERO_FORCE, [0.0, 1.0]))
        assert len(exc.samples) == 2

    def test_memory_per_sample(self):
        # 10,001 rows of (t, x, y, xdot, ydot) plus the time grid; holding a
        # StageState of two Vec2 per sample peaked at 4.46 MB
        s0 = StageState(Vec2(0.0, 0.0), Vec2(1.0, 1.0))
        samples, peak = traced_peak(lambda: integrate(
            MassParams(1.0, 1.0, 1.0), s0, ZERO_TORQUE, ZERO_FORCE, 10.0, 1e-3))
        assert len(samples) == 10_001
        assert peak <= 2.5e6, peak


def _rk4_chain_rows(masses, s0, tau, fed, times):
    """(t, x, y, xdot, ydot) rows of ``rk4_step`` calls chained over the
    grid ``times``, from ``s0`` at times[0]."""
    minv = mat_inv(mass_matrix(masses))
    q, qdot = s0.q, s0.qdot
    rows = [(times[0], q.a0, q.a1, qdot.a0, qdot.a1)]
    for t0, t1 in zip(times, times[1:]):
        q, qdot = rk4_step(minv, q, qdot, tau.vec, fed.vec, t1 - t0)
        rows.append((t1, q.a0, q.a1, qdot.a0, qdot.a1))
    return rows


def _row_bits(rows):
    return [tuple(v.hex() for v in row) for row in rows]


def _vec2_rk4_step(minv, q, qdot, tau, fed, h):
    """The Vec2 RK4 that the float kernel replaced."""
    def accel(v):
        return mat_vec_mul(minv, tau - fed - mat_vec_mul(damping_matrix(), v))

    k1v = accel(qdot)
    v2 = qdot + k1v.scale(0.5 * h)
    k2v = accel(v2)
    v3 = qdot + k2v.scale(0.5 * h)
    k3v = accel(v3)
    v4 = qdot + k3v.scale(h)
    k4v = accel(v4)
    return (
        q + (qdot + v2.scale(2.0) + v3.scale(2.0) + v4).scale(h / 6.0),
        qdot + (k1v + k2v.scale(2.0) + k3v.scale(2.0) + k4v).scale(h / 6.0),
    )


def test_rk4_step_matches_vec2_formula_bitwise():
    # the float kernel forms every product with the zeros of M_inv and B, so
    # signed zeros and non-finite components come out as in Vec2 algebra
    special = (0.0, -0.0, 2.5, -1.0, 1e308, -1e308, math.inf, -math.inf, math.nan)
    rng = random.Random(11)

    def draw():
        return rng.choice(special) if rng.random() < 0.25 else rng.uniform(-5.0, 5.0)

    def bits(state):
        return [(v.a0.hex(), v.a1.hex()) for v in state]

    for _ in range(2000):
        masses = MassParams(*(rng.uniform(0.1, 3.0) for _ in range(3)))
        args = (mat_inv(mass_matrix(masses)), Vec2(draw(), draw()),
                Vec2(draw(), draw()), Vec2(draw(), draw()), Vec2(draw(), draw()),
                rng.choice((1e-3, 0.1, 0.5)))
        assert bits(rk4_step(*args)) == bits(_vec2_rk4_step(*args)), args
        # the kernel's step also hands back its first stage, the
        # acceleration M_inv @ ((tau - fed) - B @ qdot) at the state it
        # starts from, on which the closed loop scores the impedance law
        minv, q, qdot, tau, fed, h = args
        *_, a0, a1 = rk4_kernel(minv)(
            tau.a0 - fed.a0, tau.a1 - fed.a1, q.a0, q.a1, qdot.a0, qdot.a1, h)
        want = mat_vec_mul(minv, (tau - fed) - mat_vec_mul(damping_matrix(), qdot))
        assert bits([Vec2(a0, a1)]) == bits([want]), args
    # chains of steps too wide for RK4 grow until they overflow, possibly in
    # a late substage only, as a diverging closed-loop run does
    for _ in range(50):
        masses = MassParams(*(rng.uniform(0.02, 0.2) for _ in range(3)))
        minv = mat_inv(mass_matrix(masses))
        tau, fed = Vec2(draw(), draw()), Vec2(draw(), draw())
        state = (Vec2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
                 Vec2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        for _ in range(400):
            got = rk4_step(minv, *state, tau, fed, 2.0)
            assert bits(got) == bits(_vec2_rk4_step(minv, *state, tau, fed, 2.0))
            state = got
            if not (got[0].is_finite() and got[1].is_finite()):
                break


SPECIAL = (0.0, -0.0, 2.5, -1.0, 1e308, -1e308, math.inf, -math.inf, math.nan)


def _bits(*values):
    return [v.hex() for v in values]


def _vec2_free_response(masses, x0, y0, xd0, yd0, t):
    """The Vec2 closed form that free_response_kernel replaced: position and
    velocity from one exp per axis, acceleration from its own exp."""
    mx_tot = masses.total_x
    my_tot = masses.total_y
    ex = math.exp(-t / mx_tot)
    ey = math.exp(-t / my_tot)
    q = Vec2((x0 + xd0 * mx_tot) - xd0 * mx_tot * ex,
             (y0 + yd0 * my_tot) - yd0 * my_tot * ey)
    qdot = Vec2(xd0 * ex, yd0 * ey)
    accel = Vec2(-(xd0 / mx_tot) * math.exp(-t / mx_tot),
                 -(yd0 / my_tot) * math.exp(-t / my_tot))
    return q, qdot, accel


def test_free_response_kernel_matches_vec2_formula_bitwise():
    rng = random.Random(13)
    times = (0.0, -0.0, 0.5, 1e308, math.inf)

    def draw():
        return rng.choice(SPECIAL) if rng.random() < 0.25 else rng.uniform(-5.0, 5.0)

    for _ in range(3000):
        masses = MassParams(*(
            rng.choice((1e-300, 1e308)) if rng.random() < 0.05
            else rng.uniform(0.1, 3.0) for _ in range(3)))
        ics = [draw() for _ in range(4)]
        t = rng.choice(times) if rng.random() < 0.3 else rng.uniform(0.0, 20.0)
        q, qdot, accel = _vec2_free_response(masses, *ics, t)
        want = _bits(q.a0, q.a1, qdot.a0, qdot.a1, accel.a0, accel.a1)
        assert _bits(*free_response_kernel(masses, *ics)(t)) == want, (masses, ics, t)
        state = free_response(masses, *ics, t)
        assert _bits(state.q.a0, state.q.a1, state.qdot.a0,
                     state.qdot.a1) == want[:4]


def test_free_response_kernel_on_lanes_matches_float_calls_bitwise():
    # lanes of masses, initial conditions and times, as the dynamics suite
    # passes them, and float masses with lanes of times, as its RK4 checks do
    rng = np.random.default_rng(19)
    n = 2000
    masses = rng.uniform(0.1, 10.0, (3, n))
    masses[:, :8] = [[0.1, 10.0, 0.1, 10.0, 0.1, 10.0, 0.1, 10.0],
                     [0.1, 10.0, 10.0, 0.1, 0.1, 10.0, 10.0, 0.1],
                     [0.1, 10.0, 0.1, 0.1, 10.0, 10.0, 0.1, 10.0]]
    ics = rng.uniform(-10.0, 10.0, (4, n))
    special = np.array([0.0, -0.0, 2.5, -1.0, 1e308, -1e308, math.inf,
                        -math.inf, math.nan])
    picked = rng.random((4, n)) < 0.25
    ics[picked] = rng.choice(special, picked.sum())
    ics[2:, 8:12] = [[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, 0.0, -0.0]]
    # t = 0.0, and t far enough out that exp(-t/M) underflows to 0
    times = rng.uniform(0.0, 300.0, n)
    times[rng.random(n) < 0.1] = 0.0
    times[rng.random(n) < 0.1] = 1e5
    assert math.exp(-1e5 / (3 * 10.0)) == 0.0

    lanes = verify._lanes(MassParams, *masses)
    with np.errstate(all="ignore"):
        kernel = free_response_kernel(lanes, *ics)
    for t in (times, 0.0, 1e5, 7.25):
        with np.errstate(all="ignore"):
            got = kernel(t)
        assert all(type(v) is np.ndarray and v.shape == (n,) for v in got)
        for lane in range(n):
            floats = [float(v[lane]) for v in (*masses, *ics)]
            at = t if isinstance(t, float) else float(t[lane])
            want = free_response_kernel(MassParams(*floats[:3]), *floats[3:])(at)
            assert _bits(*(float(v[lane]) for v in got)) == _bits(*want), (
                lane, floats, at)

    unit = MassParams(1.0, 0.5, 0.25)
    got = free_response_kernel(unit, 0.5, -0.0, 2.0, -0.0)(times)
    for lane in range(n):
        want = free_response_kernel(unit, 0.5, -0.0, 2.0, -0.0)(float(times[lane]))
        assert _bits(*(float(v[lane]) for v in got)) == _bits(*want), lane


def test_inverse_dynamics_kernel_matches_vec2_formula_bitwise():
    # M@a + B@v with every product of both matrices formed, so signed zeros
    # and non-finite components come out as in Vec2 algebra
    rng = random.Random(17)

    def draw():
        return rng.choice(SPECIAL) if rng.random() < 0.25 else rng.uniform(-5.0, 5.0)

    for _ in range(3000):
        masses = MassParams(*(rng.uniform(0.1, 3.0) for _ in range(3)))
        a, v = (Vec2(draw(), draw()) for _ in range(2))
        lhs = mat_vec_mul(mass_matrix(masses), a) + mat_vec_mul(damping_matrix(), v)
        got = inverse_dynamics_kernel(mass_matrix(masses))(a.a0, a.a1, v.a0, v.a1)
        assert _bits(*got) == _bits(lhs.a0, lhs.a1), (masses, a, v)


class TestImageSpaceOperators:
    def test_identity_transform(self):
        masses = MassParams(1.0, 2.0, 3.0)
        frame = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
        iner, pos_fin = image_space_operators(masses, frame)
        assert iner == mass_matrix(masses)
        assert pos_fin == identity()

    def test_diagonal_example(self):
        masses = MassParams(1.0, 1.0, 1.0)
        frame = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=2.0, fy=4.0)
        iner, pos_fin = image_space_operators(masses, frame)
        assert iner == diag(1.5, 0.5)
        assert pos_fin == diag(0.5, 0.25)

    def test_consistent_with_matrix_product(self):
        from microinject.frames import transformation_matrix

        masses = MassParams(0.4, 0.9, 1.7)
        frame = FrameParams(alpha=0.8, dx=0.2, dy=0.4, fx=1.5, fy=2.5)
        iner, pos_fin = image_space_operators(masses, frame)
        t_inv = mat_inv(transformation_matrix(frame))
        assert iner == mat_mul(mass_matrix(masses), t_inv)
        assert pos_fin == mat_mul(damping_matrix(), t_inv)
