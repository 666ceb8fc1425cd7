import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microinject.algebra2d import Vec2
from microinject.control import ControllerVariant, ImpedanceParams
from microinject.dynamics import (
    ForcePair,
    MassParams,
    StageState,
    ZERO_FORCE,
    ZERO_TORQUE,
    integrate,
    mass_matrix,
)
from microinject.frames import FrameParams
from microinject.sim import (
    MembraneModel,
    TrajectoryKind,
    TrajectorySpec,
    compare_variants,
    membrane_force,
    run_closed_loop,
    sample_trajectory,
)

IDENTITY_FRAME = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
SKEWED_FRAME = FrameParams(alpha=math.pi / 6, dx=1.0, dy=1.0, fx=2.0, fy=4.0)

QUINTIC = TrajectorySpec(
    kind=TrajectoryKind.QUINTIC, start=Vec2(0.0, 0.0), end=Vec2(1.5, 0.5),
    duration=3.0,
)
NO_CONTACT = MembraneModel(stiffness=0.0, damping=0.0, contact_x=1e9)
CONTACT = MembraneModel(stiffness=50.0, damping=2.0, contact_x=1.0)


class TestTrajectorySpec:
    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError, match="duration"):
            TrajectorySpec(kind=TrajectoryKind.QUINTIC, start=Vec2(0, 0),
                           end=Vec2(1, 1), duration=0.0)

    def test_quintic_requires_end(self):
        with pytest.raises(ValueError, match="end"):
            TrajectorySpec(kind=TrajectoryKind.QUINTIC, start=Vec2(0, 0),
                           duration=1.0)

    def test_quintic_rejects_sinusoid_fields(self):
        with pytest.raises(ValueError, match="amplitude"):
            TrajectorySpec(kind=TrajectoryKind.QUINTIC, start=Vec2(0, 0),
                           end=Vec2(1, 1), duration=1.0, amplitude=Vec2(1, 1))

    def test_sinusoid_requires_amplitude_and_frequency(self):
        with pytest.raises(ValueError):
            TrajectorySpec(kind=TrajectoryKind.SINUSOID, start=Vec2(0, 0),
                           duration=1.0)
        with pytest.raises(ValueError, match="frequency"):
            TrajectorySpec(kind=TrajectoryKind.SINUSOID, start=Vec2(0, 0),
                           duration=1.0, amplitude=Vec2(1, 0), frequency=0.0)


class TestSampleTrajectory:
    def test_quintic_boundary_conditions(self):
        d0 = sample_trajectory(QUINTIC, 0.0)
        assert d0.qd == QUINTIC.start
        assert d0.qd_dot == Vec2(0, 0) and d0.qd_ddot == Vec2(0, 0)
        d1 = sample_trajectory(QUINTIC, QUINTIC.duration)
        assert d1.qd == QUINTIC.end
        assert d1.qd_dot == Vec2(0, 0) and d1.qd_ddot == Vec2(0, 0)

    def test_quintic_clamps_past_duration(self):
        d = sample_trajectory(QUINTIC, 100.0)
        assert d.qd == QUINTIC.end
        assert d.qd_dot == Vec2(0, 0) and d.qd_ddot == Vec2(0, 0)

    def test_quintic_midpoint_symmetry(self):
        d = sample_trajectory(QUINTIC, QUINTIC.duration / 2.0)
        mid = (QUINTIC.start + QUINTIC.end).scale(0.5)
        assert d.qd.a0 == pytest.approx(mid.a0, rel=1e-14)
        assert d.qd.a1 == pytest.approx(mid.a1, rel=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            sample_trajectory(QUINTIC, -0.5)

    @pytest.mark.parametrize("spec", [
        QUINTIC,
        TrajectorySpec(kind=TrajectoryKind.SINUSOID, start=Vec2(0.5, -0.5),
                       duration=4.0, amplitude=Vec2(0.4, 0.2), frequency=0.7),
    ])
    def test_derivatives_match_finite_differences(self, spec):
        # central-difference oracle on the analytic position signal; the
        # second difference needs a larger step to stay above rounding noise
        h_vel, h_acc = 1e-6, 1e-4
        for t in (0.6, 1.1, 2.3, 2.9):
            d = sample_trajectory(spec, t)
            plus = sample_trajectory(spec, t + h_vel).qd
            minus = sample_trajectory(spec, t - h_vel).qd
            fd_vel = (plus - minus).scale(1.0 / (2.0 * h_vel))
            assert (fd_vel - d.qd_dot).max_abs() < 1e-6
            plus = sample_trajectory(spec, t + h_acc).qd
            minus = sample_trajectory(spec, t - h_acc).qd
            fd_acc = (plus - d.qd.scale(2.0) + minus).scale(1.0 / (h_acc * h_acc))
            assert (fd_acc - d.qd_ddot).max_abs() < 1e-5


class TestMembraneForce:
    def test_no_contact(self):
        fe = membrane_force(CONTACT, Vec2(0.5, 0.0), Vec2(5.0, 0.0))
        assert (fe.fex, fe.fey) == (0.0, 0.0)

    def test_linear_spring(self):
        model = MembraneModel(stiffness=10.0, damping=0.0, contact_x=1.0)
        fe = membrane_force(model, Vec2(1.5, 0.0), Vec2(0.0, 0.0))
        assert (fe.fex, fe.fey) == (5.0, 0.0)

    def test_floors_at_zero_no_adhesion(self):
        model = MembraneModel(stiffness=10.0, damping=2.0, contact_x=1.0)
        fe = membrane_force(model, Vec2(1.5, 0.0), Vec2(-3.0, 0.0))
        assert (fe.fex, fe.fey) == (0.0, 0.0)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            MembraneModel(stiffness=-1.0, damping=0.0, contact_x=0.0)
        with pytest.raises(ValueError):
            MembraneModel(stiffness=0.0, damping=-1.0, contact_x=0.0)


class TestRunClosedLoop:
    def test_stage_consistent_tracks_quintic(self):
        masses = MassParams(1.0, 1.0, 1.0)
        gains = ImpedanceParams(1.0, 20.0, 100.0)
        rows, metrics = run_closed_loop(
            ControllerVariant.STAGE_CONSISTENT, masses, IDENTITY_FRAME, gains,
            QUINTIC, NO_CONTACT, ZERO_FORCE, 5.0, 1e-3,
        )
        assert not metrics.diverged
        assert metrics.samples == len(rows) == 5001
        assert metrics.rms_tracking_error.max_abs() <= 1e-4
        assert metrics.max_impedance_residual <= 1e-6
        assert metrics.torque_divergence_rms == 0.0

    def test_rejects_bad_steps(self):
        masses = MassParams(1.0, 1.0, 1.0)
        gains = ImpedanceParams(1.0, 20.0, 100.0)
        with pytest.raises(ValueError):
            run_closed_loop(ControllerVariant.STAGE_CONSISTENT, masses,
                            IDENTITY_FRAME, gains, QUINTIC, NO_CONTACT,
                            ZERO_FORCE, 1.0, 0.0)
        with pytest.raises(ValueError):
            run_closed_loop(ControllerVariant.STAGE_CONSISTENT, masses,
                            IDENTITY_FRAME, gains, QUINTIC, NO_CONTACT,
                            ZERO_FORCE, 0.0, 1e-3)

    def test_deterministic_reruns_are_identical(self):
        masses = MassParams(1.0, 1.0, 1.0)
        gains = ImpedanceParams(1.0, 20.0, 100.0)
        args = (ControllerVariant.MC_PAPER, masses, SKEWED_FRAME, gains,
                QUINTIC, CONTACT, ForcePair(0.5, 0.0), 1.0, 1e-3)
        rows_a, metrics_a = run_closed_loop(*args)
        rows_b, metrics_b = run_closed_loop(*args)
        assert rows_a == rows_b
        assert metrics_a == metrics_b

    def test_identity_transform_collapses_variants_bitwise(self):
        masses = MassParams(1.0, 1.0, 1.0)
        gains = ImpedanceParams(1.0, 20.0, 100.0)
        shared = (masses, IDENTITY_FRAME, gains, QUINTIC, CONTACT,
                  ForcePair(0.5, 0.0), 1.5, 1e-3)
        rows_corr, _ = run_closed_loop(ControllerVariant.CORRECTED, *shared)
        rows_sim, _ = run_closed_loop(ControllerVariant.SIM_PAPER, *shared)
        assert rows_corr == rows_sim

    def test_mc_paper_divergence_metric_is_force_mismatch(self):
        # at the identity transform the applied-vs-oracle torque gap is
        # exactly fe - fed at every step
        masses = MassParams(1.0, 1.0, 1.0)
        gains = ImpedanceParams(1.0, 20.0, 100.0)
        fed = ForcePair(0.5, 0.0)
        rows, metrics = run_closed_loop(
            ControllerVariant.MC_PAPER, masses, IDENTITY_FRAME, gains,
            QUINTIC, CONTACT, fed, 5.0, 1e-3,
        )
        sq = 0.0
        for row in rows:
            dx = row.fex - fed.fex
            dy = row.fey - fed.fey
            sq += dx * dx + dy * dy
        ref = math.sqrt(sq / len(rows))
        assert ref > 0.0
        assert metrics.torque_divergence_rms == pytest.approx(ref, rel=1e-9)

    def test_divergence_is_flagged_not_raised(self):
        # stiff impedance with a coarse step: the discretized error dynamics
        # amplify until the state overflows
        masses = MassParams(1.0, 1.0, 1.0)
        gains = ImpedanceParams(1.0, 0.1, 1e7)
        spec = TrajectorySpec(kind=TrajectoryKind.QUINTIC, start=Vec2(0.0, 0.0),
                              end=Vec2(1.5, 0.0), duration=1.0)
        rows, metrics = run_closed_loop(
            ControllerVariant.STAGE_CONSISTENT, masses, IDENTITY_FRAME, gains,
            spec, NO_CONTACT, ZERO_FORCE, 50.0, 0.1,
        )
        assert metrics.diverged
        assert metrics.samples == len(rows) < 502
        assert not rows[-1].is_finite()
        assert all(r.is_finite() for r in rows[:-1])


class TestEnergySanity:
    @given(st.builds(MassParams,
                     mx=st.floats(0.1, 5.0, allow_nan=False),
                     my=st.floats(0.1, 5.0, allow_nan=False),
                     mp=st.floats(0.1, 5.0, allow_nan=False)),
           st.floats(-3.0, 3.0, allow_nan=False),
           st.floats(-3.0, 3.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_kinetic_energy_non_increasing_without_forcing(self, masses, vx, vy):
        s0 = StageState(Vec2(0.0, 0.0), Vec2(vx, vy))
        samples = integrate(masses, s0, ZERO_TORQUE, ZERO_FORCE, 2.0, 1e-2)
        m = mass_matrix(masses)

        def kinetic(state):
            return 0.5 * (m.m00 * state.qdot.a0 ** 2 + m.m11 * state.qdot.a1 ** 2)

        previous = kinetic(samples[0][1])
        for _t, state in samples[1:]:
            current = kinetic(state)
            assert current <= previous + 1e-9
            previous = current


class TestCompareVariants:
    def test_collapse_with_identity_transform_and_no_forces(self):
        masses = MassParams(1.0, 1.0, 1.0)
        gains = ImpedanceParams(1.0, 20.0, 100.0)
        report = compare_variants(
            ControllerVariant.STAGE_CONSISTENT,
            [ControllerVariant.CORRECTED, ControllerVariant.SIM_PAPER],
            masses, IDENTITY_FRAME, gains, QUINTIC, NO_CONTACT, ZERO_FORCE,
            1.0, 1e-3,
        )
        for variant_report in report.reports:
            assert variant_report.torque_rms_vs_base == 0.0
            assert variant_report.tracking_rms_vs_base == 0.0

    def test_skewed_frame_separates_sim_paper(self):
        masses = MassParams(1.0, 1.0, 1.0)
        gains = ImpedanceParams(1.0, 20.0, 100.0)
        report = compare_variants(
            ControllerVariant.CORRECTED, [ControllerVariant.SIM_PAPER],
            masses, SKEWED_FRAME, gains, QUINTIC, NO_CONTACT, ZERO_FORCE,
            1.0, 1e-3,
        )
        assert report.reports[0].torque_rms_vs_base > 0.0

    def test_mc_paper_gap_equals_force_mismatch_rms(self):
        # same-state torque comparison: the McPaper-vs-Corrected gap along
        # the base trace is exactly the fe - fed mismatch at each state
        masses = MassParams(1.0, 1.0, 1.0)
        gains = ImpedanceParams(1.0, 20.0, 100.0)
        fed = ForcePair(0.5, 0.0)
        report = compare_variants(
            ControllerVariant.CORRECTED, [ControllerVariant.MC_PAPER],
            masses, IDENTITY_FRAME, gains, QUINTIC, CONTACT, fed, 5.0, 1e-3,
        )
        base_rows, _ = run_closed_loop(
            ControllerVariant.CORRECTED, masses, IDENTITY_FRAME, gains,
            QUINTIC, CONTACT, fed, 5.0, 1e-3,
        )
        sq = 0.0
        for row in base_rows:
            q = Vec2(row.x, row.y)
            qdot = Vec2(row.xdot, row.ydot)
            fe = membrane_force(CONTACT, q, qdot)
            dx = fe.fex - fed.fex
            dy = fe.fey - fed.fey
            sq += dx * dx + dy * dy
        ref = math.sqrt(sq / len(base_rows))
        assert ref > 0.0
        assert report.reports[0].torque_rms_vs_base == pytest.approx(ref, rel=1e-9)
