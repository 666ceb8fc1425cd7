import functools
import math
from contextlib import contextmanager, nullcontext
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memprobe import child_peak_rss, window
from microinject.algebra2d import SingularMatrix, Vec2, mat_inv
from microinject.control import (
    ControllerVariant,
    DesiredTrajectoryPoint,
    ImpedanceParams,
    force_control_residual_kernel,
    STAGE_SPACE_VARIANTS,
    torque_law,
)
from microinject.dynamics import (
    ForcePair,
    MassParams,
    StageState,
    ZERO_FORCE,
    ZERO_TORQUE,
    integrate,
    mass_matrix,
    rk4_kernel,
)
from microinject import reference
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


def _is_finite(row):
    """Whether every field of a trace row is finite."""
    return all(map(math.isfinite, row))


class TestTrajectorySpec:
    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError, match="duration"):
            TrajectorySpec(kind=TrajectoryKind.QUINTIC, start=Vec2(0, 0),
                           end=Vec2(1, 1), duration=0.0)

    @pytest.mark.parametrize("duration", [1e-170, 5e-324])
    def test_rejects_a_quintic_duration_whose_square_underflows(self, duration):
        # sample_trajectory would divide by duration * duration == 0.0
        with pytest.raises(ValueError, match="its square underflows to 0"):
            TrajectorySpec(kind=TrajectoryKind.QUINTIC, start=Vec2(0, 0),
                           end=Vec2(1, 1), duration=duration)

    def test_a_quintic_duration_whose_square_is_positive_samples(self):
        spec = TrajectorySpec(kind=TrajectoryKind.QUINTIC, start=Vec2(0, 0),
                              end=Vec2(1, 1), duration=1e-160)
        d = sample_trajectory(spec, 0.0)
        assert (d.qd.a0, d.qd_ddot.a0) == (0.0, 0.0)

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


def test_sample_trajectory_matches_vec2_formulas_bitwise():
    # the float form the closed loop evaluates, against the Vec2 expressions
    rng = random.Random(3)
    for _ in range(300):
        start = Vec2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        duration = rng.uniform(0.1, 5.0)
        t = rng.choice((0.0, duration, rng.uniform(0.0, 2.0 * duration)))
        end = Vec2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        quintic = TrajectorySpec(TrajectoryKind.QUINTIC, start, duration, end=end)
        if t >= duration:
            want = (end, Vec2(0.0, 0.0), Vec2(0.0, 0.0))
        else:
            sigma = t / duration
            s = sigma * sigma * sigma * (10.0 - 15.0 * sigma + 6.0 * sigma * sigma)
            sd = 30.0 * sigma * sigma * (1.0 - sigma) * (1.0 - sigma) / duration
            sdd = (60.0 * sigma * (1.0 - sigma) * (1.0 - 2.0 * sigma)) / (
                duration * duration)
            delta = end - start
            want = (start + delta.scale(s), delta.scale(sd), delta.scale(sdd))
        amp = Vec2(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        frequency = rng.uniform(0.1, 5.0)
        sinusoid = TrajectorySpec(TrajectoryKind.SINUSOID, start, duration,
                                  amplitude=amp, frequency=frequency)
        w = 2.0 * math.pi * frequency
        for spec, (qd, qd_dot, qd_ddot) in (
            (quintic, want),
            (sinusoid, (start + amp.scale(math.sin(w * t)),
                        amp.scale(w * math.cos(w * t)),
                        amp.scale(-w * w * math.sin(w * t)))),
        ):
            d = sample_trajectory(spec, t)
            assert _bits(d) == _bits(DesiredTrajectoryPoint(qd, qd_dot, qd_ddot)), (
                spec, t)


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
        for *_, fex, fey, _, _, _, _ in rows:
            dx = fex - fed.fex
            dy = fey - fed.fey
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
        assert not _is_finite(rows[-1])
        assert all(_is_finite(r) for r in rows[:-1])


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

        def kinetic(xdot, ydot):
            return 0.5 * (m.m00 * xdot ** 2 + m.m11 * ydot ** 2)

        previous = kinetic(*samples[0][3:])
        for _t, _x, _y, xdot, ydot in samples[1:]:
            current = kinetic(xdot, ydot)
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
        for _, x, y, xdot, ydot, *_ in base_rows:
            q = Vec2(x, y)
            qdot = Vec2(xdot, ydot)
            fe = membrane_force(CONTACT, q, qdot)
            dx = fe.fex - fed.fex
            dy = fe.fey - fed.fey
            sq += dx * dx + dy * dy
        ref = math.sqrt(sq / len(base_rows))
        assert ref > 0.0
        assert report.reports[0].torque_rms_vs_base == pytest.approx(ref, rel=1e-9)


def _bits(value):
    """Every float in a result, as float.hex, in field order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if hasattr(value, "_fields"):  # an algebra2d.frozen type
        return [_bits(getattr(value, name)) for name in value._fields]
    return repr(value)


def _pin_scenarios():
    """Seeded scenarios crossing the membrane: Quintic and Sinusoid, each on
    an identity and a skewed frame, and two whose runs diverge.  In the
    first the state overflows.  In the second the membrane's damping
    overflows the contact force at first contact, so each run stays close
    to the others up to the row where it touches, which is flagged, and
    the laws touch on different rows."""
    rng = random.Random(20260)
    scenarios = []
    for kind in TrajectoryKind:
        for skewed in (False, True):
            frame = (FrameParams(rng.uniform(-3.0, 3.0), 0.5, 0.5,
                                 rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0))
                     if skewed else IDENTITY_FRAME)
            start = Vec2(rng.uniform(0.6, 0.9), rng.uniform(-0.5, 0.5))
            if kind is TrajectoryKind.QUINTIC:
                spec = TrajectorySpec(kind, start, 0.15, end=Vec2(
                    rng.uniform(1.2, 1.6), rng.uniform(-0.5, 0.5)))
            else:
                spec = TrajectorySpec(kind, start, 1.0, amplitude=Vec2(
                    rng.uniform(0.3, 0.5), rng.uniform(0.0, 0.3)),
                    frequency=rng.uniform(1.0, 3.0))
            scenarios.append((
                MassParams(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                           rng.uniform(0.5, 2.0)),
                frame,
                ImpedanceParams(rng.uniform(0.5, 2.0), rng.uniform(5.0, 30.0),
                                rng.uniform(50.0, 200.0)),
                spec,
                MembraneModel(rng.uniform(20.0, 80.0), rng.uniform(0.0, 3.0),
                              1.0),
                ForcePair(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
                0.25, 1e-3,
            ))
    scenarios.append((
        MassParams(1.0, 1.0, 1.0), SKEWED_FRAME, ImpedanceParams(1.0, 0.1, 1e7),
        TrajectorySpec(TrajectoryKind.QUINTIC, Vec2(0.0, 0.0), 1.0,
                       end=Vec2(1.5, 0.0)),
        CONTACT, ForcePair(0.5, 0.0), 50.0, 0.1,
    ))
    scenarios.append((
        MassParams(1.0, 1.0, 1.0), SKEWED_FRAME, ImpedanceParams(1.0, 20.0, 100.0),
        TrajectorySpec(TrajectoryKind.QUINTIC, Vec2(0.8, 0.0), 0.15,
                       end=Vec2(1.5, 0.2)),
        MembraneModel(0.0, 1.7e308, 1.0), ForcePair(-5.0, 1.0), 0.25, 1e-3,
    ))
    return scenarios


def test_float_lane_matches_the_kernel_reference_bitwise():
    # the closed loop and compare_variants step in floats with operators
    # built once per run; they must reproduce every bit of the loop that
    # reference builds from the kernels, signed zeros and the non-finite
    # pattern of a diverging row included
    variants = list(ControllerVariant)
    scenarios = _pin_scenarios()
    contact_runs = 0
    for index, scenario in enumerate(scenarios):
        for variant in variants:
            rows, metrics = run_closed_loop(variant, *scenario)
            ref_rows, ref_metrics = reference.closed_loop(variant, *scenario)
            assert _bits(rows) == _bits(ref_rows), (index, variant)
            assert _bits(metrics) == _bits(ref_metrics), (index, variant)
            contact_runs += any(row[7] > 0.0 for row in rows)  # fex
        base = variants[index % len(variants)]
        others = [v for v in variants if v is not base]
        report = compare_variants(base, others, *scenario)
        ref_report = reference.compare(base, others, *scenario)
        assert _bits(report) == _bits(ref_report), index
    assert contact_runs >= 4 * (len(scenarios) - 1)
    assert metrics.diverged and not _is_finite(rows[-1])


def test_rows_whose_sum_overflows_are_not_divergence():
    # fed = 1e308 puts four torques near 1e308 into every row, so each
    # finite row sums to inf; only the field-by-field check may flag a row.
    # McPaper closes its law with fe instead, and the state overflows.
    scenario = (MassParams(1.0, 1.0, 1.0), SKEWED_FRAME,
                ImpedanceParams(1.0, 20.0, 100.0), QUINTIC, CONTACT,
                ForcePair(1e308, 1e308), 0.2, 1e-3)
    for variant in ControllerVariant:
        rows, metrics = run_closed_loop(variant, *scenario)
        ref_rows, ref_metrics = reference.closed_loop(variant, *scenario)
        assert _bits(rows) == _bits(ref_rows), variant
        assert _bits(metrics) == _bits(ref_metrics), variant
        if variant is ControllerVariant.MC_PAPER:
            assert metrics.diverged and not _is_finite(rows[-1])
        else:
            assert not metrics.diverged and metrics.samples == 201
            assert all(_is_finite(row) for row in rows)
            assert not any(math.isfinite(sum(row)) for row in rows)


def _pin_to_reference(base, others, *scenario):
    """``compare_variants``, pinned to ``reference.compare`` by ``float.hex``:
    its report, and every row of each closed loop it runs, which must be
    the rows of the reference's own run of the variant that ran.  Returns
    the report and every run's rows, by the variant that ran."""

    def keeper(traces):
        @contextmanager
        def keep(shared):
            rows = []
            yield rows.extend
            traces.setdefault(shared[0], rows)

        return keep

    traces, ref_traces = {}, {}
    report = compare_variants(base, others, *scenario, keeper(traces))
    ref_report = reference.compare(base, others, *scenario, keeper(ref_traces))
    assert _bits(report) == _bits(ref_report)
    for variant, rows in traces.items():
        assert _bits(rows) == _bits(ref_traces[variant]), variant
    return report, traces


_C, _S, _M, _SC = (ControllerVariant.CORRECTED, ControllerVariant.SIM_PAPER,
                   ControllerVariant.MC_PAPER, ControllerVariant.STAGE_CONSISTENT)


@pytest.mark.parametrize("base, others, scenario_index", [
    (_SC, [_C, _M, _C, _S, _M], 3),   # duplicates in others
    (_M, [_M, _C, _M], 3),            # the base repeated in others
    (_C, [_S, _M, _SC, _S], 1),       # two stage-space variants, not the base's law
    (_SC, [_S, _C, _SC, _C], 4),      # a diverging scenario
    # McPaper's flagged row falls inside the base's finite rows, and the
    # base's inside StageConsistent's, each with a finite gap before it
    (_C, [_M, _SC, _S], 5),
], ids=["duplicates", "base-repeated", "stage-space-pair", "diverging",
        "flagged-rows-inside-the-pairs"])
def test_compare_variants_with_shared_laws_matches_reference_bitwise(
    base, others, scenario_index
):
    # a variant whose torque law already ran reuses that run; the report
    # must be the one a run per variant gives, bit for bit
    scenario = _pin_scenarios()[scenario_index]
    report = compare_variants(base, others, *scenario)
    ref_report = reference.compare(base, others, *scenario)
    assert _bits(report) == _bits(ref_report)
    assert [r.variant for r in report.reports] == others


def _lane_scenarios():
    """Seeded scenarios for the kernel reference: Quintic and Sinusoid, on a
    skewed frame and on the identity frame at alpha = +0.0 and -0.0, with
    the membrane in reach or out of it; then two runs that diverge, the
    state overflowing in one and the contact force in the other; a start
    whose state and fed are all -0.0, which leaves contact; a start at
    alpha = pi where McPaper's y-torque is -0.0 before its tail fe1 = 0.0
    is added; and a start inside a membrane whose spring and damper
    overflow to inf - inf, which max(0.0, ...) floors to 0.0."""
    rng = random.Random(25)
    scenarios = []
    for draw in range(12):
        frame = (
            FrameParams(rng.uniform(-3.0, 3.0), 0.5, 0.5,
                        rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0)),
            FrameParams(0.0, 0.5, 0.5, 1.0, 1.0),
            FrameParams(-0.0, 0.5, 0.5, 1.0, 1.0),
        )[draw % 3]
        start = Vec2(rng.uniform(0.6, 0.9), rng.uniform(-0.5, 0.5))
        if draw % 2:
            spec = TrajectorySpec(TrajectoryKind.QUINTIC, start, 0.15, end=Vec2(
                rng.uniform(1.2, 1.6), rng.uniform(-0.5, 0.5)))
        else:
            spec = TrajectorySpec(TrajectoryKind.SINUSOID, start, 1.0,
                                  amplitude=Vec2(rng.uniform(0.3, 0.5),
                                                 rng.uniform(0.0, 0.3)),
                                  frequency=rng.uniform(1.0, 3.0))
        contact_x = 1.0 if draw % 4 < 2 else 50.0
        scenarios.append((
            MassParams(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                       rng.uniform(0.5, 2.0)),
            frame,
            ImpedanceParams(rng.uniform(0.5, 2.0), rng.uniform(5.0, 30.0),
                            rng.uniform(50.0, 200.0)),
            spec,
            MembraneModel(rng.uniform(20.0, 80.0), rng.uniform(0.0, 3.0),
                          contact_x),
            ForcePair(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            0.25, 1e-3,
        ))
    scenarios.extend(_pin_scenarios()[4:])
    scenarios.append((
        MassParams(1.0, 1.0, 1.0), FrameParams(-0.0, 0.5, 0.5, 1.0, 1.0),
        ImpedanceParams(1.0, 20.0, 100.0),
        TrajectorySpec(TrajectoryKind.QUINTIC, Vec2(-0.0, -0.0), 0.2,
                       end=Vec2(-1.0, -0.5)),
        MembraneModel(50.0, 2.0, -0.5), ForcePair(-0.0, -0.0), 0.25, 1e-3,
    ))
    scenarios.append((
        MassParams(1.0, 1.0, 1.0), FrameParams(math.pi, 0.5, 0.5, 2.0, 4.0),
        ImpedanceParams(1.0, 20.0, 100.0),
        TrajectorySpec(TrajectoryKind.QUINTIC, Vec2(0.0, 0.0), 0.2,
                       end=Vec2(-1.0, -0.5)),
        NO_CONTACT, ForcePair(0.5, 0.25), 0.05, 1e-3,
    ))
    scenarios.append((
        MassParams(1.0, 1.0, 1.0), SKEWED_FRAME, ImpedanceParams(1.0, 20.0, 100.0),
        TrajectorySpec(TrajectoryKind.SINUSOID, Vec2(5.0, 0.0), 1.0,
                       amplitude=Vec2(-1.0, 0.2), frequency=1.0),
        MembraneModel(1e308, 1e308, 1.0), ForcePair(0.5, 0.0), 0.1, 1e-3,
    ))
    return scenarios


def test_closed_loop_rows_are_the_kernels_rows_bitwise():
    # the lane evaluates the laws inline; every row, metric and gap must be
    # what reference gives, which steps the number-generic kernels a state
    # at a time
    variants = list(ControllerVariant)
    contact = no_contact = diverged = 0
    for index, scenario in enumerate(_lane_scenarios()):
        for base in variants:
            others = [v for v in variants if v is not base]
            _, traces = _pin_to_reference(base, others, *scenario)
            for rows in traces.values():
                touched = any(row[7] > 0.0 for row in rows)
                contact += touched
                no_contact += not touched
                diverged += not _is_finite(rows[-1])
    assert contact and no_contact and diverged
    *_, signed_zero, at_pi, overflowing = _lane_scenarios()
    rows, _ = run_closed_loop(_SC, *signed_zero)
    assert {v.hex() for v in rows[0][1:5]} == {"-0x0.0p+0"}
    law = torque_law(_M, *at_pi[:2])
    assert (law.l10 * 0.0 + law.l11 * 0.0).hex() == "-0x0.0p+0"
    rows, _ = run_closed_loop(_M, *at_pi)
    assert [v.hex() for v in rows[0][3:5]] == ["-0x0.0p+0"] * 2
    assert rows[0][10].hex() == "0x0.0p+0"
    rows, _ = run_closed_loop(_SC, *overflowing)
    assert rows[0][1] > 1.0 and rows[0][7] == 0.0


def _record_lanes(monkeypatch):
    """The lanes ``run_variants`` starts, recorded as they start: per lane,
    the variant whose torque law it steps, the variant of its oracle's law
    (None when it steps the oracle's law) and the variants whose laws it
    scores as rivals."""
    import microinject.sim as sim

    build, lane = sim.torque_law, sim._lane
    lanes = []

    class Tagged(sim.TorqueLaw):
        """A torque law that names the variant it was built for."""

    def tagging_build(variant, *args):
        law = Tagged(*build(variant, *args))
        law.variant = variant
        return law

    def recording_lane(law, oracle, rivals, *args):
        lanes.append((law.variant, oracle and oracle.variant,
                      [rival.variant for rival in rivals]))
        return lane(law, oracle, rivals, *args)

    monkeypatch.setattr(sim, "torque_law", tagging_build)
    monkeypatch.setattr(sim, "_lane", recording_lane)
    return lanes


def test_compare_variants_runs_each_torque_law_once(monkeypatch):
    import microinject.sim as sim

    lanes = _record_lanes(monkeypatch)
    scenario = _pin_scenarios()[3]
    report = sim.compare_variants(_C, [_S, _SC, _M], *scenario)
    # SimPaper and StageConsistent share one law, so one of them runs; the
    # base run scores the laws of the other runs but the oracle's, whose
    # gap is its torque divergence; they score none
    assert lanes == [(_C, _SC, [_M]), (_S, None, []), (_M, _SC, [])]
    assert report.reports[0].metrics is report.reports[1].metrics


@pytest.mark.parametrize("base, others, scenario_index", [
    (_SC, [_C, _S, _M], 0),
    (_C, [_S, _M, _SC], 1),
    (_M, [_M, _C], 3),
    (_SC, [_S, _C, _SC, _C], 4),      # a diverging scenario
], ids=["stage-consistent", "corrected", "base-repeated", "diverging"])
def test_compare_variants_solves_c_once_per_state(base, others, scenario_index):
    # every row of every closed loop that runs holds the torques of one c,
    # solved at its state, and the other laws are scored on the base run's
    # c, not on a c solved again: the kernels, given the c that
    # commanded_accel_kernel solves at each row, give every row and gap
    report, traces = _pin_to_reference(base, others,
                                    *_pin_scenarios()[scenario_index])
    # a reused run shares its metrics object with the run it reuses
    runs = {id(m): m.samples
            for m in [report.base_metrics, *(r.metrics for r in report.reports)]}
    assert sum(map(len, traces.values())) == sum(runs.values())


@pytest.mark.parametrize("fed, amplitude, residual, imp_max", [
    # McPaper's tail is fe, so the stage feels tau - fed = ... + 1.75e308 on
    # x, which M_inv (1/0.6) overflows: the first stage is (inf, finite)
    ((-1.75e308, 0.5), (0.4, 0.2), ["-inf", "finite"], "inf"),
    # the start's y-velocity, 1e307, puts McPaper's tau - fed past the
    # float limit on y: the first stage's x-component is 0.0 * inf, NaN,
    # and a NaN x-residual hides the y one from the fold
    ((0.5, -1.75e308), (0.4, 1e307), ["nan", "-inf"], "0x0.0p+0"),
    # the same on x: the x-residual is -inf and the y one NaN
    ((-1.75e308, 0.5), (1e307, 0.2), ["-inf", "nan"], "inf"),
], ids=["inf", "nan-hides-inf", "inf-then-nan"])
def test_impedance_residual_folds_inf_and_nan_as_the_kernels(
    fed, amplitude, residual, imp_max
):
    # light masses (M_inv = diag(1/0.6, 1/0.4)) and a force near the float
    # limit give a finite first row whose first-stage acceleration is not
    # finite; the lane folds its residual into max_impedance_residual as
    # max(imp_max, max(abs(r0), abs(r1))) does, bit for bit
    import microinject.sim as sim

    masses, gains = MassParams(0.2, 0.2, 0.2), ImpedanceParams(1.0, 20.0, 100.0)
    spec = TrajectorySpec(TrajectoryKind.SINUSOID, Vec2(0.8, 0.0), 1.0,
                          amplitude=Vec2(*amplitude), frequency=0.5 / math.pi)
    fed = ForcePair(*fed)
    report, traces = _pin_to_reference(_SC, [_C, _S, _M], masses, SKEWED_FRAME,
                                    gains, spec, CONTACT, fed, 0.05, 1e-3)
    # McPaper's one finite row, re-scored from the kernels
    (t, x, y, xdot, ydot, _, _, fe0, fe1, tau0, tau1, _, _), flagged = (
        traces[_M])
    assert not _is_finite(flagged)
    qd0, qd1, qv0, qv1, qa0, qa1 = sim._trajectory_kernel(spec)(t)
    step = rk4_kernel(mat_inv(mass_matrix(masses)))
    *_, a0, a1 = step(tau0 - fed.fex, tau1 - fed.fey, x, y, xdot, ydot, 1e-3)
    r = force_control_residual_kernel(gains)(
        qd0 - x, qd1 - y, qv0 - xdot, qv1 - ydot, qa0 - a0, qa1 - a1, fe0, fe1)
    assert [v.hex() if not math.isfinite(v) else "finite" for v in r] == residual
    mc = next(rep.metrics for rep in report.reports if rep.variant is _M)
    assert mc.samples == 2 and mc.max_impedance_residual.hex() == imp_max


_MAX = 1.7976931348623157e308


@pytest.mark.parametrize("fed, amplitude, frequency, flagged, torques", [
    # the start's y-velocity is 1e300 and fed's y-component the largest
    # float: McPaper, whose y-tail is 0.0, keeps its torques finite beside
    # an infinite oracle y-torque, and Corrected, whose tail is fed, has an
    # infinite y-torque beside a finite x-torque
    ((0.5, _MAX), (0.4, 1e300), 0.5 / math.pi, 0,
     {_M: [True, True, True, False], _C: [True, False, True, False]}),
    # the same on x: only McPaper's oracle x-torque is infinite
    ((_MAX, 0.5), (1e300, 0.2), 0.5 / math.pi, 0,
     {_M: [True, True, False, True]}),
    # at row 1 McPaper's y-torque overflows, and not its oracle's, which
    # weighs c by M instead of M@T and adds fed; the other three torques
    # sum to a finite -1.6e308
    ((0.5, -1e307), (0.4, 1e303), 50.0, 1,
     {_M: [True, False, True, True]}),
], ids=["oracle-y", "oracle-x", "law-y"])
def test_a_row_with_one_torque_not_finite_is_flagged(
    fed, amplitude, frequency, flagged, torques
):
    # the lane tests a row for divergence by the sum of its four torques;
    # a row with any one of them not finite, and its state finite, is the
    # run's flagged row, as a field-by-field test finds it
    spec = TrajectorySpec(TrajectoryKind.SINUSOID, Vec2(0.8, 0.0), 1.0,
                          amplitude=Vec2(*amplitude), frequency=frequency)
    scenario = (MassParams(1.0, 1.0, 1.0), SKEWED_FRAME,
                ImpedanceParams(1.0, 20.0, 100.0), spec, CONTACT,
                ForcePair(*fed), 0.05, 1e-3)
    _, traces = _pin_to_reference(_SC, [_C, _S, _M], *scenario)
    for variant, finite in torques.items():
        rows = traces[variant]
        assert len(rows) == flagged + 1, variant
        assert all(map(math.isfinite, rows[-1][:9])), variant
        assert [math.isfinite(v) for v in rows[-1][9:13]] == finite, variant


@pytest.mark.parametrize("base", [_C, _M])
def test_stage_consistent_gap_is_the_base_runs_oracle_gap(base):
    # the oracle is the stage-consistent law at the same c and state, so the
    # stage-space gaps equal the base run's torque divergence bit for bit
    for index, scenario in enumerate(_pin_scenarios()):
        report = compare_variants(base, [_M, _SC, _C, _S], *scenario)
        want = report.base_metrics.torque_divergence_rms.hex()
        assert [r.torque_rms_vs_base.hex() for r in report.reports
                if r.variant in (_SC, _S)] == [want, want], index


def test_closed_loop_evaluates_the_trajectory_and_contact_once_per_row(
    monkeypatch,
):
    import microinject.sim as sim

    calls = {"desired": [0, 0]}  # builds, evaluations

    def counting(name, build):
        def counting_build(*args):
            kernel = build(*args)
            calls[name][0] += 1

            def counted(*args):
                calls[name][1] += 1
                return kernel(*args)

            return counted

        return counting_build

    monkeypatch.setattr(sim, "_trajectory_kernel",
                        counting("desired", sim._trajectory_kernel))
    lanes = _record_lanes(monkeypatch)
    scenario = _pin_scenarios()[2]
    rows, metrics = sim.run_closed_loop(_C, *scenario)
    assert not metrics.diverged
    # the start state is the first row's desired point
    assert calls == {"desired": [1, len(rows)]}
    # the lane evaluates the contact force inline, once a row, at the row's
    # state
    assert len(lanes) == 1
    membrane = scenario[4]
    assert any(row[7] > 0.0 for row in rows)
    assert [(row[7].hex(), row[8].hex()) for row in rows] == [
        (fe.fex.hex(), fe.fey.hex()) for fe in (
            membrane_force(membrane, Vec2(row[1], row[2]), Vec2(row[3], row[4]))
            for row in rows)]


@pytest.mark.parametrize("base", [_C, _M])
@pytest.mark.parametrize("scenario_index", [1, 4], ids=["skewed", "diverging"])
def test_compare_variants_evaluates_the_oracle_law_once_per_state(
    monkeypatch, base, scenario_index
):
    # a base run of another law evaluates the stage-consistent law as its
    # oracle at every row; it must not evaluate it again as a rival
    import microinject.sim as sim

    lanes = _record_lanes(monkeypatch)
    others = [_S, _SC, _M, _C]
    report = sim.compare_variants(base, others, *_pin_scenarios()[scenario_index])
    runs = {base: report.base_metrics,
            **{r.variant: r.metrics for r in report.reports}}
    # on a skewed frame the stage-space variants share one law
    law = {v: _SC if v in STAGE_SPACE_VARIANTS else v for v in ControllerVariant}
    # a lane evaluates its own law and its oracle's once a row, and each
    # rival's on its finite rows
    evaluations = {}
    for applied, oracle, rivals in lanes:
        rows = runs[applied].samples
        finite_rows = rows - runs[applied].diverged
        for evaluated, n in [(applied, rows),
                             *([(oracle, rows)] if oracle else []),
                             *((rival, finite_rows) for rival in rivals)]:
            evaluations[law[evaluated]] = evaluations.get(law[evaluated], 0) + n
        assert _SC not in [law[rival] for rival in rivals]
    base_rows = report.base_metrics.samples
    finite_base_rows = base_rows - report.base_metrics.diverged
    rival = _M if base is _C else _C
    rival_rows = next(r.metrics.samples for r in report.reports
                      if r.variant is rival)
    stage_rows = report.reports[0].metrics.samples
    # every run evaluates the stage-consistent law once a row, as its own
    # law or as its oracle; the base run scores the rival law on its finite
    # rows, and each run evaluates its own law once a row
    assert evaluations == {
        _SC: base_rows + stage_rows + rival_rows,
        base: base_rows,
        rival: rival_rows + finite_base_rows,
    }


def _compare_sinusoid(t_end):
    """The compare_sinusoid benchmark scenario, run to ``t_end``."""
    return (MassParams(1.0, 1.0, 1.0),
            FrameParams(alpha=math.pi / 6, dx=0.5, dy=0.5, fx=2.0, fy=4.0),
            ImpedanceParams(1.0, 20.0, 100.0),
            TrajectorySpec(TrajectoryKind.SINUSOID, Vec2(0.8, 0.0), 10.0,
                           amplitude=Vec2(0.4, 0.2), frequency=0.5),
            MembraneModel(50.0, 2.0, 1.0), ForcePair(0.5, 0.0), t_end, 1e-3)


def test_compare_variants_keeps_positions_not_traces():
    # no run's trace (about 0.47 KB a row) is kept, nor any position, over
    # the base run's blocks 50 to 80, with all three runs stepping
    with window(_SC) as (keeper, reading):
        report = compare_variants(_SC, [_C, _S, _M], *_compare_sinusoid(10.0),
                                  keeper=keeper)
    assert report.base_metrics.samples == 10_001
    assert not any(r.metrics.diverged for r in report.reports)
    assert reading["per_row"] <= 1.0 and reading["peak"] <= 0.5e6, reading


def test_compare_variants_memory_does_not_grow_with_the_run():
    # ten times the rows, the same peak resident memory to within 3 MB:
    # this also sees what is allocated before the window above opens
    peaks = {}
    for t_end in (10.0, 100.0):
        report, peaks[t_end] = child_peak_rss(functools.partial(
            compare_variants, _SC, [_M], *_compare_sinusoid(t_end)))
        assert report.reports[0].metrics.samples == round(t_end * 1000) + 1
    assert abs(peaks[100.0] - peaks[10.0]) <= 3 * 1024, peaks


_SHARED = [_S, _C, _SC, _S, _M, _C]


def _discard(shared):
    """A ``run_variants`` keeper whose sink drops every block of rows."""
    return nullcontext(lambda block: None)


def test_run_variants_runs_each_torque_law_once_and_reuses_its_run(
    monkeypatch,
):
    import microinject.sim as sim

    lanes = _record_lanes(monkeypatch)
    scenario = _pin_scenarios()[3]
    traces = {}

    def keeper(shared):
        traces[shared[0]] = rows = []
        return nullcontext(rows.extend)

    runs = sim.run_variants(_SHARED, *scenario, keeper=keeper)
    # without torque_gaps no run evaluates another law
    assert lanes == [(_S, None, []), (_C, _SC, []), (_M, _SC, [])]
    assert [variant for variant, _, _ in runs] == _SHARED
    assert [source for _, source, _ in runs] == [_S, _C, _S, _S, _M, _C]
    # each law has one keeper, by the variant that runs it, and every
    # variant of the law, a repeated one included, reports that run
    assert list(traces) == [_S, _C, _M]
    ran_metrics = {variant: runs[_SHARED.index(variant)][2]
                   for variant in traces}
    for _, source, metrics in runs:
        assert metrics is ran_metrics[source]
    for variant, rows in traces.items():
        ref_rows, ref_metrics = run_closed_loop(variant, *scenario)
        assert _bits(rows) == _bits(ref_rows)
        assert _bits(ran_metrics[variant]) == _bits(ref_metrics)


class _Rows(list):
    """A trace that a weak reference can watch."""


def test_run_variants_keeps_no_rows_once_the_consumer_drops_them():
    import microinject.sim as sim

    traces, handed, lengths = [], [], {}

    @contextmanager
    def keeper(shared):
        handed.append(shared)
        rows = _Rows()
        traces.append(weakref.ref(rows))
        yield rows.extend
        # the keeper drops its trace as it exits
        lengths[shared[0]] = len(rows)

    runs = sim.run_variants(_SHARED, *_pin_scenarios()[3], keeper=keeper)
    # one walk handed each keeper every row of its run, and once
    # run_variants has returned no trace is left: it holds no row
    assert lengths == {source: metrics.samples for _, source, metrics in runs}
    assert len(traces) == 3
    assert [ref() for ref in traces] == [None] * 3
    # each keeper is handed the distinct variants of its law, the one that
    # runs it first
    assert handed == [[_S, _SC], [_C], [_M]]


@pytest.mark.parametrize("case", ["bad-grid", "overflowing-sinusoid",
                                  "singular-frame"])
def test_run_variants_raises_when_called_before_entering_a_keeper(case):
    import microinject.sim as sim

    masses, frame, gains, spec, membrane, fed, t_end, dt = _pin_scenarios()[3]
    error, message = ValueError, None
    if case == "bad-grid":
        dt, message = 0.0, r"^dt must be > 0$"
    elif case == "overflowing-sinusoid":
        spec = spec._replace(frequency=1.7976931348623157e308)
        message = r"^frequency is too large for a run to t = "
    else:
        # det T = 1, but T fails mat_inv's scale-relative cutoff, which
        # Corrected's law meets as it is bound
        frame, error = FrameParams(0.0, 1.0, 1.0, 1e7, 1e-7), SingularMatrix
    entered = []

    def keeper(shared):
        entered.append(shared)
        return _discard(shared)

    # the call itself raises: nothing is left to step for the error
    with pytest.raises(error, match=message):
        sim.run_variants([_SC, _C, _M], masses, frame, gains, spec, membrane,
                         fed, t_end, dt, keeper=keeper)
    assert entered == []


@pytest.mark.parametrize("scenario_index", [3, 4], ids=["skewed", "diverging"])
def test_compare_variants_hands_every_row_of_each_run_to_its_keeper(
    scenario_index,
):
    scenario = _pin_scenarios()[scenario_index]
    kept, handed = {}, []

    @contextmanager
    def keeper(shared):
        handed.append(shared)
        assert shared[0] not in kept
        kept[shared[0]] = rows = []
        yield rows.extend

    report = compare_variants(_SC, [_C, _S, _M], *scenario, keeper)
    # SimPaper reuses StageConsistent's run, so it has no keeper of its
    # own: the keeper of that run is handed both
    assert list(kept) == [_SC, _C, _M]
    assert handed == [[_SC, _S], [_C], [_M]]
    for variant, rows in kept.items():
        ref_rows, _ = run_closed_loop(variant, *scenario)
        assert _bits(rows) == _bits(ref_rows)
    # the keeper changes nothing in the report, and no report holds what
    # the keeper kept
    assert _bits(report) == _bits(
        compare_variants(_SC, [_C, _S, _M], *scenario))


def test_compare_variants_raises_the_error_of_its_keepers_sink(tmp_path):
    # the keeper's with block has exited, closing its file, by the time
    # the error reaches the caller
    class SinkFailed(Exception):
        pass

    files, exits = [], []

    @contextmanager
    def keeper(shared):
        variant = shared[0]
        blocks = []

        def sink(block):
            blocks.append(block)
            if len(blocks) == 2:
                raise SinkFailed(variant)
            fh.write(f"{len(block)}\n")

        try:
            with open(tmp_path / f"{variant.value}.txt", "w") as fh:
                files.append(fh)
                yield sink
        finally:
            exits.append(variant)

    scenario = _pin_scenarios()[3]
    with pytest.raises(SinkFailed) as info:
        compare_variants(_SC, [_C, _S, _M], *scenario, keeper)
    # every keeper is entered before the walk; the walk ends at the first
    # sink that fails, StageConsistent's on the second block, and every
    # keeper has exited, last entered first
    assert info.value.args == (_SC,)
    assert exits == [_M, _C, _SC]
    assert len(files) == 3 and all(fh.closed for fh in files)
    # each run's first block was written before the second one failed
    import microinject.sim as sim

    for variant in (_SC, _C, _M):
        assert (tmp_path / f"{variant.value}.txt").read_text() == (
            f"{sim._BLOCK_ROWS}\n")


# A skewed-frame scenario in which the transform-weighted runs diverge at
# first contact (the membrane's damping overflows the contact force) and
# the stage-space runs never touch: McPaper's flagged row is its 97th,
# Corrected's its 99th, both in the second block of rows.
_DIVERGING_PAIRS = (
    MassParams(1.0, 1.0, 1.0),
    FrameParams(alpha=math.pi / 6, dx=0.5, dy=0.5, fx=2.0, fy=4.0),
    ImpedanceParams(1.0, 20.0, 100.0),
    TrajectorySpec(TrajectoryKind.QUINTIC, Vec2(0.8, 0.0), 0.15,
                   end=Vec2(0.98, 0.2)),
    MembraneModel(0.0, 1.7e308, 1.0), ForcePair(-5.0, 1.0), 0.25, 1e-3,
)

_STAGE_METRICS = [['0x1.8e590c7248b9ap-12', '0x1.badbff34a9434p-12'],
                  '0x1.7800000000000p-47', '0x0.0p+0', '251', 'False']
_CORRECTED_METRICS = [['0x1.5d23a0c1b5a0cp-5', '0x1.113858059955ap-5'],
                      '0x1.d7111940b05f9p+5', '0x1.0dc14c3c52918p+7', '99',
                      'True']
_MC_METRICS = [['0x1.64a0e905a943dp-5', '0x1.0f1c07232e0bap-5'],
               '0x1.e0a0b246e56f1p+5', '0x1.0dcca8f7f7faep+7', '97', 'True']


@pytest.mark.parametrize("base, others, pinned", [
    # the base diverges: the pairs stop at its finite rows
    (_C, [_SC, _M, _S], [
        repr(_C), _CORRECTED_METRICS, [
            [repr(_SC), _STAGE_METRICS,
             '0x1.0dc14c3c52918p+7', '0x1.bfa06e4cff6a4p-5'],
            [repr(_M), _MC_METRICS,
             '0x1.465655f122ff6p+2', '0x1.873c28e64a8acp-10'],
            [repr(_S), _STAGE_METRICS,
             '0x1.0dc14c3c52918p+7', '0x1.bfa06e4cff6a4p-5'],
        ]]),
    # other variants diverge: each pair stops at that variant's finite rows
    (_SC, [_C, _S, _M], [
        repr(_SC), _STAGE_METRICS, [
            [repr(_C), _CORRECTED_METRICS,
             '0x1.2779fa2b746e9p+7', '0x1.bfa06e4cff6a4p-5'],
            [repr(_S), _STAGE_METRICS, '0x0.0p+0', '0x0.0p+0'],
            [repr(_M), _MC_METRICS,
             '0x1.27a643a256bd0p+7', '0x1.c45bd9826f691p-5'],
        ]]),
], ids=["base-diverges", "others-diverge"])
def test_compare_variants_with_diverging_runs_matches_pinned_bits(
    base, others, pinned
):
    # pinned from the comparison that kept each run's positions and paired
    # them once the runs had ended
    assert _bits(compare_variants(base, others, *_DIVERGING_PAIRS)) == pinned


@pytest.mark.parametrize("block_rows", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("base, others, scenario", [
    (_C, [_SC, _M, _S], _DIVERGING_PAIRS),
    (_SC, [_C, _S, _M], _DIVERGING_PAIRS),
    (_SC, [_S, _C, _SC, _C], _pin_scenarios()[4]),
    (_C, [_M, _SC, _S], _pin_scenarios()[5]),
], ids=["base-diverges", "others-diverge", "all-diverge", "flagged-rows"])
def test_compare_variants_pairs_blocks_of_any_size_as_whole_runs(
    monkeypatch, block_rows, base, others, scenario
):
    # the tracking gaps are folded a block at a time: wherever a block
    # ends, and wherever a run's flagged row falls in it, the report is the
    # one whole runs paired row by row give
    import microinject.sim as sim

    monkeypatch.setattr(sim, "_BLOCK_ROWS", block_rows)
    report = compare_variants(base, others, *scenario)
    assert _bits(report) == _bits(reference.compare(base, others, *scenario))


@pytest.mark.parametrize("variants", [
    [_C], [_SC, _S], [_S, _C, _SC, _S, _M, _C], list(ControllerVariant),
], ids=["one-law", "one-shared-law", "three-laws", "all-variants"])
@pytest.mark.parametrize("scenario_index", [1, 3])
def test_run_variants_evaluates_the_trajectory_once_per_grid_time(
    monkeypatch, variants, scenario_index
):
    import microinject.sim as sim

    scenario = _pin_scenarios()[scenario_index]
    build = sim._trajectory_kernel
    times = []

    def counting_build(spec):
        desired = build(spec)

        def counted(t):
            times.append(t)
            return desired(t)

        return counted

    monkeypatch.setattr(sim, "_trajectory_kernel", counting_build)
    runs = sim.run_variants(variants, *scenario, keeper=_discard)
    want = [t for t, _ in sim.step_grid(*scenario[-2:])]
    assert [t.hex() for t in times] == [t.hex() for t in want]
    assert {m.samples for _, _, m in runs} == {len(want)}


@pytest.mark.parametrize("alpha", [0.0, -0.0], ids=["+0", "-0"])
@pytest.mark.parametrize("scenario_index", [0, 3], ids=["quintic", "sinusoid"])
def test_corrected_at_the_identity_frame_is_the_stage_space_run(
    monkeypatch, alpha, scenario_index
):
    # at alpha = +-0.0 and fx = fy = 1 Corrected binds L = M and N = B
    # exactly, so its run is StageConsistent's bit for bit, and run_variants
    # reuses that run
    masses, _, *rest = _pin_scenarios()[scenario_index]
    frame = FrameParams(alpha=alpha, dx=0.5, dy=0.5, fx=1.0, fy=1.0)
    scenario = (masses, frame, *rest)
    rows_c, metrics_c = run_closed_loop(_C, *scenario)
    rows_sc, metrics_sc = run_closed_loop(_SC, *scenario)
    assert _bits(rows_c) == _bits(rows_sc)
    assert _bits(metrics_c) == _bits(metrics_sc)
    assert any(row[7] > 0.0 for row in rows_c)  # it touches the membrane
    lanes = _record_lanes(monkeypatch)
    import microinject.sim as sim

    runs = sim.run_variants([_SC, _C, _M, _S], *scenario, keeper=_discard)
    assert lanes == [(_SC, None, []), (_M, _SC, [])]
    assert [source for _, source, _ in runs] == [_SC, _SC, _M, _SC]
    assert _bits(runs[1][2]) == _bits(metrics_c)
