import hashlib
import itertools
import math

import numpy as np
import pytest

from microinject import control, frames, verify
from microinject.algebra2d import Mat2, Vec2, fold_worst, mat_vec_mul
from microinject.control import (
    ControllerVariant,
    DesiredTrajectoryPoint,
    ErrorState,
    ImpedanceParams,
    PreconditionViolated,
    implication_residual,
    torque_controller,
)
from microinject.dynamics import (
    ForcePair,
    MassParams,
    free_response_kernel,
    image_space_operators,
)
from microinject.frames import FrameParams

# SHA-256 of the "name passed worst.hex() trials" lines of run_suite("all", 0)
# at default trials: the verify_all digest in perfbench/pins.json.
SEED_0_SHA256 = "6a5b56f2cf19f562ac79c8f1490738349e71ea560dc70322f0b21707cc449862"
# The same lines with " detail" appended, at seed 0 (default trials) and at
# seed 7 with 37 trials.  Code changes that are not meant to change a verdict
# must reproduce these digests; update one only with an intended change.
SEED_0_WITH_DETAIL_SHA256 = (
    "135e90efcedf5f307b90b7adc19271bb21fa3062ecb126394a953e6f087abd64")
SEED_7_TRIALS_37_WITH_DETAIL_SHA256 = (
    "9d74ae19c1f6f415a74f21d36e257fa00571bce31540ac645d53a4e2d1dc4774")
# The same lines of each lane suite at seed 3 with 2500 trials, three
# chunks of lanes, taken from the per-trial suites the lanes replaced.  The
# frames worst values are quantized to ulps and repeat across seeds, so
# tests/test_frames.py checks the lane maps bitwise against the float ones.
SEED_3_TRIALS_2500_WITH_DETAIL_SHA256 = {
    "frames":
        "2f55e9065b125d8c540568d5020f874583759ff1393d3f61108c588538f54a6b",
    "implication":
        "a4c7d797da2b964881d77ea382d31a36a1fbb9b4798f9a2ab98034524fe67fcf",
    "discrepancy":
        "35501740f6445c23f4c34a59e2f6d6b2471835052cdbfcd72f60a7166edae252",
    "dynamics":
        "88537b10c3391a1a4981593a2036dec47ad0cd80bb76454be5e436730abd11f5",
}


def digest(results, with_detail):
    lines = "".join(
        f"{r.name} {r.passed} {r.worst.hex()} {r.trials}"
        + (f" {r.detail}" if with_detail else "") + "\n"
        for r in results
    )
    return hashlib.sha256(lines.encode()).hexdigest()


def test_default_ensembles_reproduce_pinned_results():
    results = verify.run_suite("all", 0)
    assert digest(results, with_detail=False) == SEED_0_SHA256
    assert digest(results, with_detail=True) == SEED_0_WITH_DETAIL_SHA256


def test_small_ensemble_on_another_seed_reproduces_pinned_results():
    results = verify.run_suite("all", 7, 37)
    assert digest(results, with_detail=True) == SEED_7_TRIALS_37_WITH_DETAIL_SHA256


@pytest.mark.parametrize("suite", sorted(SEED_3_TRIALS_2500_WITH_DETAIL_SHA256))
def test_control_suites_over_three_chunks_reproduce_pinned_results(suite):
    assert 2 * verify._CHUNK_ROWS < 2500 < 3 * verify._CHUNK_ROWS
    results = verify.run_suite(suite, 3, 2500)
    assert (digest(results, with_detail=True)
            == SEED_3_TRIALS_2500_WITH_DETAIL_SHA256[suite])


class RecordingGenerator:
    """Delegates to a numpy Generator and records the size of each draw."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.sizes = []

    def uniform(self, low, high, size=None):
        self.sizes.append(size)
        return self.rng.uniform(low, high, size)

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


def test_chunked_rows_equal_sequential_scalar_draws():
    bounds = (verify._CONTROL_CASE_BOUNDS + verify._FRAME_BOUNDS
              + verify._LAMBDA_BOUNDS)
    assert len(bounds) == 26
    n = 2 * verify._CHUNK_ROWS + 5
    assert n % verify._CHUNK_ROWS != 0

    recorder = RecordingGenerator(3)
    chunks = list(verify._draw_rows(recorder, bounds, n))
    assert recorder.sizes == [(verify._CHUNK_ROWS, 26), (verify._CHUNK_ROWS, 26),
                              (5, 26)]
    assert [c.shape for c in chunks] == [(26, verify._CHUNK_ROWS),
                                         (26, verify._CHUNK_ROWS), (26, 5)]
    assert all(c.dtype == np.float64 for c in chunks)

    scalar = np.random.Generator(np.random.PCG64(3))
    for columns in chunks:
        for trial in range(columns.shape[1]):
            want = [float(scalar.uniform(lo, hi)) for lo, hi in bounds]
            got = [float(column[trial]) for column in columns]
            assert [v.hex() for v in got] == [v.hex() for v in want]


# the column bounds of the rows each control suite draws
DRAWN_ROW_BOUNDS = {
    "implication": verify._CONTROL_CASE_BOUNDS + verify._FRAME_BOUNDS,
    "discrepancy": (verify._CONTROL_CASE_BOUNDS + verify._FRAME_BOUNDS
                    + verify._LAMBDA_BOUNDS),
}


@pytest.mark.parametrize("suite", sorted(DRAWN_ROW_BOUNDS))
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_draw_rows_equal_one_uniform_call_per_chunk(suite, seed):
    # the in-place scaling of one random fill must give every bit of the
    # rng.uniform(lo, hi, shape) call it replaces, a partial last chunk too
    bounds = DRAWN_ROW_BOUNDS[suite]
    n = 2 * verify._CHUNK_ROWS + 37
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    reference = verify._rng(seed)
    chunks = list(verify._draw_rows(verify._rng(seed), bounds, n))
    assert [c.shape[1] for c in chunks] == [verify._CHUNK_ROWS] * 2 + [37]
    for columns in chunks:
        want = np.ascontiguousarray(
            reference.uniform(lo, hi, (columns.shape[1], len(bounds))).T)
        assert columns.dtype == want.dtype == np.float64
        assert columns.flags.c_contiguous
        assert columns.shape == want.shape
        assert columns.tobytes() == want.tobytes()


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
@pytest.mark.parametrize("trials", [0, -3])
def test_non_positive_trials_are_rejected(suite, trials):
    with pytest.raises(ValueError, match="trials must be > 0"):
        verify.run_suite(suite, 0, trials)


def nan_in_trial(factory, trial, variant=None, both=False):
    """Wrap a factory of kernels, or of matrices, so that what it makes
    gives NaN for trial ``trial`` as its second component, a NaN that
    ``max`` would drop, or as both; of a matrix, the second row's entries.

    A per-trial suite builds once per trial, and a lane suite once per
    chunk of ``_CHUNK_ROWS`` trials, one lane each; the builds are counted,
    only those for ``variant`` when given.  ``discrepancy`` builds
    ``commanded_accel_kernel`` twice per chunk, for the drawn gains and
    then the scaled ones, so build 0 is the first chunk's drawn-gains c.
    """
    builds = itertools.count()

    def with_nan(first, second, build):
        if not isinstance(second, np.ndarray):
            if build == trial:
                first, second = (math.nan if both else first), math.nan
        elif build == trial // verify._CHUNK_ROWS:
            lane = trial % verify._CHUNK_ROWS
            first, second = first.copy(), second.copy()
            second[lane] = math.nan
            if both:
                first[lane] = math.nan
        return first, second

    def patched(*args, **kwargs):
        made = factory(*args, **kwargs)
        if variant is not None and args[0] is not variant:
            return made
        build = next(builds)
        if isinstance(made, Mat2):
            return Mat2(made.m00, made.m01,
                        *with_nan(made.m10, made.m11, build))
        return lambda *values: with_nan(*made(*values), build)

    return patched


def run_with_nan(monkeypatch, suite, patches, trial, trials):
    """Run ``suite`` with a NaN put into trial ``trial`` by each patch, and
    return the names of the failed properties after checking that each
    failed with a NaN worst case."""
    for kernel, variant, both in patches:
        monkeypatch.setattr(verify, kernel, nan_in_trial(
            getattr(verify, kernel), trial, variant, both))
    results = verify.run_suite(suite, 0, trials)
    failed = {r.name for r in results if not r.passed}
    for r in results:
        if r.name in failed:
            assert math.isnan(r.worst), r
    return failed


@pytest.mark.parametrize(
    "suite, patches, failing",
    [
        ("dynamics", [("inverse_dynamics_kernel", None, False)],
         {"dynamics.closed_form_residual"}),
        ("implication",
         [("torque_kernel", ControllerVariant.STAGE_CONSISTENT, False)],
         {"implication.stage_consistent"}),
        ("implication",
         [("torque_kernel", ControllerVariant.CORRECTED, False)],
         {"implication.corrected_identity_frame"}),
        ("discrepancy", [("torque_kernel", ControllerVariant.SIM_PAPER, False)],
         {"discrepancy.missing_transform_gap",
          "discrepancy.identity_frame_collapse"}),
        # a NaN commanded acceleration must not exclude the trial's gap;
        # every law acts on that c, so the NaN reaches the force and
        # gain-scaling checks too (the scaled gains solve their own c)
        ("discrepancy", [("commanded_accel_kernel", None, True),
                         ("torque_kernel", ControllerVariant.SIM_PAPER, True)],
         {"discrepancy.missing_transform_gap",
          "discrepancy.identity_frame_collapse",
          "discrepancy.force_substitution_identity",
          "discrepancy.gain_scaling_invariance"}),
        ("discrepancy", [("torque_kernel", ControllerVariant.MC_PAPER, False)],
         {"discrepancy.force_substitution_identity"}),
        ("frames", [("mat_inv", None, False)],
         {"frames.transform_invertibility", "frames.round_trip"}),
    ],
)
def test_nan_residual_fails_its_property(monkeypatch, suite, patches, failing):
    # the NaN comes from the fourth trial, after finite residuals: lane 3
    # of the first chunk in the lane suites
    assert run_with_nan(monkeypatch, suite, patches, 3, 20) == failing


@pytest.mark.parametrize(
    "suite, patches, failing",
    [
        ("implication",
         [("torque_kernel", ControllerVariant.STAGE_CONSISTENT, False)],
         {"implication.stage_consistent"}),
        ("discrepancy", [("torque_kernel", ControllerVariant.SIM_PAPER, False)],
         {"discrepancy.missing_transform_gap",
          "discrepancy.identity_frame_collapse"}),
        ("frames", [("mat_inv", None, False)],
         {"frames.transform_invertibility", "frames.round_trip"}),
        ("dynamics", [("inverse_dynamics_kernel", None, False)],
         {"dynamics.closed_form_residual"}),
    ],
)
def test_nan_in_second_chunk_fails_its_property(monkeypatch, suite, patches,
                                                failing):
    # a finite first chunk, then the NaN in lane 3 of the second
    trial = verify._CHUNK_ROWS + 3
    assert run_with_nan(monkeypatch, suite, patches, trial,
                        verify._CHUNK_ROWS + 20) == failing


def test_frames_suite_folds_every_trial(monkeypatch):
    # the frames worst values repeat across seeds, so the pinned digests
    # would not notice a chunk that skips a trial
    sizes = []
    fold_lanes = verify._fold_lanes

    def recording(acc, *columns, lowest=False):
        sizes.extend(column.size for column in columns)
        return fold_lanes(acc, *columns, lowest=lowest)

    monkeypatch.setattr(verify, "_fold_lanes", recording)
    verify.run_suite("frames", 0, 2 * verify._CHUNK_ROWS + 37)
    # 2 composition, 5 orthogonality, 5 invertibility and 2 round-trip
    # residual columns per chunk
    assert sizes == [verify._CHUNK_ROWS] * 28 + [37] * 14


def test_dynamics_suite_folds_every_trial(monkeypatch):
    # the seed-0 asymptotic gap is exactly 0.0, so the pinned digests would
    # not notice a chunk that skips a trial
    sizes = []
    fold_lanes = verify._fold_lanes

    def recording(acc, *columns, lowest=False):
        sizes.extend(column.size for column in columns)
        return fold_lanes(acc, *columns, lowest=lowest)

    monkeypatch.setattr(verify, "_fold_lanes", recording)
    verify.run_suite("dynamics", 0, 2 * verify._CHUNK_ROWS + 37)
    # per chunk, 2 residual columns at each of 100 sample times and 2
    # asymptotic-gap columns; then 2 columns of every sample of each of the
    # 4 integrations (t_end/dt = 10/1e-3, then 5/1e-2, 5/5e-3, 5/2.5e-3);
    # then the 2 image-space residual columns of the 60 sample times
    assert sizes == ([verify._CHUNK_ROWS] * 404 + [37] * 202
                     + [10001] * 2 + [501] * 2 + [1001] * 2 + [2001] * 2
                     + [60] * 2)


def _image_space_residual_at(t, h=1e-3):
    """The image-space residual |r0|, |r1| at one sample time, evaluated on
    floats as the suite's lanes evaluate it at every time."""
    masses = MassParams(1.0, 0.5, 0.5)
    frame = FrameParams(alpha=math.pi / 6, dx=0.5, dy=0.25, fx=2.0, fy=4.0)
    t_mat = frames.transformation_matrix(frame)
    off = frames.image_offset(frame)
    iner, pos_fin = image_space_operators(masses, frame)
    closed_form = free_response_kernel(masses, 0.4, -0.3, 1.2, -0.8)

    def u(t):
        x, y, *_ = closed_form(t)
        return mat_vec_mul(t_mat, Vec2(x, y)) + off

    step = h * max(1.0, abs(t))
    um2, um1, u0 = u(t - 2 * step), u(t - step), u(t)
    up1, up2 = u(t + step), u(t + 2 * step)
    udot = (-up2 + up1.scale(8.0) - um1.scale(8.0) + um2).scale(
        1.0 / (12.0 * step))
    uddot = (-up2 + up1.scale(16.0) - u0.scale(30.0) + um1.scale(16.0)
             - um2).scale(1.0 / (12.0 * step * step))
    res = mat_vec_mul(iner, uddot) + mat_vec_mul(pos_fin, udot)
    return abs(res.a0), abs(res.a1)


def test_image_space_residual_lanes_match_the_scalar_evaluation(monkeypatch):
    # the suite folds only the worst lane, so a lane that differs from its
    # time's float evaluation would go unseen by the pinned digests
    folded = []
    fold_lanes = verify._fold_lanes

    def recording(acc, *columns, lowest=False):
        folded.append(columns)
        return fold_lanes(acc, *columns, lowest=lowest)

    monkeypatch.setattr(verify, "_fold_lanes", recording)
    worst = verify._image_space_residual()
    (r0, r1), = folded
    times = [float(t) for t in np.linspace(0.1, 10.0, 60)]
    want = [_image_space_residual_at(t) for t in times]
    assert [v.hex() for v in r0.tolist()] == [w[0].hex() for w in want]
    assert [v.hex() for v in r1.tolist()] == [w[1].hex() for w in want]
    assert worst.hex() == fold_worst(0.0, *itertools.chain(*want)).hex()
    assert worst.hex() == "0x1.10ae440000000p-30"


def _raise_if_called(*args, **kwargs):
    raise AssertionError("numpy transcendental called")


def test_suites_take_no_numpy_transcendentals(monkeypatch):
    # numpy's exp, cos and sin need not round as libm does, yet agree with
    # it on every draw tried on some hosts, so no value-based test catches
    # a switch to them
    want = digest(verify.run_suite("all", 0, 50), with_detail=True)
    for name in ("exp", "cos", "sin"):
        monkeypatch.setattr(np, name, _raise_if_called)
    assert digest(verify.run_suite("all", 0, 50), with_detail=True) == want


# Lane calls of frames.rotation_matrix per run of three chunks: one per
# chunk's lane frame.  The other suites' frames are floats.
ROTATIONS_OVER_THREE_CHUNKS = {
    "frames": 3, "dynamics": 0, "implication": 0, "discrepancy": 3,
}


@pytest.mark.parametrize("suite", sorted(ROTATIONS_OVER_THREE_CHUNKS))
def test_each_lane_frame_computes_its_rotation_once(monkeypatch, suite):
    # frames reads a chunk's rotation in four places and discrepancy in two
    # (the CORRECTED and MC_PAPER kernels at the drawn frame)
    lane_calls = []
    rotation_matrix = frames.rotation_matrix

    def counting(alpha):
        if isinstance(alpha, np.ndarray):
            lane_calls.append(alpha.size)
        return rotation_matrix(alpha)

    # verify too, so that a suite calling it directly is counted
    for module in (frames, verify):
        monkeypatch.setattr(module, "rotation_matrix", counting, raising=False)
    results = verify.run_suite(suite, 3, 2500)
    assert len(lane_calls) == ROTATIONS_OVER_THREE_CHUNKS[suite]
    assert sum(lane_calls) in (0, 2500)
    assert (digest(results, with_detail=True)
            == SEED_3_TRIALS_2500_WITH_DETAIL_SHA256[suite])


def test_precondition_violation_names_the_first_violating_trial(monkeypatch):
    broken = (verify._CHUNK_ROWS + 5, verify._CHUNK_ROWS + 9)
    original = verify.impedance_accel_kernel
    builds = itertools.count()

    def breaking_kernel(gains):
        kernel = original(gains)
        build = next(builds)

        def eddot(*values):
            edd0, edd1 = kernel(*values)
            edd0 = edd0.copy()
            for trial in broken:
                if trial // verify._CHUNK_ROWS == build:
                    edd0[trial % verify._CHUNK_ROWS] += 1.0
            return edd0, edd1

        return eddot

    monkeypatch.setattr(verify, "impedance_accel_kernel", breaking_kernel)
    with pytest.raises(PreconditionViolated,
                       match=rf"^trial {broken[0]}: impedance-law residual "
                             r"\S+ exceeds \S+ in lane 5;") as exc_info:
        verify.run_suite("implication", 0, verify._CHUNK_ROWS + 20)
    assert exc_info.value.lane == broken[0]
    assert next(builds) == 2


def _lane(values, trial):
    return [float(v[trial]) for v in values]


def test_lanes_match_the_scalar_api_trial_by_trial():
    # two full chunks and a partial one of seeded discrepancy draws
    bounds = (verify._CONTROL_CASE_BOUNDS + verify._FRAME_BOUNDS
              + verify._LAMBDA_BOUNDS)
    n = 2 * verify._CHUNK_ROWS + 37
    identity = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
    checked = 0
    for columns in verify._draw_rows(verify._rng(11), bounds, n):
        stage, ident, _ = verify._implication_residuals(columns)
        masses, gains, states, fe0, fe1, fed = verify._control_lanes(columns)
        qd0, qd1, qv0, qv1, qa0, qa1, q0, q1, v0, v1, a0, a1 = states
        e0, e1, ed0, ed1 = qd0 - q0, qd1 - q1, qv0 - v0, qv1 - v1
        frame = verify._lanes(FrameParams, *columns[verify._FRAME_COLUMNS])
        c0, c1 = control.commanded_accel_kernel(gains)(
            qa0, qa1, e0, e1, ed0, ed1, fe0, fe1)
        torques = {
            variant: control.torque_kernel(variant, masses, frame, fed)(
                c0, c1, fe0, fe1, v0, v1)
            for variant in ControllerVariant
        }
        for trial in range(columns.shape[1]):
            row = _lane(columns, trial)
            s_masses = MassParams(*row[0:3])
            s_gains = ImpedanceParams(*row[3:6])
            s_fed = ForcePair(*row[18:20])
            s_fe = ForcePair(row[16], row[17])
            s_frame = FrameParams(*row[verify._FRAME_COLUMNS])
            (sqd0, sqd1, sqv0, sqv1, sqa0, sqa1, sq0, sq1, sv0, sv1, sa0,
             sa1) = _lane(states, trial)
            desired = DesiredTrajectoryPoint(
                Vec2(sqd0, sqd1), Vec2(sqv0, sqv1), Vec2(sqa0, sqa1))
            actual = (Vec2(sq0, sq1), Vec2(sv0, sv1), Vec2(sa0, sa1))
            for lanes, variant, at in (
                (stage, ControllerVariant.STAGE_CONSISTENT, s_frame),
                (ident, ControllerVariant.CORRECTED, identity),
            ):
                want = implication_residual(variant, s_masses, at, s_gains,
                                            desired, actual, s_fe, s_fed)
                assert ([v.hex() for v in _lane(lanes, trial)]
                        == [want.a0.hex(), want.a1.hex()]), (trial, variant)

            errors = ErrorState(Vec2(sqd0 - sq0, sqd1 - sq1),
                                Vec2(sqv0 - sv0, sqv1 - sv1), Vec2(0.0, 0.0))
            for variant, lanes in torques.items():
                want = torque_controller(variant, s_masses, s_frame, s_gains,
                                         desired, Vec2(sv0, sv1), errors,
                                         s_fe, s_fed)
                assert ([v.hex() for v in _lane(lanes, trial)]
                        == [want.taux.hex(), want.tauy.hex()]), (trial, variant)
            checked += 1
    assert checked == n


def test_fold_lanes_folds_as_the_trial_loop_does():
    rng = np.random.default_rng(5)
    for case in range(200):
        size = int(rng.integers(0, 9))
        columns = [rng.uniform(0.0, 2.0, size) for _ in range(int(rng.integers(1, 4)))]
        for column in columns:
            column[rng.random(size) < 0.1] = math.nan
        for acc in (0.0, 1.0, math.inf, math.nan):
            for lowest in (False, True):
                want = acc
                for trial in range(size):
                    want = fold_worst(want, *(float(c[trial]) for c in columns),
                                      lowest=lowest)
                got = verify._fold_lanes(acc, *columns, lowest=lowest)
                assert type(got) is float
                assert got.hex() == want.hex(), (case, acc, lowest)


def test_fold_keeps_nan_from_either_side():
    assert max(0.0, math.nan, 1e-20) == 1e-20
    assert math.isnan(fold_worst(0.0, math.nan, 1e-20))
    assert math.isnan(fold_worst(math.nan, 1.0))
    assert math.isnan(fold_worst(1.0, math.nan, lowest=True))
    assert fold_worst(0.0, 2.0, 1.0) == 2.0
    assert fold_worst(math.inf, 2.0, 3.0, lowest=True) == 2.0
