import hashlib
import itertools
import math

import numpy as np
import pytest

from microinject import control, verify
from microinject.control import ControllerVariant

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


class RecordingGenerator:
    """Delegates to a numpy Generator and records the size of each draw."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.sizes = []

    def uniform(self, low, high, size=None):
        self.sizes.append(size)
        return self.rng.uniform(low, high, size)


def test_chunked_rows_equal_sequential_scalar_draws():
    bounds = (verify._CONTROL_CASE_BOUNDS + verify._FRAME_BOUNDS
              + verify._LAMBDA_BOUNDS)
    assert len(bounds) == 26
    n = 2 * verify._CHUNK_ROWS + 5
    assert n % verify._CHUNK_ROWS != 0

    recorder = RecordingGenerator(3)
    rows = list(verify._draw_rows(recorder, bounds, n))
    assert recorder.sizes == [(verify._CHUNK_ROWS, 26), (verify._CHUNK_ROWS, 26),
                              (5, 26)]

    scalar = np.random.Generator(np.random.PCG64(3))
    assert len(rows) == n
    for row in rows:
        want = [float(scalar.uniform(lo, hi)) for lo, hi in bounds]
        assert [v.hex() for v in row] == [v.hex() for v in want]
        assert all(type(v) is float for v in row)


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
@pytest.mark.parametrize("trials", [0, -3])
def test_non_positive_trials_are_rejected(suite, trials):
    with pytest.raises(ValueError, match="trials must be > 0"):
        verify.run_suite(suite, 0, trials)


def nan_on_build(factory, build, variant=None, both=False):
    """Wrap a kernel factory so that the ``build``-th kernel it returns
    (counting only the builds for ``variant``, when given) gives NaN as its
    second component, a NaN that ``max`` would drop, or as both.

    ``control.torque_law`` returns a binder of gains and fed, not a kernel;
    for it, every kernel that the ``build``-th binder returns gives NaN.
    """
    builds = itertools.count()

    def nan_kernel(kernel):
        def patched_kernel(*values):
            first, _ = kernel(*values)
            return (math.nan if both else first), math.nan

        return patched_kernel

    def patched(*args, **kwargs):
        made = factory(*args, **kwargs)
        if variant is not None and args[0] is not variant:
            return made
        if next(builds) != build:
            return made
        if factory is control.torque_law:
            return lambda *binding: nan_kernel(made(*binding))
        return nan_kernel(made)

    return patched


@pytest.mark.parametrize(
    "suite, patches, failing",
    [
        ("dynamics", [("inverse_dynamics_kernel", None, False)],
         {"dynamics.closed_form_residual"}),
        ("implication",
         [("torque_law", ControllerVariant.STAGE_CONSISTENT, False)],
         {"implication.stage_consistent"}),
        ("implication",
         [("torque_law", ControllerVariant.CORRECTED, False)],
         {"implication.corrected_identity_frame"}),
        ("discrepancy", [("torque_law", ControllerVariant.SIM_PAPER, False)],
         {"discrepancy.missing_transform_gap",
          "discrepancy.identity_frame_collapse"}),
        # a NaN commanded acceleration must not exclude the trial's gap
        ("discrepancy", [("commanded_accel_kernel", None, True),
                         ("torque_law", ControllerVariant.SIM_PAPER, True)],
         {"discrepancy.missing_transform_gap",
          "discrepancy.identity_frame_collapse"}),
        ("discrepancy", [("torque_law", ControllerVariant.MC_PAPER, False)],
         {"discrepancy.force_substitution_identity"}),
    ],
)
def test_nan_residual_fails_its_property(monkeypatch, suite, patches, failing):
    # the NaN comes from the fourth trial, after finite residuals; each
    # patched build runs once per trial
    for kernel, variant, both in patches:
        monkeypatch.setattr(verify, kernel,
                            nan_on_build(getattr(verify, kernel), 3, variant, both))
    results = verify.run_suite(suite, 0, 20)
    failed = {r.name for r in results if not r.passed}
    assert failed == failing
    for r in results:
        if r.name in failing:
            assert math.isnan(r.worst), r


def test_fold_keeps_nan_from_either_side():
    assert max(0.0, math.nan, 1e-20) == 1e-20
    assert math.isnan(verify._fold(0.0, math.nan, 1e-20))
    assert math.isnan(verify._fold(math.nan, 1.0))
    assert math.isnan(verify._fold(1.0, math.nan, lowest=True))
    assert verify._fold(0.0, 2.0, 1.0) == 2.0
    assert verify._fold(math.inf, 2.0, 3.0, lowest=True) == 2.0
