import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from microinject.algebra2d import (
    Mat2,
    SingularMatrix,
    Vec2,
    det,
    diag,
    identity,
    lane_max,
    mat_inv,
    mat_mul,
    mat_vec_mul,
    singularity_threshold,
    transpose,
)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
vec2s = st.builds(Vec2, finite, finite)
mat2s = st.builds(Mat2, finite, finite, finite, finite)


def scalar_loop_mat_vec(m, v):
    """Index-by-index oracle for the matrix-vector product."""
    rows = [[m.m00, m.m01], [m.m10, m.m11]]
    vec = [v.a0, v.a1]
    out = [0.0, 0.0]
    for i in range(2):
        for j in range(2):
            out[i] += rows[i][j] * vec[j]
    return Vec2(out[0], out[1])


def scalar_loop_mat_mul(a, b):
    ra = [[a.m00, a.m01], [a.m10, a.m11]]
    rb = [[b.m00, b.m01], [b.m10, b.m11]]
    out = [[0.0, 0.0], [0.0, 0.0]]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[i][j] += ra[i][k] * rb[k][j]
    return Mat2(out[0][0], out[0][1], out[1][0], out[1][1])


class TestMatVecMul:
    def test_identity(self):
        assert mat_vec_mul(identity(), Vec2(3.0, -2.0)) == Vec2(3.0, -2.0)

    def test_zero_matrix_annihilates(self):
        assert mat_vec_mul(Mat2(0, 0, 0, 0), Vec2(5.0, 7.0)) == Vec2(0.0, 0.0)

    def test_hand_expansion(self):
        # scalar-loop oracle on [[2,1],[0,3]] @ (1,2) gives (4, 6)
        m = Mat2(2.0, 1.0, 0.0, 3.0)
        v = Vec2(1.0, 2.0)
        assert mat_vec_mul(m, v) == Vec2(4.0, 6.0)
        assert mat_vec_mul(m, v) == scalar_loop_mat_vec(m, v)

    @given(mat2s, vec2s)
    def test_matches_scalar_loop(self, m, v):
        got = mat_vec_mul(m, v)
        ref = scalar_loop_mat_vec(m, v)
        assert got.a0 == ref.a0 and got.a1 == ref.a1


class TestMatMul:
    def test_identity(self):
        b = Mat2(1.0, 2.0, 3.0, 4.0)
        assert mat_mul(identity(), b) == b

    def test_inverse_gives_identity(self):
        a = Mat2(2.0, 1.0, 1.0, 1.0)
        prod = mat_mul(a, mat_inv(a))
        assert prod.m00 == pytest.approx(1.0, abs=1e-12)
        assert prod.m01 == pytest.approx(0.0, abs=1e-12)
        assert prod.m10 == pytest.approx(0.0, abs=1e-12)
        assert prod.m11 == pytest.approx(1.0, abs=1e-12)

    def test_hand_expansion(self):
        # scalar-loop oracle on [[1,1],[0,1]] @ [[1,0],[1,1]] gives [[2,1],[1,1]]
        a = Mat2(1.0, 1.0, 0.0, 1.0)
        b = Mat2(1.0, 0.0, 1.0, 1.0)
        assert mat_mul(a, b) == Mat2(2.0, 1.0, 1.0, 1.0)
        assert mat_mul(a, b) == scalar_loop_mat_mul(a, b)

    @given(mat2s, mat2s, vec2s)
    def test_associative_with_mat_vec(self, a, b, v):
        lhs = mat_vec_mul(mat_mul(a, b), v)
        rhs = mat_vec_mul(a, mat_vec_mul(b, v))
        scale = max(1.0, a.max_abs() * b.max_abs() * v.max_abs())
        assert abs(lhs.a0 - rhs.a0) <= 1e-12 * scale
        assert abs(lhs.a1 - rhs.a1) <= 1e-12 * scale

    @given(mat2s, mat2s)
    def test_det_multiplicative(self, a, b):
        scale = max(1.0, a.max_abs() ** 2 * b.max_abs() ** 2)
        assert abs(det(mat_mul(a, b)) - det(a) * det(b)) <= 1e-12 * scale


class TestMatInv:
    def test_diagonal(self):
        assert mat_inv(diag(2.0, 4.0)) == diag(0.5, 0.25)

    def test_rotation_inverse_is_negative_angle(self):
        for alpha in (0.3, -1.2, 2.9):
            ca, sa = math.cos(alpha), math.sin(alpha)
            r = Mat2(ca, sa, -sa, ca)
            r_back = Mat2(math.cos(-alpha), math.sin(-alpha),
                          -math.sin(-alpha), math.cos(-alpha))
            inv = mat_inv(r)
            for got, want in zip(
                (inv.m00, inv.m01, inv.m10, inv.m11),
                (r_back.m00, r_back.m01, r_back.m10, r_back.m11),
            ):
                assert got == pytest.approx(want, abs=1e-15)

    def test_adjugate_example(self):
        # adj/det on [[1,2],[3,4]]: det=-2, giving [[-2,1],[1.5,-0.5]]
        inv = mat_inv(Mat2(1.0, 2.0, 3.0, 4.0))
        assert inv == Mat2(-2.0, 1.0, 1.5, -0.5)
        prod = mat_mul(Mat2(1.0, 2.0, 3.0, 4.0), inv)
        assert abs(prod.m00 - 1.0) < 1e-14 and abs(prod.m11 - 1.0) < 1e-14
        assert abs(prod.m01) < 1e-14 and abs(prod.m10) < 1e-14

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            mat_inv(Mat2(1.0, 2.0, 2.0, 4.0))
        with pytest.raises(SingularMatrix):
            mat_inv(Mat2(0.0, 0.0, 0.0, 0.0))

    def test_threshold_is_scale_relative(self):
        # large well-conditioned matrix must not be misclassified
        m = diag(1e6, 1e6)
        assert mat_inv(m) == diag(1e-6, 1e-6)
        assert singularity_threshold(m) == 1e-12 * 1e12

    @given(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False),
           st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False))
    def test_inverse_property(self, m00, m01, m10, m11):
        m = Mat2(m00, m01, m10, m11)
        # conditioning assumption: the adjugate inverse loses ~eps*|M|^2/|det|
        # in M @ M_inv, so near-singular draws cannot meet the bound below
        assume(abs(det(m)) >= 1e-3 * max(1.0, m.max_abs() ** 2))
        prod = mat_mul(m, mat_inv(m))
        bound = 1e-12 * max(1.0, m.max_abs())
        assert abs(prod.m00 - 1.0) <= bound
        assert abs(prod.m01) <= bound
        assert abs(prod.m10) <= bound
        assert abs(prod.m11 - 1.0) <= bound

    @given(mat2s)
    @settings(max_examples=60)
    def test_matches_numpy_inverse(self, m):
        assume(abs(det(m)) > singularity_threshold(m))
        arr = np.array([[m.m00, m.m01], [m.m10, m.m11]])
        assume(np.linalg.cond(arr) < 1e6)
        inv = mat_inv(m)
        ref = np.linalg.inv(arr)
        got = np.array([[inv.m00, inv.m01], [inv.m10, inv.m11]])
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-12)


def test_transpose_and_det():
    m = Mat2(1.0, 2.0, 3.0, 4.0)
    assert transpose(m) == Mat2(1.0, 3.0, 2.0, 4.0)
    assert det(m) == -2.0
    assert det(identity()) == 1.0


def test_vec2_arithmetic():
    a = Vec2(1.0, 2.0)
    b = Vec2(0.5, -1.0)
    assert a + b == Vec2(1.5, 1.0)
    assert a - b == Vec2(0.5, 3.0)
    assert -a == Vec2(-1.0, -2.0)
    assert a.scale(2.0) == Vec2(2.0, 4.0)
    assert a.max_abs() == 2.0
    assert a.is_finite()
    assert not Vec2(float("nan"), 0.0).is_finite()
    assert not Vec2(0.0, float("inf")).is_finite()


SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan, 1e308)


def test_lane_max_is_max_on_floats_and_lane_by_lane_on_arrays():
    rng = np.random.default_rng(2)
    for _ in range(300):
        lanes = rng.choice(SPECIAL, size=(int(rng.integers(2, 5)), 6))
        per_lane = [[float(v) for v in lanes[:, lane]] for lane in range(6)]
        for values in per_lane:
            assert lane_max(*values) is max(*values)
        assert [float(v).hex() for v in lane_max(*lanes)] == [
            max(values).hex() for values in per_lane]
        # a float first value, as in lane_max(1.0, ...)
        assert [float(v).hex() for v in lane_max(1.0, *lanes)] == [
            max(1.0, *values).hex() for values in per_lane]


def test_mat_inv_on_lanes_matches_each_lane_and_checks_every_lane():
    rng = np.random.default_rng(4)
    entries = rng.uniform(-10.0, 10.0, (4, 50))
    lanes = mat_inv(Mat2(*entries))
    for lane in range(entries.shape[1]):
        want = mat_inv(Mat2(*(float(e[lane]) for e in entries)))
        got = (lanes.m00[lane], lanes.m01[lane], lanes.m10[lane], lanes.m11[lane])
        assert [float(v).hex() for v in got] == [
            want.m00.hex(), want.m01.hex(), want.m10.hex(), want.m11.hex()]

    # lanes 7 and 9 fail the cutoff; the first is named
    entries[:, 7] = (1.0, 2.0, 2.0, 4.0)
    entries[:, 9] = 0.0
    with pytest.raises(SingularMatrix, match=r"in lane 7 \(\|det\|=0\.000e\+00\)"):
        mat_inv(Mat2(*entries))


HUGE = (0.0, 1.0, 1e6, 1.3e154, 1.35e154, 1e200, 1.7976931348623157e308,
        math.inf)


def test_singularity_threshold_of_floats_and_lanes_agree_past_overflow():
    # the square of the largest entry overflows to inf past about 1.34e154,
    # on floats as on lanes, and such a matrix is refused, never raising
    # OverflowError
    rng = np.random.default_rng(6)
    entries = rng.choice(HUGE, size=(4, 200)) * rng.choice((1.0, -1.0), (4, 200))
    with np.errstate(over="ignore"):
        lanes = singularity_threshold(Mat2(*entries))
    for lane in range(entries.shape[1]):
        want = singularity_threshold(Mat2(*(float(e[lane]) for e in entries)))
        assert float(lanes[lane]).hex() == want.hex(), entries[:, lane]
    assert singularity_threshold(diag(1e200, 1.0)) == math.inf
    with pytest.raises(SingularMatrix):
        mat_inv(diag(1e200, 1.0))
    with np.errstate(over="ignore"):
        with pytest.raises(SingularMatrix, match=r"in lane 1 "):
            mat_inv(Mat2(*np.array([[1.0, 1e200], [0.0, 0.0], [0.0, 0.0],
                                    [1.0, 1.0]])))

