import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microinject import frames, verify
from microinject.algebra2d import Mat2, det, diag, identity, mat_inv, mat_mul, mat_vec_mul, transpose
from microinject.dynamics import ForcePair, Torque
from microinject.frames import (
    CameraCoord,
    FrameParams,
    ImageCoord,
    StageCoord,
    camera_to_image,
    image_offset,
    rotation_matrix,
    stage_to_camera,
    stage_to_image,
    transformation_matrix,
)

angles = st.floats(-math.pi, math.pi, allow_nan=False)
positives = st.floats(1e-3, 10.0, allow_nan=False)
coords = st.floats(-1e3, 1e3, allow_nan=False)
frame_params = st.builds(FrameParams, alpha=angles, dx=positives, dy=positives,
                         fx=positives, fy=positives)


class TestFrameParams:
    @pytest.mark.parametrize("field", ["dx", "dy", "fx", "fy"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive(self, field, bad):
        kwargs = dict(alpha=0.1, dx=1.0, dy=1.0, fx=2.0, fy=2.0)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=field):
            FrameParams(**kwargs)

    def test_rejects_non_finite_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            FrameParams(alpha=float("nan"), dx=1.0, dy=1.0, fx=1.0, fy=1.0)

    def test_coordinate_types_are_distinct(self):
        s = StageCoord(1.0, 2.0)
        c = CameraCoord(1.0, 2.0)
        # no implicit cross-frame arithmetic
        with pytest.raises(TypeError):
            s + c  # type: ignore[operator]
        assert s != c

    def test_force_and_torque_types_have_no_addition(self):
        # algebra2d.frozen types, not tuples, so + never concatenates them
        f = ForcePair(1.0, 2.0)
        with pytest.raises(TypeError):
            f + f  # type: ignore[operator]
        with pytest.raises(TypeError):
            Torque(1.0, 2.0) + f  # type: ignore[operator]


class TestCachedRotation:
    @staticmethod
    def _count_rotations(monkeypatch):
        calls = []

        def counting(alpha):
            calls.append(alpha)
            return rotation_matrix(alpha)

        monkeypatch.setattr(frames, "rotation_matrix", counting)
        return calls

    def test_computed_once_per_frame(self, monkeypatch):
        calls = self._count_rotations(monkeypatch)
        p = FrameParams(alpha=0.7, dx=0.5, dy=0.25, fx=2.0, fy=4.0)
        s = StageCoord(1.5, -2.0)
        first = p.rotation
        transformation_matrix(p)
        stage_to_camera(p, s)
        stage_to_image(p, s)
        assert p.rotation is first
        assert calls == [0.7]
        assert first == rotation_matrix(0.7)

    def test_replace_gives_a_frame_with_its_own_rotation(self, monkeypatch):
        calls = self._count_rotations(monkeypatch)
        p = FrameParams(alpha=0.7, dx=0.5, dy=0.25, fx=2.0, fy=4.0)
        p.rotation
        turned = p._replace(alpha=-1.2)
        moved = p._replace(dx=3.0)
        assert turned.rotation == rotation_matrix(-1.2)
        assert moved.rotation == p.rotation
        assert moved.rotation is not p.rotation
        assert calls == [0.7, -1.2, 0.7]

    def test_equality_hash_and_repr_ignore_the_cached_value(self):
        read = FrameParams(alpha=0.7, dx=0.5, dy=0.25, fx=2.0, fy=4.0)
        unread = FrameParams(alpha=0.7, dx=0.5, dy=0.25, fx=2.0, fy=4.0)
        read.rotation
        assert read == unread
        assert hash(read) == hash(unread)
        assert repr(read) == repr(unread)
        assert "rotation" not in repr(read)
        assert "rotation" not in vars(unread)


class TestRotationMatrix:
    def test_zero_angle_is_identity(self):
        assert rotation_matrix(0.0) == identity()

    def test_quarter_turn(self):
        r = rotation_matrix(math.pi / 2)
        assert r.m00 == pytest.approx(0.0, abs=1e-15)
        assert r.m01 == 1.0
        assert r.m10 == -1.0
        assert r.m11 == pytest.approx(0.0, abs=1e-15)

    def test_pi_over_six_against_library(self):
        r = rotation_matrix(math.pi / 6)
        assert r == Mat2(math.cos(math.pi / 6), math.sin(math.pi / 6),
                         -math.sin(math.pi / 6), math.cos(math.pi / 6))
        assert r.m00 == pytest.approx(0.8660254037844387, abs=1e-15)
        assert r.m01 == pytest.approx(0.5, abs=1e-15)

    @given(angles)
    def test_orthogonal_unit_determinant(self, alpha):
        r = rotation_matrix(alpha)
        rtr = mat_mul(transpose(r), r)
        for got, want in ((rtr.m00, 1.0), (rtr.m01, 0.0), (rtr.m10, 0.0),
                          (rtr.m11, 1.0)):
            assert abs(got - want) <= 1e-12
        assert abs(det(r) - 1.0) <= 1e-12


class TestTransformationMatrix:
    def test_unit_resolution_zero_angle_is_identity(self):
        p = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
        assert transformation_matrix(p) == identity()

    def test_against_diag_rotation_product(self):
        p = FrameParams(alpha=math.pi / 2, dx=1.0, dy=1.0, fx=2.0, fy=4.0)
        t = transformation_matrix(p)
        ref = mat_mul(diag(2.0, 4.0), rotation_matrix(math.pi / 2))
        for got, want in zip((t.m00, t.m01, t.m10, t.m11),
                             (ref.m00, ref.m01, ref.m10, ref.m11)):
            assert got == pytest.approx(want, abs=1e-15)
        assert t.m01 == 2.0 and t.m10 == -4.0
        assert abs(t.m00) < 1e-15 and abs(t.m11) < 1e-15

    @given(frame_params)
    def test_determinant_is_fx_fy(self, p):
        assert det(transformation_matrix(p)) == pytest.approx(
            p.fx * p.fy, rel=1e-12
        )

    @given(frame_params)
    def test_always_invertible(self, p):
        t = transformation_matrix(p)
        prod = mat_mul(t, mat_inv(t))
        for got, want in ((prod.m00, 1.0), (prod.m01, 0.0), (prod.m10, 0.0),
                          (prod.m11, 1.0)):
            assert abs(got - want) <= 1e-12


class TestStageToCamera:
    def test_zero_angle_is_pure_translation(self):
        p = FrameParams(alpha=0.0, dx=0.7, dy=0.3, fx=1.0, fy=1.0)
        c = stage_to_camera(p, StageCoord(2.0, -1.0))
        assert c == CameraCoord(2.7, -0.7)

    def test_quarter_turn_with_unit_offset(self):
        # rotation-matrix oracle: R(pi/2) @ (1,0) = (0,-1), plus (1,1)
        p = FrameParams(alpha=math.pi / 2, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
        c = stage_to_camera(p, StageCoord(1.0, 0.0))
        ref = mat_vec_mul(rotation_matrix(p.alpha), StageCoord(1.0, 0.0).vec)
        assert c.xc == pytest.approx(ref.a0 + 1.0, abs=1e-15)
        assert c.yc == pytest.approx(ref.a1 + 1.0, abs=1e-15)
        assert c.xc == pytest.approx(1.0, abs=1e-15)
        assert c.yc == pytest.approx(0.0, abs=1e-15)

    @given(frame_params)
    def test_origin_maps_to_displacement(self, p):
        c = stage_to_camera(p, StageCoord(0.0, 0.0))
        assert c == CameraCoord(p.dx, p.dy)


class TestCameraToImage:
    def test_unit_resolution_identity(self):
        p = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
        assert camera_to_image(p, CameraCoord(1.5, -2.5)) == ImageCoord(1.5, -2.5)

    def test_origin_fixed(self):
        p = FrameParams(alpha=0.4, dx=1.0, dy=1.0, fx=3.0, fy=5.0)
        assert camera_to_image(p, CameraCoord(0.0, 0.0)) == ImageCoord(0.0, 0.0)

    def test_scaling_matches_diag_product(self):
        p = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=2.0, fy=4.0)
        got = camera_to_image(p, CameraCoord(1.5, 2.5))
        ref = mat_vec_mul(diag(2.0, 4.0), CameraCoord(1.5, 2.5).vec)
        assert got == ImageCoord(3.0, 10.0)
        assert (got.u, got.v) == (ref.a0, ref.a1)


class TestStageToImage:
    def test_two_step_oracle(self):
        p = FrameParams(alpha=0.0, dx=0.5, dy=0.5, fx=2.0, fy=4.0)
        got = stage_to_image(p, StageCoord(1.0, 2.0))
        via = camera_to_image(p, stage_to_camera(p, StageCoord(1.0, 2.0)))
        assert got == ImageCoord(3.0, 10.0)
        assert got.u == pytest.approx(via.u, abs=1e-12)
        assert got.v == pytest.approx(via.v, abs=1e-12)

    def test_origin_maps_to_scaled_offset(self):
        p = FrameParams(alpha=1.1, dx=0.3, dy=0.9, fx=2.5, fy=3.5)
        got = stage_to_image(p, StageCoord(0.0, 0.0))
        off = image_offset(p)
        assert got.u == pytest.approx(off.a0, abs=1e-12)
        assert got.v == pytest.approx(off.a1, abs=1e-12)

    def test_identity_transform_limit(self):
        p = FrameParams(alpha=0.0, dx=1e-12, dy=1e-12, fx=1.0, fy=1.0)
        got = stage_to_image(p, StageCoord(4.0, -3.0))
        assert got.u == pytest.approx(4.0, abs=1e-11)
        assert got.v == pytest.approx(-3.0, abs=1e-11)

    @given(frame_params, st.builds(StageCoord, coords, coords))
    @settings(max_examples=200)
    def test_one_step_matches_two_step_composition(self, p, s):
        one = stage_to_image(p, s)
        two = camera_to_image(p, stage_to_camera(p, s))
        assert abs(one.u - two.u) <= 1e-9
        assert abs(one.v - two.v) <= 1e-9

    @given(frame_params, st.builds(StageCoord, coords, coords))
    def test_round_trip(self, p, s):
        img = stage_to_image(p, s)
        back = mat_vec_mul(
            mat_inv(transformation_matrix(p)), img.vec - image_offset(p)
        )
        assert abs(back.a0 - s.x) <= 1e-9
        assert abs(back.a1 - s.y) <= 1e-9


def _frame_lanes():
    """Two full chunks and a partial one of the frames suite's draws, then
    alpha = +-0.0, +-pi and 1e-300."""
    rng = verify._rng(3)
    n = 2 * verify._CHUNK_ROWS + 37
    columns = np.array([rng.uniform(lo, hi, n)
                        for lo, hi in verify._FRAMES_SUITE_BOUNDS])
    extra = np.array([(a, 0.5, 2.0, 3.0, 0.25, -7.5, 1e3)
                      for a in (0.0, -0.0, math.pi, -math.pi, 1e-300)]).T
    return np.concatenate([columns, extra], axis=1)


def test_lane_frames_match_float_maps_bitwise():
    def bits(*values):
        return [float(v).hex() for v in values]

    def entries(value):
        return [getattr(value, name) for name in value._fields]

    columns = _frame_lanes()
    for start in range(0, columns.shape[1], verify._CHUNK_ROWS):
        chunk = columns[:, start:start + verify._CHUNK_ROWS]
        alpha, dx, dy, fx, fy, sx, sy = chunk
        p = verify._lanes(FrameParams, alpha, dx, dy, fx, fy)
        lanes = {
            "transformation_matrix": transformation_matrix(p),
            "rotation_matrix": rotation_matrix(alpha),
            "rotation": p.rotation,
            "stage_to_camera": stage_to_camera(p, StageCoord(sx, sy)),
            "stage_to_image": stage_to_image(p, StageCoord(sx, sy)),
            "camera_to_image": camera_to_image(p, CameraCoord(sx, sy)),
            "image_offset": image_offset(p),
        }
        for lane in range(chunk.shape[1]):
            a, *rest, x, y = (float(v) for v in chunk[:, lane])
            q = FrameParams(a, *rest)
            floats = {
                "transformation_matrix": transformation_matrix(q),
                "rotation_matrix": rotation_matrix(a),
                "rotation": q.rotation,
                "stage_to_camera": stage_to_camera(q, StageCoord(x, y)),
                "stage_to_image": stage_to_image(q, StageCoord(x, y)),
                "camera_to_image": camera_to_image(q, CameraCoord(x, y)),
                "image_offset": image_offset(q),
            }
            for name, want in floats.items():
                got = lanes[name]
                assert (bits(*(v[lane] for v in entries(got)))
                        == bits(*entries(want))), (start + lane, name)


def test_stage_to_camera_is_the_inline_rotation_formula_bitwise():
    # stage_to_camera applies rotation_matrix; it must give the bits of the
    # rotation written out, signed zeros and extreme coordinates included
    rng = random.Random(17)
    alphas = (0.0, -0.0, math.pi, -math.pi, 1e-300, -1e-300)
    coords = (0.0, -0.0, 1e308, -1e308, 5e-324, 1.0)
    for i in range(5000):
        a = rng.choice(alphas) if i % 4 == 0 else rng.uniform(-math.pi, math.pi)
        x, y = (rng.choice(coords) if rng.random() < 0.25
                else rng.uniform(-1e3, 1e3) for _ in range(2))
        p = FrameParams(a, rng.uniform(1e-3, 10.0), rng.uniform(1e-3, 10.0),
                        1.0, 1.0)
        ca, sa = math.cos(a), math.sin(a)
        got = stage_to_camera(p, StageCoord(x, y))
        want = (x * ca + y * sa + p.dx, -x * sa + y * ca + p.dy)
        assert ([got.xc.hex(), got.yc.hex()]
                == [want[0].hex(), want[1].hex()]), (a, x, y)
