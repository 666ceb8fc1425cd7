"""Coordinate frames of the cell-injection stage and the maps between them.

Three planar frames:

* stage frame ``o-xy``: attached to the positioning table / working plate,
  origin at the plate center; length units.
* camera frame ``o_c-x_c y_c``: attached to the microscope optical center,
  rotated by ``alpha`` and offset by ``(dx, dy)`` from the stage frame;
  length units.
* image frame ``o_i-uv``: pixel space of the captured image, related to the
  camera frame by per-axis display resolutions ``(fx, fy)``.

The rotation convention follows the stage-to-camera map
``[[cos a, sin a], [-sin a, cos a]]`` (the transpose of the usual
counter-clockwise matrix); ``rotation_matrix`` is its one implementation.

The maps take a frame of floats, or one whose fields are float64 arrays,
one lane per frame (``verify`` builds such frames for its ensembles), with
coordinates of either kind.  Every operation is elementwise ``+ - *``, and
the cosine and sine of alpha come from ``math`` lane by lane
(``algebra2d.lane_map``), so each lane gets the bits of that frame's float
evaluation.

A frame's cosine and sine are computed once per frame: ``FrameParams.rotation``
caches ``rotation_matrix(alpha)`` on first read, and every map, and every
``control.torque_law``, built on that frame reads it.  A frame is frozen,
so its rotation cannot go stale, except that the arrays of a lane frame can
be written in place: they must not be written after its rotation has been
read.  ``verify`` never writes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .algebra2d import Mat2, Vec2, check_fields, lane_map, mat_vec_mul


@dataclass(frozen=True)
class FrameParams:
    """Calibration constants tying the three frames together.

    alpha: stage-to-camera rotation angle, radians.
    dx, dy: camera-origin offset from the stage origin, length units; > 0.
    fx, fy: display resolutions, pixels per length unit; > 0.

    Positivity of dx, dy, fx, fy is a construction invariant; in particular
    it guarantees the stage-to-image transformation matrix is invertible
    (its determinant is fx*fy).
    """

    alpha: float
    dx: float
    dy: float
    fx: float
    fy: float

    def __post_init__(self) -> None:
        check_fields(self, "finite", "alpha")
        check_fields(self, "> 0", "dx", "dy", "fx", "fy")

    @cached_property
    def rotation(self) -> Mat2:
        """``rotation_matrix(alpha)``, computed on first read and kept: not
        a field, so ``==``, ``hash`` and ``repr`` ignore it, and
        ``dataclasses.replace`` gives a frame that computes its own."""
        return rotation_matrix(self.alpha)


@dataclass(frozen=True)
class StageCoord:
    """Point in the stage frame (length units)."""

    x: float
    y: float

    @property
    def vec(self) -> Vec2:
        return Vec2(self.x, self.y)


@dataclass(frozen=True)
class CameraCoord:
    """Point in the camera frame (length units)."""

    xc: float
    yc: float

    @property
    def vec(self) -> Vec2:
        return Vec2(self.xc, self.yc)


@dataclass(frozen=True)
class ImageCoord:
    """Point in the image frame (pixels)."""

    u: float
    v: float

    @property
    def vec(self) -> Vec2:
        return Vec2(self.u, self.v)


def rotation_matrix(alpha: float) -> Mat2:
    """Stage-to-camera rotation; orthogonal with determinant 1."""
    ca, sa = lane_map(math.cos, alpha), lane_map(math.sin, alpha)
    return Mat2(ca, sa, -sa, ca)


def transformation_matrix(p: FrameParams) -> Mat2:
    """Stage-to-image matrix diag(fx, fy) @ rotation; det = fx*fy."""
    r = p.rotation
    return Mat2(p.fx * r.m00, p.fx * r.m01, p.fy * r.m10, p.fy * r.m11)


def image_offset(p: FrameParams) -> Vec2:
    """Constant pixel offset (fx*dx, fy*dy) of the stage-to-image map."""
    return Vec2(p.fx * p.dx, p.fy * p.dy)


def stage_to_camera(p: FrameParams, s: StageCoord) -> CameraCoord:
    """Rotate by alpha, then translate by (dx, dy)."""
    rotated = mat_vec_mul(p.rotation, s.vec)
    return CameraCoord(rotated.a0 + p.dx, rotated.a1 + p.dy)


def camera_to_image(p: FrameParams, c: CameraCoord) -> ImageCoord:
    """Scale camera lengths to pixels per axis."""
    return ImageCoord(p.fx * c.xc, p.fy * c.yc)


def stage_to_image(p: FrameParams, s: StageCoord) -> ImageCoord:
    """One-step stage-to-image map T @ s + (fx*dx, fy*dy).

    Agrees with camera_to_image(stage_to_camera(...)) to rounding; the test
    suite checks the two routes against each other.
    """
    out = mat_vec_mul(transformation_matrix(p), s.vec) + image_offset(p)
    return ImageCoord(out.a0, out.a1)
