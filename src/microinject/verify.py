"""Randomized numerical verification suites.

Each suite turns one family of model identities into a seeded ensemble
check and reports the worst-case residual observed.  Draws come from
numpy's PCG64 generator so a (seed, trials) pair replicates exactly.

Suites:

* ``frames``       frame-transform composition, rotation orthogonality,
                   transform invertibility, round trips.
* ``dynamics``     closed-form free response against the stage dynamics,
                   RK4 accuracy and convergence order, image-space
                   operators, long-time asymptotics.
* ``implication``  impedance law + dynamics imply the stage-consistent
                   torque law.
* ``discrepancy``  quantified separation of the faulty torque-law variants
                   from the transform-weighted form.

How the draws are made: ``frames`` and ``dynamics`` draw each input column
for the whole ensemble in one call.  The control suites draw one row per
trial, all of a trial's inputs in their scalar draw order (25 columns for
``implication``, 26 with the scaling factor for ``discrepancy``), with one
``rng.random`` fill per chunk of at most ``_CHUNK_ROWS`` rows, scaled in
place to lo + (hi - lo) * u; the values are those of one scalar
``rng.uniform`` call per input, in the same order.

Every suite evaluates a chunk of at most ``_CHUNK_ROWS`` trials at a
time, on float64 columns, one lane per trial.  The maps of ``frames`` and
the kernels of ``control`` and ``dynamics`` are number-generic, so each
call gives every lane the bits it gives that trial's floats; ``_lanes``
builds the parameter objects that hold the lanes.  A chunk's lane frame
computes its cosines and sines once (``FrameParams.rotation``), and every
map, check and ``torque_kernel`` of the chunk reads them; no suite writes a
frame's arrays.  ``frames`` applies the public frame maps to slices of its
columns.  ``dynamics`` binds ``free_response_kernel`` and
``inverse_dynamics_kernel`` once per slice of its columns and evaluates
every lane at one of the 100 sample times at a time; its image-space
residual evaluates the central differences at its 60 sample times as one
call per stencil point, one lane per time.  Per chunk, ``implication``
forms the required torque and tests the impedance-law precondition and
solves the commanded acceleration once, then applies the check to the
STAGE_CONSISTENT and the identity-frame CORRECTED ``torque_kernel``;
``discrepancy`` solves c once with the drawn gains and once with the
scaled ones, and evaluates ``torque_kernel`` on it at the skewed, the
identity and the drawn frames, building each law once.
The ``Vec2`` functions wrap the same kernels, so each suite checks the
code the rest of the package runs.  The RK4 checks
(``dynamics.rk4_matches_closed_form`` and ``dynamics.rk4_order``) call
``integrate``, take only the time and position columns of its
``(t, x, y, xdot, ydot)`` rows, one array each, and compare every
sample with one lane call of ``free_response_kernel``.

Residuals are folded into their worst case with ``algebra2d.fold_worst``,
the fold ``free-response`` uses too, and the lanes of a chunk with
``_fold_lanes``, which gives what ``fold_worst`` gives trial by
trial.  Both keep a NaN: a property whose residual is NaN fails.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from .algebra2d import (
    Vec2,
    det,
    fold_worst,
    lane_max,
    mat_inv,
    mat_mul,
    mat_vec_mul,
    transpose,
)
from .config import MAX_TRIALS, SUITE_NAMES  # noqa: F401  (re-exported)
from .control import (
    ControllerVariant,
    ImpedanceParams,
    PreconditionViolated,
    commanded_accel_kernel,
    impedance_accel_kernel,
    implication_check,
    required_torque_kernel,
    torque_kernel,
)
from .dynamics import (
    ForcePair,
    MassParams,
    StageState,
    ZERO_FORCE,
    ZERO_TORQUE,
    free_response_kernel,
    image_space_operators,
    integrate,
    inverse_dynamics_kernel,
    mass_matrix,
)
from .frames import (
    FrameParams,
    StageCoord,
    camera_to_image,
    image_offset,
    stage_to_camera,
    stage_to_image,
    transformation_matrix,
)

_DEFAULT_TRIALS = {
    "frames": 10_000,
    "dynamics": 1_000,
    "implication": 10_000,
    "discrepancy": 10_000,
}

# Rows per generator call of the control suites, and lanes per kernel call
# of the lane suites; bounds the arrays held at once.
_CHUNK_ROWS = 1024


class PropertyResult(NamedTuple):
    """Outcome of one ensemble property check.

    ``worst`` is the worst-case residual (or, for separation/order checks,
    the extremal observed value) and ``bound`` the acceptance threshold;
    ``detail`` explains the comparison direction when it is not
    worst <= bound.
    """

    name: str
    passed: bool
    worst: float
    bound: float
    trials: int
    detail: str = ""


def _at_most(name: str, worst: float, bound: float, trials: int,
             detail: str = "") -> PropertyResult:
    """A property that passes when ``worst <= bound`` (a NaN fails)."""
    return PropertyResult(name, worst <= bound, worst, bound, trials, detail)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _trials(suite: str, trials: Optional[int]) -> int:
    if trials is None:
        return _DEFAULT_TRIALS[suite]
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    return trials


def _draw_rows(
    rng: np.random.Generator, bounds: Sequence[Tuple[float, float]], n: int,
) -> Iterator[np.ndarray]:
    """``n`` rows of uniform draws, column j in [lo_j, hi_j) of ``bounds``,
    in chunks of at most ``_CHUNK_ROWS`` rows, each yielded as its columns:
    a float64 array of shape (len(bounds), rows).

    One ``rng.random`` fill per chunk, scaled in place to lo + (hi - lo) * u.
    ``rng.uniform(lo, hi, shape)`` reads the same doubles in the same
    row-major order and computes that same expression, so the rows hold the
    values of scalar ``rng.uniform(lo_j, hi_j)`` calls made column by
    column, row by row; the fill skips its broadcasting of the bounds.
    """
    lo = np.array([b[0] for b in bounds])
    span = np.array([b[1] for b in bounds]) - lo
    for start in range(0, n, _CHUNK_ROWS):
        u = rng.random((min(_CHUNK_ROWS, n - start), len(bounds)))
        u *= span
        u += lo
        yield np.ascontiguousarray(u.T)


def _fold_lanes(acc: float, *columns: np.ndarray, lowest: bool = False) -> float:
    """``fold_worst`` of ``acc`` with every lane of ``columns``, as a per-trial
    loop folds them.

    Such a fold ends at a NaN when one is folded, and otherwise at the
    largest value (the smallest with ``lowest``) when it beats ``acc``.
    numpy's max and min return NaN when a lane is NaN, so folding each
    column's extreme gives the same result.
    """
    for column in columns:
        if column.size:
            extreme = column.min() if lowest else column.max()
            acc = fold_worst(acc, float(extreme), lowest=lowest)
    return acc


def _lanes(params: type, *columns: np.ndarray):
    """An instance of the ``algebra2d.frozen`` type ``params`` whose fields,
    in ``params._fields`` order, hold the float64 ``columns``, one lane per
    trial.

    Its ``__post_init__`` checks one float per field and is not run: the
    bounds of every column drawn into these types, and the products of
    such columns that scale the gains, keep each lane finite and > 0, and
    every drawn alpha finite, inside the range it checks.
    """
    instance = object.__new__(params)
    for name, column in zip(params._fields, columns):
        object.__setattr__(instance, name, column)
    return instance


# --- frames ----------------------------------------------------------------

# alpha, dx, dy, fx, fy of a frame and the x, y of a stage point, each
# drawn as one column for the whole ensemble
_FRAMES_SUITE_BOUNDS = ((-math.pi, math.pi), (1e-3, 10.0), (1e-3, 10.0),
                        (0.1, 10.0), (0.1, 10.0), (-1e3, 1e3), (-1e3, 1e3))


def frames_suite(seed: int, trials: Optional[int] = None) -> List[PropertyResult]:
    n = _trials("frames", trials)
    rng = _rng(seed)
    columns = [rng.uniform(lo, hi, n) for lo, hi in _FRAMES_SUITE_BOUNDS]

    worst_comp = 0.0
    worst_rot = 0.0
    worst_inv = 0.0
    worst_round = 0.0
    for start in range(0, n, _CHUNK_ROWS):
        alpha, dx, dy, fx, fy, sx, sy = (
            column[start:start + _CHUNK_ROWS] for column in columns)
        p = _lanes(FrameParams, alpha, dx, dy, fx, fy)
        s = StageCoord(sx, sy)

        one = stage_to_image(p, s)
        two = camera_to_image(p, stage_to_camera(p, s))
        worst_comp = _fold_lanes(worst_comp, abs(one.u - two.u),
                                 abs(one.v - two.v))

        r = p.rotation
        rtr = mat_mul(transpose(r), r)
        worst_rot = _fold_lanes(
            worst_rot,
            abs(rtr.m00 - 1.0), abs(rtr.m01), abs(rtr.m10), abs(rtr.m11 - 1.0),
            abs(det(r) - 1.0),
        )

        t = transformation_matrix(p)
        t_inv = mat_inv(t)
        prod = mat_mul(t, t_inv)
        worst_inv = _fold_lanes(
            worst_inv,
            abs(det(t) - fx * fy) / (fx * fy),
            abs(prod.m00 - 1.0), abs(prod.m01),
            abs(prod.m10), abs(prod.m11 - 1.0),
        )

        back = mat_vec_mul(t_inv, one.vec - image_offset(p))
        worst_round = _fold_lanes(worst_round, abs(back.a0 - sx),
                                  abs(back.a1 - sy))

    return [
        _at_most("frames.composition", worst_comp, 1e-9, n),
        _at_most("frames.rotation_orthogonality", worst_rot, 1e-12, n),
        _at_most("frames.transform_invertibility", worst_inv, 1e-12, n),
        _at_most("frames.round_trip", worst_round, 1e-9, n),
    ]


# --- dynamics ----------------------------------------------------------------

def max_error_vs_closed_form(
    masses: MassParams, ics: Tuple[float, float, float, float],
    t_end: float, dt: float,
) -> float:
    """The worst position error of the torque-free ``integrate`` run from
    ``ics`` = (x0, y0, xd0, yd0) against the closed form."""
    x0, y0, xd0, yd0 = ics
    s0 = StageState(Vec2(x0, y0), Vec2(xd0, yd0))
    samples = integrate(masses, s0, ZERO_TORQUE, ZERO_FORCE, t_end, dt)
    # one lane per sample time; only the t, x and y columns are converted,
    # and the rows are dropped before the closed form runs, so its lanes do
    # not add to the trajectory at the memory peak
    times, xs, ys = (np.fromiter(map(itemgetter(i), samples), float,
                                 len(samples)) for i in range(3))
    del samples
    x, y, *_ = free_response_kernel(masses, x0, y0, xd0, yd0)(times)
    return _fold_lanes(0.0, abs(xs - x), abs(ys - y))


def _image_space_residual(h: float = 1e-3) -> float:
    # free-response trajectory watched through the stage-to-image map;
    # derivatives from 4th-order central differences on the pixel signal
    masses = MassParams(1.0, 0.5, 0.5)
    frame = FrameParams(alpha=math.pi / 6, dx=0.5, dy=0.25, fx=2.0, fy=4.0)
    t_mat = transformation_matrix(frame)
    off = image_offset(frame)
    iner, pos_fin = image_space_operators(masses, frame)
    closed_form = free_response_kernel(masses, 0.4, -0.3, 1.2, -0.8)

    def u(t: np.ndarray) -> Vec2:
        x, y, *_ = closed_form(t)
        return mat_vec_mul(t_mat, Vec2(x, y)) + off

    # the 60 sample times as one lane each; every operation is elementwise,
    # so each lane gets the bits of its time's float evaluation
    t = np.linspace(0.1, 10.0, 60)
    step = h * lane_max(1.0, abs(t))
    um2, um1, u0 = u(t - 2 * step), u(t - step), u(t)
    up1, up2 = u(t + step), u(t + 2 * step)
    udot = (-up2 + up1.scale(8.0) - um1.scale(8.0) + um2).scale(
        1.0 / (12.0 * step)
    )
    uddot = (
        -up2 + up1.scale(16.0) - u0.scale(30.0) + um1.scale(16.0) - um2
    ).scale(1.0 / (12.0 * step * step))
    res = mat_vec_mul(iner, uddot) + mat_vec_mul(pos_fin, udot)
    return _fold_lanes(0.0, abs(res.a0), abs(res.a1))


def dynamics_suite(seed: int, trials: Optional[int] = None) -> List[PropertyResult]:
    n = _trials("dynamics", trials)
    rng = _rng(seed)
    m_draw = rng.uniform(0.1, 10.0, (n, 3))
    q_draw = rng.uniform(-10.0, 10.0, (n, 4))

    worst_resid = 0.0
    worst_asym = 0.0
    for start in range(0, n, _CHUNK_ROWS):
        masses = _lanes(MassParams, *m_draw[start:start + _CHUNK_ROWS].T)
        x0, y0, xd0, yd0 = q_draw[start:start + _CHUNK_ROWS].T
        scale = lane_max(1.0, abs(xd0), abs(yd0))
        horizon = 10.0 * masses.total_x
        closed_form = free_response_kernel(masses, x0, y0, xd0, yd0)
        lhs = inverse_dynamics_kernel(mass_matrix(masses))
        # one sample time of every lane at a time, which keeps the
        # temporaries at the size of one chunk
        for j in range(100):
            _, _, xd, yd, xdd, ydd = closed_form(horizon * j / 99.0)
            # torque and force are zero, so M@qddot + B@qdot is the residual
            r0, r1 = lhs(xdd, ydd, xd, yd)
            worst_resid = _fold_lanes(worst_resid, abs(r0) / scale,
                                      abs(r1) / scale)

        limit_x = x0 + xd0 * masses.total_x
        limit_y = y0 + yd0 * masses.total_y
        x, y, *_ = closed_form(50.0 * lane_max(masses.total_x, masses.total_y))
        limit_scale = lane_max(1.0, lane_max(abs(limit_x), abs(limit_y)))
        worst_asym = _fold_lanes(worst_asym, abs(x - limit_x) / limit_scale,
                                 abs(y - limit_y) / limit_scale)

    rk4_err = max_error_vs_closed_form(
        MassParams(1.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0), 10.0, 1e-3
    )

    order_masses = MassParams(0.2, 0.2, 0.1)
    order_ics = (0.0, 0.0, 2.0, 2.0)
    errs = [
        max_error_vs_closed_form(order_masses, order_ics, 5.0, dt)
        for dt in (1e-2, 5e-3, 2.5e-3)
    ]
    min_ratio = fold_worst(errs[0] / errs[1], errs[1] / errs[2], lowest=True)

    image_resid = _image_space_residual()

    return [
        _at_most("dynamics.closed_form_residual", worst_resid, 1e-10, n,
                 detail="residual scaled by max(1,|xd0|,|yd0|)"),
        _at_most("dynamics.rk4_matches_closed_form", rk4_err, 1e-6, 1,
                 detail="unit masses, dt=1e-3, t in [0,10]"),
        PropertyResult("dynamics.rk4_order", min_ratio >= 8.0, min_ratio, 8.0,
                       1, detail="min error ratio per dt halving, must be >= 8"),
        _at_most("dynamics.image_space_residual", image_resid, 1e-6, 1,
                 detail="4th-order central differences on the pixel signal"),
        _at_most("dynamics.asymptotic_positions", worst_asym, 1e-8, n,
                 detail="relative gap to (x0+xd0*Mx, y0+yd0*My)"),
    ]


# --- implication and discrepancy ---------------------------------------------

# Column bounds of one control-ensemble row, in draw order: masses (mx, my,
# mp), gains (m, b, k), the desired qd, qd_dot and qd_ddot, the errors e and
# edot, and the forces fe and fed.
_CONTROL_CASE_BOUNDS = (
    ((0.1, 10.0),) * 3
    + ((0.1, 10.0), (0.1, 50.0), (0.1, 200.0))
    + ((-5.0, 5.0),) * 6
    + ((-2.0, 2.0),) * 4
    + ((-10.0, 10.0),) * 4
)
# alpha, dx, dy, fx, fy of a random frame
_FRAME_BOUNDS = ((-math.pi, math.pi), (0.1, 5.0), (0.1, 5.0), (0.1, 10.0),
                 (0.1, 10.0))
_FRAME_COLUMNS = slice(len(_CONTROL_CASE_BOUNDS),
                       len(_CONTROL_CASE_BOUNDS) + len(_FRAME_BOUNDS))
# the common factor of the gain-scaling check
_LAMBDA_BOUNDS = ((0.1, 100.0),)
# the frames at which the transform-weighted law must collapse onto the
# stage-space one, and must depart from it
_IDENTITY_FRAME = FrameParams(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
_SKEWED_FRAME = FrameParams(alpha=math.pi / 6, dx=1.0, dy=1.0, fx=2.0, fy=4.0)


def _control_lanes(
    columns: np.ndarray,
) -> Tuple[MassParams, ImpedanceParams, Tuple[np.ndarray, ...], np.ndarray,
           np.ndarray, ForcePair]:
    """The scenarios of a chunk of control rows, one lane per trial, whose
    actual states satisfy the impedance law exactly: eddot is solved from
    the law and qddot = qd_ddot - eddot.

    Returns (masses, gains, states, fe0, fe1, fed), with ``states`` the
    desired (qd, qd_dot, qd_ddot) and actual (q, qdot, qddot) components in
    the argument order of the ``check`` from ``implication_check``.
    """
    (mx, my, mp, m, b, k, qd0, qd1, qv0, qv1, qa0, qa1, e0, e1, ed0, ed1,
     fe0, fe1, fed0, fed1) = columns[:len(_CONTROL_CASE_BOUNDS)]
    gains = _lanes(ImpedanceParams, m, b, k)
    edd0, edd1 = impedance_accel_kernel(gains)(e0, e1, ed0, ed1, fe0, fe1)
    states = (qd0, qd1, qv0, qv1, qa0, qa1,
              qd0 - e0, qd1 - e1, qv0 - ed0, qv1 - ed1, qa0 - edd0, qa1 - edd1)
    return (_lanes(MassParams, mx, my, mp), gains, states, fe0, fe1,
            ForcePair(fed0, fed1))


def _implication_residuals(
    columns: np.ndarray,
) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray],
           np.ndarray]:
    """The implication residuals of a chunk of control rows, one lane per
    trial: the STAGE_CONSISTENT residual, the CORRECTED one at the identity
    frame and the scale max(1, ||tau||_inf) of the dynamics-inversion
    torque.

    Raises PreconditionViolated, naming the first violating lane, when a
    lane's states break the impedance law.
    """
    masses, gains, states, fe0, fe1, fed = _control_lanes(columns)
    *_, v0, v1, a0, a1 = states
    required = required_torque_kernel(mass_matrix(masses), fed)
    t0, t1 = required(a0, a1, v0, v1)
    residual_of = implication_check(gains, required, *states, fe0, fe1)
    return (
        residual_of(torque_kernel(ControllerVariant.STAGE_CONSISTENT, masses,
                                  _IDENTITY_FRAME, fed)),
        residual_of(torque_kernel(ControllerVariant.CORRECTED, masses,
                                  _IDENTITY_FRAME, fed)),
        lane_max(1.0, abs(t0), abs(t1)),
    )


def implication_suite(seed: int, trials: Optional[int] = None) -> List[PropertyResult]:
    n = _trials("implication", trials)
    worst_stage = 0.0
    worst_ident = 0.0
    start = 0
    # the frame columns are drawn but not read: the stage-consistent law
    # reads no frame, and dropping them would change every row's values
    chunks = _draw_rows(_rng(seed), _CONTROL_CASE_BOUNDS + _FRAME_BOUNDS, n)
    for columns in chunks:
        try:
            stage, ident, scale = _implication_residuals(columns)
        except PreconditionViolated as exc:
            trial = start + exc.lane
            raise PreconditionViolated(f"trial {trial}: {exc}", trial) from exc
        worst_stage = _fold_lanes(worst_stage, abs(stage[0]) / scale,
                                  abs(stage[1]) / scale)
        worst_ident = _fold_lanes(worst_ident, abs(ident[0]) / scale,
                                  abs(ident[1]) / scale)
        start += scale.size
    return [
        _at_most("implication.stage_consistent", worst_stage, 1e-9, n,
                 detail="residual scaled by max(1,||tau||_inf)"),
        _at_most("implication.corrected_identity_frame", worst_ident, 1e-9, n,
                 detail="transform-weighted law at fx=fy=1, alpha=0"),
    ]


def discrepancy_suite(seed: int, trials: Optional[int] = None) -> List[PropertyResult]:
    n = _trials("discrepancy", trials)
    corrected = ControllerVariant.CORRECTED

    min_gap = math.inf
    max_gap = 0.0
    worst_collapse = 0.0
    worst_subst = 0.0
    worst_scaling = 0.0
    all_separated = True
    chunks = _draw_rows(_rng(seed),
                        _CONTROL_CASE_BOUNDS + _FRAME_BOUNDS + _LAMBDA_BOUNDS, n)
    for columns in chunks:
        masses, gains, states, fe0, fe1, fed = _control_lanes(columns)
        qd0, qd1, qv0, qv1, qa0, qa1, q0, q1, v0, v1, _, _ = states
        # the errors as the controller sees them, from the actual states
        e0, e1 = qd0 - q0, qd1 - q1
        ed0, ed1 = qv0 - v0, qv1 - v1
        c0, c1 = commanded_accel_kernel(gains)(qa0, qa1, e0, e1, ed0, ed1,
                                               fe0, fe1)
        law_args = (c0, c1, fe0, fe1, v0, v1)

        s0, s1 = torque_kernel(ControllerVariant.SIM_PAPER, masses,
                               _SKEWED_FRAME, fed)(*law_args)
        k0, k1 = torque_kernel(corrected, masses, _SKEWED_FRAME,
                               fed)(*law_args)
        d0, d1 = abs(s0 - k0), abs(s1 - k1)
        # fold_worst(d0, d1) lane by lane
        gap = np.where(np.isnan(d1) | (d1 > d0), d1, d0)
        # a NaN commanded acceleration is != 0.0, so its trial is checked
        gap = gap[(c0 != 0.0) | (c1 != 0.0)]
        min_gap = _fold_lanes(min_gap, gap, lowest=True)
        max_gap = _fold_lanes(max_gap, gap)
        if (gap <= 0.0).any():
            all_separated = False

        # the stage-space law reads no frame: SimPaper at the identity frame
        # is (s0, s1)
        i0, i1 = torque_kernel(corrected, masses, _IDENTITY_FRAME,
                               fed)(*law_args)
        worst_collapse = _fold_lanes(worst_collapse, abs(s0 - i0), abs(s1 - i1))

        frame = _lanes(FrameParams, *columns[_FRAME_COLUMNS])
        corrected_at_frame = torque_kernel(corrected, masses, frame, fed)
        f0, f1 = corrected_at_frame(*law_args)
        m0, m1 = torque_kernel(ControllerVariant.MC_PAPER, masses, frame,
                               fed)(*law_args)
        scale = lane_max(1.0, abs(f0), abs(f1))
        worst_subst = _fold_lanes(
            worst_subst,
            abs((m0 - f0) - (fe0 - fed.fex)) / scale,
            abs((m1 - f1) - (fe1 - fed.fey)) / scale,
        )

        # the same law on c solved with the scaled gains and force
        lam = columns[-1]
        scaled_gains = _lanes(ImpedanceParams,
                              lam * gains.m, lam * gains.b, lam * gains.k)
        sfe0, sfe1 = lam * fe0, lam * fe1
        sc0, sc1 = commanded_accel_kernel(scaled_gains)(
            qa0, qa1, e0, e1, ed0, ed1, sfe0, sfe1,
        )
        g0, g1 = corrected_at_frame(sc0, sc1, sfe0, sfe1, v0, v1)
        term_mag = (
            gains.b * lane_max(abs(ed0), abs(ed1))
            + gains.k * lane_max(abs(e0), abs(e1))
            + lane_max(abs(fe0), abs(fe1))
        ) / gains.m
        scale = lane_max(1.0, lane_max(abs(f0), abs(f1)), 30.0 * term_mag)
        worst_scaling = _fold_lanes(worst_scaling, abs(g0 - f0) / scale,
                                    abs(g1 - f1) / scale)

    if min_gap is math.inf:
        min_gap = 0.0
    return [
        PropertyResult(
            "discrepancy.missing_transform_gap", all_separated and min_gap > 0.0,
            min_gap, 0.0, n,
            detail=f"gap range [{min_gap:.3e}, {max_gap:.3e}] at alpha=pi/6, "
                   "fx=2, fy=4; must stay > 0",
        ),
        # worst_collapse is >= 0 or NaN, so <= 0.0 is == 0.0
        _at_most("discrepancy.identity_frame_collapse", worst_collapse, 0.0, n,
                 detail="bit-exact agreement required at fx=fy=1, alpha=0"),
        _at_most("discrepancy.force_substitution_identity", worst_subst, 1e-12,
                 n, detail="(McPaper - Corrected) - (fe - fed), scaled"),
        _at_most("discrepancy.gain_scaling_invariance", worst_scaling, 1e-12,
                 n, detail="common positive factor on (m, b, k, fe)"),
    ]


_SUITES: Dict[str, Callable[[int, Optional[int]], List[PropertyResult]]] = {
    "frames": frames_suite,
    "dynamics": dynamics_suite,
    "implication": implication_suite,
    "discrepancy": discrepancy_suite,
}


def run_suite(name: str, seed: int, trials: Optional[int] = None) -> List[PropertyResult]:
    """Run one named suite (or 'all', every suite in ``SUITE_NAMES`` order).

    Unknown names and ``trials <= 0`` raise ValueError; ``trials=None``
    runs each suite's default ensemble.
    """
    if name == "all":
        results: List[PropertyResult] = []
        for suite in _SUITES.values():
            results.extend(suite(seed, trials))
        return results
    if name not in _SUITES:
        raise ValueError(f"unknown suite '{name}' (valid: {', '.join(SUITE_NAMES)})")
    return _SUITES[name](seed, trials)
