"""Closed-loop scenario engine.

Wires a desired trajectory, a one-sided membrane contact model, one of the
torque-law variants and the stage dynamics into a deterministic fixed-step
loop.  The controller runs at the integration rate: its output is held
constant across each RK4 step.  Identical inputs produce bit-identical
traces.

The loop steps in plain floats.  Once per scenario it binds the
trajectory kernel, each distinct torque law's entries (``torque_law``)
and the RK4 step, and each lane binds the gains, the membrane and fed.
``run_variants``, the one runner, decides which closed loops run, and its
caller's keeper gives each run's sink; ``run_closed_loop``,
``compare_variants``, ``simulate`` and the discrepancy study take their
runs from it.  Variants whose laws bind the same operators and tail
(``TorqueLaw.key``) share one run: the two stage-space variants always,
and ``Corrected`` with them at the identity frame.  Each distinct law is a
lane, a generator that steps its closed loop a block of grid samples at a
time, and all the lanes of a scenario share one walk of the grid: the
grid is checked once, and the trajectory evaluated once per time,
whatever the number of laws.  Per state a lane evaluates the contact
force, the commanded acceleration, its law's torque, the oracle's and the
impedance residual inline, once each, with no function call, and takes
the RK4 step in one call of ``dynamics.rk4_kernel``'s step.  For
``compare_variants`` the first lane also scores every other law except
the oracle's at each of its finite states, on the c and contact force it
has solved there.  It records those states for one block of rows and, at
the block's end, scores each rival over them in one pass, in row order,
so it holds at most one block of them.  The oracle's gap is that run's
``torque_divergence_rms``, which a lane whose law is the oracle's own
does not sum: each of its rows would add (tau - tau)**2 = +0.0.
A lane hands its rows to a sink, a block of rows at a time, and keeps
none itself.  ``run_closed_loop`` collects the rows in a list.
``compare_variants`` folds each run's tracking gap to the base run as the
blocks come, so it holds no state per row, and hands the rows to the
keeper it is given.  ``sample_trajectory`` wraps the trajectory kernel,
and checks a Sinusoid's rules (``check_sinusoid_phase``) up to its time.

The lane keeps the evaluation order of ``membrane_force`` and of the
number-generic kernels of ``control`` (``commanded_accel_kernel``,
``torque_kernel``, ``force_control_residual_kernel``), which keep that of
the ``Vec2`` algebra, so traces are bit-identical to the ``Vec2``
formulas.  Those kernels are the lane's reference: ``reference`` steps
them one state at a time, and the tests pin the lane to it bit for bit.
"""

from __future__ import annotations

import enum
import math
from contextlib import ExitStack, contextmanager, nullcontext
from typing import (
    Any, Callable, ContextManager, Dict, Generator, Iterable, Iterator, List,
    NamedTuple, Optional, Sequence, Tuple,
)

from .algebra2d import Vec2, check_fields, frozen, mat_inv
from .control import (
    ControllerVariant,
    DesiredTrajectoryPoint,
    ImpedanceParams,
    TorqueLaw,
    torque_law,
)
from .dynamics import (
    ForcePair,
    MassParams,
    mass_matrix,
    rk4_kernel,
    step_grid,
)
from .frames import FrameParams


class TrajectoryKind(enum.Enum):
    QUINTIC = "Quintic"
    SINUSOID = "Sinusoid"


@frozen
class TrajectorySpec:
    """Desired-trajectory description.

    Quintic: minimum-jerk polynomial from ``start`` to ``end`` over
    ``duration`` seconds with zero boundary velocity and acceleration,
    clamped at ``end`` afterwards.  Sinusoid: ``start + amplitude *
    sin(2*pi*frequency*t)`` per axis.  Derivatives are always analytic.
    ``start``, ``end`` and ``amplitude`` must have finite components.
    """

    kind: TrajectoryKind
    start: Vec2
    duration: float
    end: Optional[Vec2] = None
    amplitude: Optional[Vec2] = None
    frequency: Optional[float] = None

    def __post_init__(self) -> None:
        check_fields(self, "> 0", "duration")
        if self.kind is TrajectoryKind.QUINTIC:
            # the quintic's acceleration divides by duration * duration,
            # which underflows to 0 below about 1.5e-162
            if not self.duration * self.duration > 0.0:
                raise ValueError(
                    "duration is too small for kind 'Quintic': its square "
                    f"underflows to 0, got {self.duration!r}")
            if self.end is None:
                raise ValueError("end is required for kind 'Quintic'")
            for name in ("amplitude", "frequency"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} is only valid for kind 'Sinusoid'")
        else:
            for name in ("amplitude", "frequency"):
                if getattr(self, name) is None:
                    raise ValueError(f"{name} is required for kind 'Sinusoid'")
            if self.end is not None:
                raise ValueError("end is only valid for kind 'Quintic'")
            check_fields(self, "> 0", "frequency")
        # a non-finite point gives NaN desired points, which
        # check_sinusoid_phase would blame on the frequency
        for name in ("start", "end", "amplitude"):
            point = getattr(self, name)
            if point is not None and not point.is_finite():
                raise ValueError(f"{name} components must be finite")


@frozen
class MembraneModel:
    """One-sided linear spring-dashpot along x past ``contact_x``.

    Produces the applied contact force; never pulls (x-component floored
    at zero) and never pushes sideways.
    """

    stiffness: float
    damping: float
    contact_x: float

    def __post_init__(self) -> None:
        check_fields(self, ">= 0", "stiffness", "damping")
        check_fields(self, "finite", "contact_x")


class RunMetrics(NamedTuple):
    """Aggregates over the finite rows of one closed-loop trace.

    rms_tracking_error: per-component RMS of e = qd - q.
    max_impedance_residual: worst |m*eddot + b*edot + k*e - fe| with eddot
        the acceleration actually realized by the applied torque.
    torque_divergence_rms: RMS Euclidean gap between the applied torque and
        the stage-consistent oracle torque at the same state.
    samples: number of trace rows handed out (including a flagged
        non-finite final row when ``diverged``).
    """

    rms_tracking_error: Vec2
    max_impedance_residual: float
    torque_divergence_rms: float
    samples: int
    diverged: bool = False


class TraceRow(NamedTuple):
    """The trace CSV schema: one sample of a closed-loop run.

    ``run_closed_loop`` gives each sample as a plain tuple of floats in
    this field order, and ``report`` takes its header from ``_fields``
    and reads a row's columns by their index here.
    """

    t: float
    x: float
    y: float
    xdot: float
    ydot: float
    xd: float
    yd: float
    fex: float
    fey: float
    taux: float
    tauy: float
    taux_oracle: float
    tauy_oracle: float


def _trajectory_kernel(spec: TrajectorySpec) -> Callable[[float], Tuple[float, ...]]:
    """The desired trajectory in floats, with its constants bound once.

    The returned ``desired(t)`` gives (qd0, qd1, qd_dot0, qd_dot1,
    qd_ddot0, qd_ddot1) at time t >= 0.
    """
    start0, start1 = spec.start.a0, spec.start.a1
    if spec.kind is TrajectoryKind.QUINTIC:
        assert spec.end is not None
        end0, end1 = spec.end.a0, spec.end.a1
        delta0, delta1 = end0 - start0, end1 - start1
        duration = spec.duration
        duration_sq = duration * duration

        def quintic(t: float) -> Tuple[float, ...]:
            if t >= duration:
                return end0, end1, 0.0, 0.0, 0.0, 0.0
            sigma = t / duration
            s = sigma * sigma * sigma * (10.0 - 15.0 * sigma + 6.0 * sigma * sigma)
            sd = 30.0 * sigma * sigma * (1.0 - sigma) * (1.0 - sigma) / duration
            sdd = (60.0 * sigma * (1.0 - sigma) * (1.0 - 2.0 * sigma)) / duration_sq
            return (
                start0 + s * delta0, start1 + s * delta1,
                sd * delta0, sd * delta1, sdd * delta0, sdd * delta1,
            )

        return quintic
    assert spec.amplitude is not None and spec.frequency is not None
    amp0, amp1 = spec.amplitude.a0, spec.amplitude.a1
    w = 2.0 * math.pi * spec.frequency
    neg_w_sq = -w * w
    sin, cos = math.sin, math.cos

    def sinusoid(t: float) -> Tuple[float, ...]:
        wt = w * t
        sin_wt = sin(wt)
        cos_wt = cos(wt)
        sd = w * cos_wt
        sdd = neg_w_sq * sin_wt
        return (
            start0 + sin_wt * amp0, start1 + sin_wt * amp1,
            sd * amp0, sd * amp1, sdd * amp0, sdd * amp1,
        )

    return sinusoid


def check_sinusoid_phase(spec: TrajectorySpec, t_end: float) -> None:
    """Raise ValueError unless a Sinusoid's phase w * t_end is finite, with
    w = 2*pi*frequency formed as the trajectory kernel forms it.  Then
    w * t is finite at every time t up to t_end, where ``math.sin`` and
    ``math.cos`` are defined.  Raise it too unless ``(w * w) * |a|`` is
    finite for the amplitude a of each axis, which bounds the kernel's
    desired acceleration and velocity there, so no desired point is NaN
    or infinite.  A Quintic passes."""
    if spec.kind is not TrajectoryKind.SINUSOID:
        return
    w = 2.0 * math.pi * spec.frequency
    if not math.isfinite(w * t_end):
        raise ValueError(
            f"frequency is too large for a run to t = {t_end!r}: "
            f"2*pi*frequency*t overflows, got {spec.frequency!r}")
    w_sq = w * w
    if not (math.isfinite(w_sq * abs(spec.amplitude.a0))
            and math.isfinite(w_sq * abs(spec.amplitude.a1))):
        raise ValueError(
            "frequency is too large for the amplitude: the desired "
            "acceleration (2*pi*frequency)**2 * amplitude overflows, "
            f"got {spec.frequency!r}")


def sample_trajectory(spec: TrajectorySpec, t: float) -> DesiredTrajectoryPoint:
    """Desired point at time t (>= 0) with analytic derivatives.

    A Sinusoid must pass ``check_sinusoid_phase`` up to t, which raises
    ValueError where the point would be NaN or infinite or where
    ``math.sin`` is undefined."""
    if not t >= 0.0:
        raise ValueError("t must be >= 0")
    check_sinusoid_phase(spec, t)
    qd0, qd1, qv0, qv1, qa0, qa1 = _trajectory_kernel(spec)(t)
    return DesiredTrajectoryPoint(Vec2(qd0, qd1), Vec2(qv0, qv1), Vec2(qa0, qa1))


def membrane_force(model: MembraneModel, q: Vec2, qdot: Vec2) -> ForcePair:
    """Contact force at state (q, qdot); zero before contact, never adhesive."""
    x = q.a0
    if x > model.contact_x:
        return ForcePair(max(
            0.0, model.stiffness * (x - model.contact_x) + model.damping * qdot.a0,
        ), 0.0)
    return ForcePair(0.0, 0.0)


# takes each block of rows of a closed loop as the loop makes them
_Sink = Callable[[List[Tuple[float, ...]]], object]

# The grid samples a walk hands its lanes at a time, and so the rows a lane
# hands its sink at a time: a sink is called once a block, not once a row.
# A walk holds one block of samples, and a lane one block of rows (about
# 30 KB) until its sink returns, whatever the length of the run.  What a
# sink keeps is its keeper's: ``run_variants`` holds none of it once it
# returns.  A block's floats outlive the interpreter's float free list (100
# floats), so under tracemalloc, which traces every allocation past that
# list, a loop runs about 3-5 times slower than with rows handed over one
# by one.
_BLOCK_ROWS = 64


def check_run_grid(
    t_end: float, dt: float, t_name: str = "t_end", dt_name: str = "dt"
) -> Iterator[Tuple[float, float]]:
    """Raise ValueError unless t_end > 0 and ``check_steps`` passes; return
    the ``step_grid`` walk it checked."""
    if not t_end > 0.0:
        raise ValueError(f"{t_name} must be > 0")
    return step_grid(t_end, dt, t_name, dt_name)


def run_closed_loop(
    variant: ControllerVariant,
    masses: MassParams,
    frame: FrameParams,
    gains: ImpedanceParams,
    spec: TrajectorySpec,
    membrane: MembraneModel,
    fed: ForcePair,
    t_end: float,
    dt: float,
) -> Tuple[List[Tuple[float, ...]], RunMetrics]:
    """Simulate one controller variant in closed loop.

    The stage starts on the trajectory: q(0) = qd(0), qdot(0) = qd_dot(0).
    Each step samples the desired point and then, inline, measures the
    membrane contact force, forms the stage-frame errors e and edot, solves
    the commanded acceleration c once, evaluates the variant's torque and
    the stage-consistent oracle torque on it, and records a trace row: a
    plain tuple of floats in ``TraceRow``'s field order.  Then one call of
    the RK4 kernel's step advances the dynamics with the variant's torque
    held constant and hands back the acceleration that torque realizes at
    the state, on which the impedance law is scored, inline too; the final
    row takes a zero-width step for it.  The laws' entries and the
    dynamics' operators are bound once per run and the step runs in
    floats, in the operation order of the number-generic kernels of
    ``control``, which the tests hold it to bit for bit.

    A row is tested for divergence by the sum of its four torques, and
    field by field only when that sum is not finite, since finite torques
    can overflow when summed.  The time and the y-component of the contact
    force are finite, and every other field reaches the applied x-torque
    through c by sums and products, each of which is not finite when an
    operand is not (0.0 * inf is NaN), so a row whose torques are finite
    is finite.  On divergence the offending row is recorded as
    the flagged final row, metrics cover the finite prefix, and
    ``diverged`` is set instead of raising.  A bad ``t_end`` or ``dt``
    raises ValueError before the run.  It is one lane of ``run_variants``.
    """
    rows: List[Tuple[float, ...]] = []
    (_, _, metrics), = run_variants(
        [variant], masses, frame, gains, spec, membrane, fed, t_end, dt,
        lambda shared: nullcontext(rows.extend))
    return rows, metrics


def _lane(
    law: TorqueLaw,
    oracle: Optional[TorqueLaw],
    rivals: Sequence[TorqueLaw],
    gains: ImpedanceParams,
    membrane: MembraneModel,
    fed: ForcePair,
    step: Callable[..., Tuple[float, ...]],
    sink: _Sink,
) -> Generator[None, Optional[List[Tuple[float, ...]]],
               Tuple[RunMetrics, List[float]]]:
    """The closed loop of one torque law, ``law``, stepped a block of grid
    samples at a time.

    Primed with ``next``, it takes each block a walk ``send``s it: a list
    of ``(t, h, qd0, qd1, qv0, qv1, qa0, qa1)``, the grid's times, step
    widths and desired points, the first one at t = 0, on which the stage
    starts.  It hands ``sink`` one block of rows per block of samples and
    keeps no row of it once the sink returns; a sink may keep the list
    itself.  It returns ``(metrics, rival_rms)`` when it diverges, after
    handing its sink the block that ends with the flagged row, or when it
    is sent None, the end of the walk.

    ``oracle`` is the stage-consistent law, None when ``law`` is it; then
    ``torque_divergence_rms`` is 0.0 without a sum, since every finite row
    would add (tau - tau)**2 = +0.0.  Every law of ``rivals`` is scored on
    the c, contact force, velocity and applied torque of each finite state
    of a block, recorded as the block is stepped and scored in one pass
    per rival once it ends, in row order, so each rival's sum takes the
    terms it would take row by row; the oracle's law needs no rival, its
    gap is ``torque_divergence_rms``.  ``rival_rms`` holds, per rival, the
    RMS over the finite rows of the Euclidean gap (rival - applied)
    between its torque and the applied one.

    Each state's contact force, c, torques and impedance residual are
    evaluated inline, from the laws' entries, the gains, the membrane and
    fed bound once, in the operation order of ``membrane_force``,
    ``commanded_accel_kernel``, ``torque_kernel`` and
    ``force_control_residual_kernel``, every structural-zero product
    included; the y-component of the contact force is 0.0, and the one
    operation on it dropped here, ``z - 0.0``, gives z for every z.  The
    impedance residual is folded into its max by sign tests, which give
    what ``max(imp_max, max(abs(r0), abs(r1)))`` gives.  The RK4 step is
    one call of ``step``, from ``dynamics.rk4_kernel``.
    """
    l00, l01, l10, l11, n00, n01, n10, n11, fe_tail = law
    own_oracle = oracle is None
    # the stage-consistent law, whose tail is fed
    o00, o01, o10, o11, p00, p01, p10, p11, _ = law if own_oracle else oracle
    fed0, fed1 = fed.fex, fed.fey
    # a law with the fe tail adds the contact force's y-component, 0.0
    tail1 = 0.0 if fe_tail else fed1
    inv_m, m, b, k = 1.0 / gains.m, gains.m, gains.b, gains.k
    stiffness, damping = membrane.stiffness, membrane.damping
    contact_x = membrane.contact_x
    isfinite = math.isfinite
    sq_e0 = 0.0
    sq_e1 = 0.0
    sq_div = 0.0
    sq_rivals = [0.0] * len(rivals)
    imp_max = 0.0
    finite_rows = 0
    diverged = False
    # what the rivals are scored on at each finite state of a block: c, the
    # contact force, the velocity and the applied torque
    scoring = bool(rivals)
    states: List[Tuple[float, ...]] = []
    keep_state = states.append

    samples = yield
    x, y, xdot, ydot = samples[0][2:6]
    while samples is not None:
        block: List[Tuple[float, ...]] = []
        append = block.append
        for t, h, qd0, qd1, qv0, qv1, qa0, qa1 in samples:
            e0 = qd0 - x
            e1 = qd1 - y
            ed0 = qv0 - xdot
            ed1 = qv1 - ydot
            if x > contact_x:
                # max(0.0, f) is f only when f > 0.0: -0.0 and NaN give 0.0
                fex = stiffness * (x - contact_x) + damping * xdot
                if not fex > 0.0:
                    fex = 0.0
            else:
                fex = 0.0
            c0 = qa0 + inv_m * ((b * ed0 + k * e0) - fex)
            c1 = qa1 + inv_m * (b * ed1 + k * e1)
            tau0 = (((l00 * c0 + l01 * c1) + (n00 * xdot + n01 * ydot))
                    + (fex if fe_tail else fed0))
            tau1 = ((l10 * c0 + l11 * c1) + (n10 * xdot + n11 * ydot)) + tail1
            if own_oracle:
                or0, or1 = tau0, tau1
            else:
                or0 = ((o00 * c0 + o01 * c1) + (p00 * xdot + p01 * ydot)) + fed0
                or1 = ((o10 * c0 + o11 * c1) + (p10 * xdot + p11 * ydot)) + fed1
            row = (t, x, y, xdot, ydot, qd0, qd1, fex, 0.0, tau0, tau1, or0, or1)
            append(row)
            # the row is finite when its torques are: see run_closed_loop
            if (not isfinite(tau0 + tau1 + or0 + or1)
                    and not all(map(isfinite, row))):
                diverged = True
                break
            if scoring:
                keep_state((c0, c1, fex, xdot, ydot, tau0, tau1))

            x, y, xdot, ydot, a0, a1 = step(
                tau0 - fed0, tau1 - fed1, x, y, xdot, ydot, h)
            r0 = ((m * (qa0 - a0) + b * ed0) + k * e0) - fex
            r1 = (m * (qa1 - a1) + b * ed1) + k * e1
            # max(imp_max, max(abs(r0), abs(r1))) by sign tests: -0.0 stays
            # and NaN fails every test, so neither moves imp_max (>= 0.0),
            # and a NaN r0 hides r1 as it does there
            if r0 < 0.0:
                r0 = -r0
            if r1 < 0.0:
                r1 = -r1
            if r1 > r0:
                r0 = r1
            if r0 > imp_max:
                imp_max = r0
            sq_e0 += e0 * e0
            sq_e1 += e1 * e1
            # a lane that is its own oracle adds (tau - tau)**2 = +0.0
            if not own_oracle:
                g0 = tau0 - or0
                g1 = tau1 - or1
                sq_div += g0 * g0 + g1 * g1
        finite_rows += len(block) - diverged
        if scoring:
            # each rival's gap at the block's finite states, in row order
            for i, (r00, r01, r10, r11, s00, s01, s10, s11,
                    r_fe) in enumerate(rivals):
                r_tail1 = 0.0 if r_fe else fed1
                sq = sq_rivals[i]
                for sc0, sc1, sfe, sv0, sv1, st0, st1 in states:
                    d0 = ((((r00 * sc0 + r01 * sc1) + (s00 * sv0 + s01 * sv1))
                           + (sfe if r_fe else fed0)) - st0)
                    d1 = ((((r10 * sc0 + r11 * sc1) + (s10 * sv0 + s11 * sv1))
                           + r_tail1) - st1)
                    sq += d0 * d0 + d1 * d1
                sq_rivals[i] = sq
            states.clear()
        sink(block)
        del block, append, row
        if diverged:
            break
        samples = yield

    n = max(finite_rows, 1)
    metrics = RunMetrics(
        rms_tracking_error=Vec2(math.sqrt(sq_e0 / n), math.sqrt(sq_e1 / n)),
        max_impedance_residual=imp_max,
        torque_divergence_rms=math.sqrt(sq_div / n),
        samples=finite_rows + diverged,
        diverged=diverged,
    )
    return metrics, [math.sqrt(sq / n) for sq in sq_rivals]


def _walk(
    grid: Iterable[Tuple[float, float]],
    spec: TrajectorySpec,
    lanes: Sequence[Generator],
) -> List[Tuple[RunMetrics, List[float]]]:
    """Walk ``grid`` once, evaluating the desired trajectory once per time,
    and send each block of ``_BLOCK_ROWS`` samples to every live lane, in
    the order of ``lanes``; return each lane's result, in that order.

    The walk stops early once every lane has diverged.
    """
    desired = _trajectory_kernel(spec)
    block_rows = _BLOCK_ROWS
    results: List[Any] = [None] * len(lanes)
    live = list(enumerate(lanes))
    for _, lane in live:
        next(lane)

    def send(samples: Optional[List[Tuple[float, ...]]]) -> None:
        nonlocal live
        stepping = []
        for index, lane in live:
            try:
                lane.send(samples)
            except StopIteration as stop:
                results[index] = stop.value
            else:
                stepping.append((index, lane))
        live = stepping

    samples: List[Tuple[float, ...]] = []
    append = samples.append
    for t, h in grid:
        append((t, h) + desired(t))
        if len(samples) == block_rows:
            send(samples)
            if not live:
                break
            samples = []
            append = samples.append
    else:
        if samples:
            send(samples)
        send(None)
    return results


# gives the sink of a law's closed loop: see run_variants
_Keeper = Callable[[List[ControllerVariant]], ContextManager[_Sink]]


def run_variants(
    variants: Iterable[ControllerVariant],
    masses: MassParams,
    frame: FrameParams,
    gains: ImpedanceParams,
    spec: TrajectorySpec,
    membrane: MembraneModel,
    fed: ForcePair,
    t_end: float,
    dt: float,
    keeper: _Keeper,
    torque_gaps: Optional[Dict[ControllerVariant, float]] = None,
) -> List[Tuple[ControllerVariant, ControllerVariant, RunMetrics]]:
    """Run each distinct torque law of ``variants`` once, all in one walk.

    Variants share a law when their ``torque_law``s have the same key
    (``TorqueLaw.key``) at ``masses`` and ``frame``: both stage-space
    variants always, and CORRECTED with them at the identity frame.
    Returns ``(variant, source, metrics)`` per variant, in order.  The
    first variant of a law runs in closed loop: ``source`` is the variant
    itself.  A later variant of that law, a repeated one included, reuses
    that run, which is what running it again would give bit for bit:
    ``source`` is the variant that ran and ``metrics`` that run's object.

    The closed loops of all the laws are lanes of one walk of the grid
    (``_walk``), which evaluates the desired trajectory once per time and
    hands each block of samples to every lane in the order of the laws'
    first variants.  ``keeper(shared)`` gives a context manager whose
    ``with`` value is the sink of the run of ``shared``, the distinct
    variants that share a law, the one that runs it first, so a keeper can
    write what each of them needs as the run steps.  What a sink keeps is
    its keeper's: ``run_variants`` holds no row once it returns.  Every
    keeper is entered before the walk and all are closed before it
    returns; an exception raised by a sink ends the walk and reaches the
    caller once they have been.  A bad grid or a sinusoid whose phase
    overflows by ``t_end``, or whose desired acceleration overflows
    (``check_sinusoid_phase``), raises ValueError, and a frame whose T
    cannot be inverted SingularMatrix, before any keeper is entered.

    Given a ``torque_gaps`` dict, on return the dict maps the variant that
    runs each law to the RMS gap between its torque and the first run's
    applied torque along the first run's states.  The first run scores
    every other law except the oracle's, which it evaluates at each state
    anyway: that gap is its ``torque_divergence_rms``.  Other runs score
    nothing.
    """
    variants = list(variants)
    grid = check_run_grid(t_end, dt)
    check_sinusoid_phase(spec, t_end)
    if not variants:
        return []
    laws = [torque_law(v, masses, frame) for v in variants]
    # each law by key, and its distinct variants, the one that runs it first
    sources: Dict[Any, Tuple[TorqueLaw, List[ControllerVariant]]] = {}
    for variant, law in dict(zip(variants, laws)).items():
        sources.setdefault(law.key, (law, []))[1].append(variant)
    oracle = torque_law(ControllerVariant.STAGE_CONSISTENT, masses, frame)
    oracle_key = oracle.key
    # the first run evaluates the oracle's law at each state anyway
    rivals = ([key for key in list(sources)[1:] if key != oracle_key]
              if torque_gaps is not None else [])
    step = rk4_kernel(mat_inv(mass_matrix(masses)))

    with ExitStack() as opened:
        lanes = []
        for key, (law, shared) in sources.items():
            lanes.append(_lane(
                law, None if key == oracle_key else oracle,
                # the first lane scores the rivals
                [] if lanes else [sources[r][0] for r in rivals],
                gains, membrane, fed, step,
                opened.enter_context(keeper(shared)),
            ))
        results = _walk(grid, spec, lanes)
    if torque_gaps is not None:
        metrics, rival_rms = results[0]
        torque_gaps.update(zip((sources[r][1][0] for r in rivals), rival_rms))
        if oracle_key in sources:
            torque_gaps[sources[oracle_key][1][0]] = (
                metrics.torque_divergence_rms)
    # the variant that ran each law, and its metrics
    ran = {key: (shared[0], metrics)
           for (key, (_, shared)), (metrics, _) in zip(sources.items(), results)}
    return [(variant, *ran[law.key]) for variant, law in zip(variants, laws)]


class VariantReport(NamedTuple):
    """One variant's closed-loop metrics and its gaps to the base run."""

    variant: ControllerVariant
    metrics: RunMetrics
    torque_rms_vs_base: float
    tracking_rms_vs_base: float


class ComparisonReport(NamedTuple):
    base: ControllerVariant
    base_metrics: RunMetrics
    reports: Tuple[VariantReport, ...]


def compare_variants(
    base: ControllerVariant,
    others: Sequence[ControllerVariant],
    masses: MassParams,
    frame: FrameParams,
    gains: ImpedanceParams,
    spec: TrajectorySpec,
    membrane: MembraneModel,
    fed: ForcePair,
    t_end: float,
    dt: float,
    keeper: Optional[_Keeper] = None,
) -> ComparisonReport:
    """Run every variant through the same scenario and quantify the gaps.

    ``torque_rms_vs_base`` evaluates the variant's torque law at each
    finite state of the base run, on the c and contact force the base run
    solved there, so it isolates the controller-law disagreement from
    closed-loop state drift (the two runs evolve differently as soon as
    their torques differ).  ``tracking_rms_vs_base`` compares the evolved
    positions of the two runs at equal times.  Divergence in one variant
    is flagged in its metrics and does not abort the others.

    The runs come from ``run_variants``, and a variant that reuses a run
    reports that run's metrics and gaps; one with the base's law has zero
    gaps.  The base run scores every other law as it steps, the oracle's by
    its ``torque_divergence_rms``.  The tracking gaps are folded as the
    walk steps: the base run is the walk's first lane, so each other run's
    sink pairs its block of rows with the base run's block of the same
    samples, handed over just before, and adds to one running sum per run,
    in row order.  No run's rows outlive their block, so a comparison holds
    no state per row.  Each run's sink also hands its rows to the sink of
    ``keeper(shared)``, if given, as ``run_variants`` calls it.
    """
    isfinite = math.isfinite

    def finite(block: List[Tuple[float, ...]]) -> List[Tuple[float, ...]]:
        """``block`` without its last row if that row is not finite: only
        a diverged run's flagged row can be."""
        last = block[-1]
        if isfinite(sum(last)) or all(map(isfinite, last)):
            return block
        return block[:-1]

    # the base run's finite rows of the latest block it stepped, and how
    # many blocks it stepped
    base_rows: List[Tuple[float, ...]] = []
    base_blocks = 0
    # gaps by the variant whose run a report takes
    torque_rms = {base: 0.0}
    tracking_rms = {base: 0.0}

    @contextmanager
    def pairing(
        shared: List[ControllerVariant],
    ) -> Iterator[_Sink]:
        """The sink of the run of the variants ``shared``, which folds its
        tracking gap to the base run; at the end of the run the gap is in
        ``tracking_rms``, by the variant that ran."""
        variant = shared[0]
        with (nullcontext() if keeper is None else keeper(shared)) as sink:
            sq_track = 0.0
            paired = 0
            blocks = 0

            def pair(block: List[Tuple[float, ...]]) -> None:
                nonlocal base_rows, base_blocks, sq_track, paired, blocks
                if sink is not None:
                    sink(block)
                rows = finite(block)
                if variant is base:
                    base_rows = rows
                    base_blocks += 1
                    return
                blocks += 1
                # pairing stops where either run stops being finite
                if blocks == base_blocks:
                    for row, base_row in zip(rows, base_rows):
                        dx = row[1] - base_row[1]
                        dy = row[2] - base_row[2]
                        sq_track += dx * dx + dy * dy
                    paired += min(len(rows), len(base_rows))

            yield pair
        if variant is not base:
            tracking_rms[variant] = math.sqrt(sq_track / max(paired, 1))

    (_, _, base_metrics), *runs = run_variants(
        [base, *others], masses, frame, gains, spec, membrane, fed, t_end, dt,
        pairing, torque_rms,
    )
    reports = tuple(
        VariantReport(variant, metrics, torque_rms[source], tracking_rms[source])
        for variant, source, metrics in runs)
    return ComparisonReport(base, base_metrics, reports)
