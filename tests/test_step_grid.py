"""The step grid of a run is checked once, by ``dynamics.check_steps``,
and walked lazily, by ``dynamics.step_grid``.

``integrate``, ``run_closed_loop`` and ``compare_variants`` reject a grid
that is non-finite or over ``MAX_STEPS`` with a ``ValueError`` before they
allocate for it; config and ``free-response`` call the same check with
their own names for the two values.  Both loops walk ``step_grid``, whose
times are those of the grid built as a list, bit for bit.
"""

import json
import math
from array import array

import pytest

from microinject import cli, dynamics, sim
from microinject.algebra2d import Vec2
from microinject.config import MAX_STEPS, InvariantError, parse_config
from microinject.control import ControllerVariant, ImpedanceParams
from microinject.dynamics import (
    ZERO_FORCE,
    ZERO_TORQUE,
    ForcePair,
    MassParams,
    StageState,
    check_steps,
    grid_rows,
    integrate,
    step_grid,
)
from microinject.frames import FrameParams
from microinject.sim import (
    MembraneModel,
    TrajectoryKind,
    TrajectorySpec,
    compare_variants,
    run_closed_loop,
)

MASSES = MassParams(1.0, 1.0, 1.0)
FRAME = FrameParams(alpha=0.5, dx=0.5, dy=0.5, fx=2.0, fy=4.0)
GAINS = ImpedanceParams(1.0, 20.0, 100.0)
SPEC = TrajectorySpec(kind=TrajectoryKind.QUINTIC, start=Vec2(0.0, 0.0),
                      end=Vec2(1.5, 0.5), duration=3.0)
MEMBRANE = MembraneModel(stiffness=50.0, damping=2.0, contact_x=1.0)
FED = ForcePair(0.5, 0.0)


def run_integrate(t_end, dt):
    s0 = StageState(Vec2(0.0, 0.0), Vec2(1.0, 0.0))
    return integrate(MASSES, s0, ZERO_TORQUE, ZERO_FORCE, t_end, dt)


def run_loop(t_end, dt):
    return run_closed_loop(ControllerVariant.CORRECTED, MASSES, FRAME, GAINS,
                           SPEC, MEMBRANE, FED, t_end, dt)


def run_compare(t_end, dt):
    return compare_variants(
        ControllerVariant.STAGE_CONSISTENT, [ControllerVariant.CORRECTED],
        MASSES, FRAME, GAINS, SPEC, MEMBRANE, FED, t_end, dt)


RUNS = [pytest.param(run, id=run.__name__)
        for run in (run_integrate, run_loop, run_compare)]


@pytest.mark.parametrize("t_end, dt", [(float("inf"), 0.1), (1e308, 1e-308)])
@pytest.mark.parametrize("run", RUNS)
def test_a_non_finite_step_count_raises_value_error(run, t_end, dt):
    with pytest.raises(ValueError) as info:
        run(t_end, dt)
    assert str(info.value) == "t_end / dt must be <= 1000000 steps, got inf"


@pytest.mark.parametrize("run", RUNS)
def test_a_step_count_over_the_cap_raises_before_allocating(run):
    # 10^12 steps: a grid built before the check would exhaust memory
    with pytest.raises(ValueError) as info:
        run(1e12, 1.0)
    assert str(info.value) == "t_end / dt must be <= 1000000 steps, got 1e+12"


@pytest.mark.parametrize("run, t_end, dt, message", [
    (run_integrate, 1.0, 0.0, "dt must be > 0"),
    (run_integrate, 1.0, float("inf"), "dt must be finite"),
    (run_integrate, 0.0, float("inf"), "dt must be finite"),
    (run_integrate, 1.0, float("nan"), "dt must be > 0"),
    (run_integrate, -1.0, 0.1, "t_end must be >= 0"),
    (run_integrate, float("nan"), 0.1, "t_end must be >= 0"),
    (run_loop, 1.0, 0.0, "dt must be > 0"),
    (run_loop, 1.0, float("inf"), "dt must be finite"),
    (run_loop, 0.0, 0.1, "t_end must be > 0"),
    (run_loop, float("nan"), 0.1, "t_end must be > 0"),
    (run_compare, 1.0, -1.0, "dt must be > 0"),
    (run_compare, -1.0, 0.1, "t_end must be > 0"),
])
def test_library_single_error_messages(run, t_end, dt, message):
    with pytest.raises(ValueError) as info:
        run(t_end, dt)
    assert str(info.value) == message


def test_the_closed_loop_reports_t_end_before_dt():
    with pytest.raises(ValueError, match=r"^t_end must be > 0$"):
        run_loop(0.0, 0.0)


def test_a_grid_at_the_cap_is_accepted_and_names_are_the_callers():
    check_steps(float(MAX_STEPS), 1.0)
    check_steps(0.0, 0.1)
    assert len(run_integrate(0.0, 0.1)) == 1
    with pytest.raises(ValueError, match=r"^run\.dt must be > 0$"):
        check_steps(1.0, 0.0, "run.t_end", "run.dt")
    with pytest.raises(ValueError, match=r"^t-end must be >= 0$"):
        check_steps(-1.0, 0.1, "t-end")


def bits(floats):
    """The bytes of ``floats`` as doubles, to compare them bit for bit."""
    return array("d", floats).tobytes()


def list_grid(t_end, dt):
    """The sample times as a list, built as the loops once built them:
    k*dt, then a final partial step landing exactly on t_end."""
    n = int(math.floor(t_end / dt))
    if (n + 1) * dt <= t_end:
        n += 1
    times = [k * dt for k in range(n + 1)]
    if times[-1] < t_end:
        times.append(t_end)
    return times


@pytest.mark.parametrize("t_end, dt", [
    (0.0, 0.1),
    (0.7, 0.3),  # a partial last step
    (0.3, 0.1),  # 0.3 / 0.1 rounds below 3, and 3 * 0.1 lands past 0.3
    (10.0, 1e-3),
    (1.0, 1e-6),  # at the cap, 1.0 / 1e-6 rounding below 10^6
])
def test_the_walk_yields_the_list_grid_bit_for_bit(t_end, dt):
    times = list_grid(t_end, dt)
    widths = [b - a for a, b in zip(times, times[1:])] + [0.0]
    walked = list(step_grid(t_end, dt))
    assert grid_rows(t_end, dt) == len(walked)
    assert bits(t for t, _ in walked) == bits(times)
    assert bits(h for _, h in walked) == bits(widths)
    # integrate names the time after a step t + h: it is the next grid time
    assert all(t + h == b for (t, h), b in zip(walked, times[1:]))


def test_the_walk_is_checked_when_made_and_lazy():
    with pytest.raises(ValueError, match=r"^dt must be > 0$"):
        step_grid(1.0, 0.0)
    grid = step_grid(float(MAX_STEPS), 1.0)
    assert not isinstance(grid, (list, tuple))
    assert next(grid) == (0.0, 1.0)


@pytest.mark.parametrize("run, checks", [
    (run_integrate, 1), (run_loop, 1), (run_compare, 1),
])
def test_each_run_checks_its_grid_once(run, checks, monkeypatch):
    # counted wherever a module holds the check, so that a second check
    # through another name counts too; a comparison's closed loops are
    # lanes of one walk of one grid
    calls = []

    def counting(*args):
        calls.append(args)
        return check_steps(*args)

    monkeypatch.setattr(dynamics, "check_steps", counting)
    monkeypatch.setattr(sim, "check_steps", counting, raising=False)
    run(0.5, 0.01)
    assert len(calls) == checks


FREE_RESPONSE = {"--mx": "1", "--my": "1", "--mp": "1", "--x0": "0",
                 "--y0": "0", "--xd0": "1", "--yd0": "0", "--t-end": "1.0",
                 "--dt": "0.01"}


@pytest.mark.parametrize("flag, value, message", [
    ("--dt", "nan", "dt must be > 0"),
    ("--dt", "0", "dt must be > 0"),
    # a grid that can never reach a t-end > 0
    ("--dt", "inf", "dt must be finite"),
    ("--t-end", "-1", "t-end must be >= 0"),
    ("--t-end", "nan", "t-end must be >= 0"),
    ("--t-end", "inf", "t-end / dt must be <= 1000000 steps, got inf"),
    ("--x0", "inf", "x0 must be finite"),
    ("--yd0", "nan", "yd0 must be finite"),
    # negative spellings that argparse alone would take for options
    ("--mx", "-inf", "mx must be finite"),
    ("--x0", "-Infinity", "x0 must be finite"),
    ("--t-end", "-1e0", "t-end must be >= 0"),
])
def test_free_response_single_error_messages(flag, value, message, tmp_path,
                                             monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "integrate", lambda *args: calls.append(args))
    out = tmp_path / "x.csv"
    argv = ["free-response", "--out", str(out)]
    for name, default in FREE_RESPONSE.items():
        argv += [name, value if name == flag else default]
    assert cli.main(argv) == 2
    assert calls == []
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"microinject: invalid parameters: {message}\n"


RUN = {"t_end": 5.0, "dt": 0.001, "variants": ["StageConsistent"]}


@pytest.mark.parametrize("run, message", [
    ({**RUN, "t_end": -1}, "run.t_end must be > 0"),
    ({**RUN, "t_end": 0.0, "dt": 0.0}, "run.t_end must be > 0"),
    ({**RUN, "t_end": 2.0, "dt": 1e-6},
     "run.t_end / run.dt must be <= 1000000 steps, got 2e+06"),
    ({**RUN, "t_end": 1e308, "dt": 1e-308},
     "run.t_end / run.dt must be <= 1000000 steps, got inf"),
])
def test_config_run_single_error_messages(run, message):
    doc = {
        "frame": {"alpha": 0.5, "dx": 0.5, "dy": 0.5, "fx": 2.0, "fy": 4.0},
        "masses": {"mx": 1.0, "my": 1.0, "mp": 1.0},
        "impedance": {"m": 1.0, "b": 20.0, "k": 100.0},
        "trajectory": {"kind": "Quintic", "start": [0.0, 0.0],
                       "end": [1.5, 0.5], "duration": 3.0},
        "membrane": {"stiffness": 50.0, "damping": 2.0, "contact_x": 1.0},
        "fed": [0.5, 0.0],
        "run": run,
        "seed": 0,
    }
    with pytest.raises(InvariantError) as info:
        parse_config(json.dumps(doc))
    assert str(info.value) == message
