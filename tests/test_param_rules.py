"""Each numeric rule of a parameter type is checked once, by the type.

Built directly, a type raises ``ValueError("<field> must be ...")``; read
from a config, the same rule raises ``InvariantError`` with the section
path in front.  ``run`` has no type: config checks ``run.t_end`` > 0 and
``dynamics.check_steps`` the step grid.
"""

import json
import math
from contextlib import nullcontext

import pytest

from microinject.algebra2d import Vec2
from microinject.config import InvariantError, ParseError, parse_config
from microinject.control import ImpedanceParams
from microinject.dynamics import MassParams
from microinject.frames import FrameParams
from microinject.sim import (
    MembraneModel, TrajectorySpec, run_variants, sample_trajectory,
)

QUINTIC = {
    "frame": {"alpha": 0.5, "dx": 0.5, "dy": 0.5, "fx": 2.0, "fy": 4.0},
    "masses": {"mx": 1.0, "my": 1.0, "mp": 1.0},
    "impedance": {"m": 1.0, "b": 20.0, "k": 100.0},
    "trajectory": {"kind": "Quintic", "start": [0.0, 0.0], "end": [1.5, 0.5],
                   "duration": 3.0},
    "membrane": {"stiffness": 50.0, "damping": 2.0, "contact_x": 1.0},
    "fed": [0.5, 0.0],
    "run": {"t_end": 5.0, "dt": 0.001, "variants": ["Corrected"]},
    "seed": 0,
}
SINUSOID = {**QUINTIC, "trajectory": {
    "kind": "Sinusoid", "start": [0.0, 0.0], "duration": 4.0,
    "amplitude": [0.5, 0.2], "frequency": 0.5,
}}

# (section, type, field, rule) for every numeric field of the five types
TYPED_RULES = [
    ("frame", FrameParams, "alpha", "finite"),
    *[("frame", FrameParams, f, "> 0") for f in ("dx", "dy", "fx", "fy")],
    *[("masses", MassParams, f, "> 0") for f in ("mx", "my", "mp")],
    *[("impedance", ImpedanceParams, f, "> 0") for f in ("m", "b", "k")],
    ("trajectory", TrajectorySpec, "duration", "> 0"),
    ("trajectory", TrajectorySpec, "frequency", "> 0"),
    ("membrane", MembraneModel, "stiffness", ">= 0"),
    ("membrane", MembraneModel, "damping", ">= 0"),
    ("membrane", MembraneModel, "contact_x", "finite"),
]
RUN_RULES = [("run", None, "t_end", "> 0"), ("run", None, "dt", "> 0")]

# values that break each rule, and the part of the message they give
BREAKING = {
    "finite": [(math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite")],
    "> 0": [(0.0, "> 0"), (-0.0, "> 0"), (-1.0, "> 0"), (math.nan, "finite"),
            (math.inf, "finite")],
    ">= 0": [(-1.0, ">= 0"), (-5e-324, ">= 0"), (math.nan, "finite"),
             (math.inf, "finite")],
}
CASES = [
    pytest.param(section, params, field, value, message,
                 id=f"{section}.{field}={value!r}")
    for section, params, field, rule in TYPED_RULES + RUN_RULES
    for value, message in BREAKING[rule]
]


def base_for(field):
    return SINUSOID if field == "frequency" else QUINTIC


def test_the_table_covers_every_numeric_field_of_the_five_types():
    typed = {(params, f) for _, params, f, _ in TYPED_RULES}
    for params in (FrameParams, MassParams, ImpedanceParams, TrajectorySpec,
                   MembraneModel):
        numeric = {name for name, kind in params.__annotations__.items()
                   if "float" in str(kind)}
        assert numeric == {f for p, f in typed if p is params}, params


@pytest.mark.parametrize("section, params, field, value, message", CASES)
def test_a_config_names_the_section_and_field(section, params, field, value,
                                              message):
    doc = json.loads(json.dumps(base_for(field)))
    doc[section][field] = value
    with pytest.raises(InvariantError) as info:
        parse_config(json.dumps(doc))
    assert str(info.value) == f"{section}.{field} must be {message}"


@pytest.mark.parametrize("section, params, field, value, message",
                         [c for c in CASES if c.values[1] is not None])
def test_direct_construction_names_the_field(section, params, field, value,
                                             message):
    valid = getattr(parse_config(json.dumps(base_for(field))), section)
    with pytest.raises(ValueError) as info:
        valid._replace(**{field: value})
    assert type(info.value) is ValueError
    assert str(info.value) == f"{field} must be {message}"


@pytest.mark.parametrize("rule, accepted", [("> 0", 5e-324), (">= 0", 0.0),
                                            (">= 0", -0.0), ("finite", -1e308)])
def test_boundary_values_are_accepted(rule, accepted):
    for section, params, field, field_rule in TYPED_RULES:
        if field_rule != rule:
            continue
        # a Quintic's duration must also have a square > 0 (test_sim), so
        # its "> 0" boundary is taken on a Sinusoid, where that is its rule
        base = SINUSOID if field == "duration" else base_for(field)
        valid = getattr(parse_config(json.dumps(base)), section)
        assert getattr(valid._replace(**{field: accepted}),
                       field) == accepted


def test_a_non_number_is_reported_before_a_bad_value_in_one_section():
    # the types check values once every field of the section is read
    doc = json.loads(json.dumps(QUINTIC))
    doc["masses"].update(mx=-1, my="a")
    with pytest.raises(ParseError, match=r"^masses\.my must be a number$"):
        parse_config(json.dumps(doc))
    doc["masses"]["my"] = 1.0
    with pytest.raises(InvariantError, match=r"^masses\.mx must be > 0$"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("kind, fields, message", [
    ("QUINTIC", {}, "end is required for kind 'Quintic'"),
    ("QUINTIC", {"end": (1, 1), "amplitude": (1, 1)},
     "amplitude is only valid for kind 'Sinusoid'"),
    ("QUINTIC", {"end": (1, 1), "frequency": 1.0},
     "frequency is only valid for kind 'Sinusoid'"),
    ("SINUSOID", {"frequency": 1.0}, "amplitude is required for kind 'Sinusoid'"),
    ("SINUSOID", {"amplitude": (1, 1)}, "frequency is required for kind 'Sinusoid'"),
    ("SINUSOID", {"amplitude": (1, 1), "frequency": 1.0, "end": (1, 1)},
     "end is only valid for kind 'Quintic'"),
])
def test_direct_construction_names_a_kind_dependent_field(kind, fields, message):
    # config rejects the same documents first, with ParseErrors about keys
    from microinject.sim import TrajectoryKind

    values = {name: value if name == "frequency" else Vec2(*value)
              for name, value in fields.items()}
    with pytest.raises(ValueError) as info:
        TrajectorySpec(TrajectoryKind[kind], Vec2(0.0, 0.0), 1.0, **values)
    assert type(info.value) is ValueError
    assert str(info.value) == message


NON_FINITE_POINTS = [
    (kind, name, component, value)
    for kind, names in (("QUINTIC", ("start", "end")),
                        ("SINUSOID", ("start", "amplitude")))
    for name in names
    for component in (0, 1)
    for value in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("kind, name, component, value", NON_FINITE_POINTS)
def test_direct_construction_rejects_a_non_finite_point(kind, name, component,
                                                        value):
    # a Quintic from Vec2(inf, 0.0) used to sample to qd = (nan, 0.0), and a
    # Sinusoid of NaN amplitude was blamed on its frequency
    from microinject.sim import TrajectoryKind

    fields = {"start": Vec2(0.0, 0.0), "duration": 1.0}
    if kind == "QUINTIC":
        fields["end"] = Vec2(1.5, 0.5)
    else:
        fields.update(amplitude=Vec2(0.5, 0.2), frequency=1.0)
    parts = [fields[name].a0, fields[name].a1]
    parts[component] = value
    fields[name] = Vec2(*parts)
    with pytest.raises(ValueError) as info:
        TrajectorySpec(TrajectoryKind[kind], **fields)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{name} components must be finite"

    # config rejects the same document first, with the same words
    doc = json.loads(json.dumps(QUINTIC if kind == "QUINTIC" else SINUSOID))
    doc["trajectory"][name] = parts
    with pytest.raises(InvariantError) as info:
        parse_config(json.dumps(doc))
    assert str(info.value) == f"trajectory.{name} components must be finite"


@pytest.mark.parametrize("frequency, t_end", [(1.7976931348623157e308, 0.2),
                                              (1e307, 5.0)])
def test_a_sinusoid_whose_phase_overflows_by_t_end_is_rejected(frequency,
                                                               t_end):
    # (2*pi*frequency)*t_end, with w formed as the trajectory kernel forms
    # it, is inf: past it math.sin raises
    doc = json.loads(json.dumps(SINUSOID))
    doc["trajectory"]["frequency"] = frequency
    doc["run"]["t_end"] = t_end
    with pytest.raises(InvariantError) as info:
        parse_config(json.dumps(doc))
    assert str(info.value).startswith(
        f"trajectory.frequency is too large for a run to t = {t_end!r}: ")
    # run directly, the same rule is checked before any keeper is entered
    config = parse_config(json.dumps(SINUSOID))
    spec = config.trajectory._replace(frequency=frequency)
    entered = []

    def keeper(shared):
        entered.append(shared)
        return nullcontext(None)

    with pytest.raises(ValueError, match=r"^frequency is too large "):
        run_variants(config.variants, config.masses, config.frame,
                     config.impedance, spec, config.membrane, config.fed,
                     t_end, 0.05, keeper=keeper)
    assert entered == []


@pytest.mark.parametrize("frequency, amplitude", [
    # w * w overflows: the desired acceleration -inf * sin(0) is NaN at
    # row 0, though the phase at t_end 2.0, 1.26e308, is finite
    pytest.param(1e307, [0.5, 0.2], id="w_sq"),
    # w * w is finite and its product with the amplitude is not: the run
    # used to diverge at row 1
    pytest.param(1e150, [1e10, 0.2], id="amplitude"),
])
def test_a_sinusoid_whose_acceleration_overflows_is_rejected(frequency,
                                                             amplitude):
    doc = json.loads(json.dumps(SINUSOID))
    doc["trajectory"].update(frequency=frequency, amplitude=amplitude)
    doc["run"].update(t_end=2.0, dt=0.05)
    with pytest.raises(InvariantError) as info:
        parse_config(json.dumps(doc))
    assert str(info.value) == (
        "trajectory.frequency is too large for the amplitude: the desired "
        "acceleration (2*pi*frequency)**2 * amplitude overflows, got "
        f"{frequency!r}")
    # run directly, the same rule is checked before any keeper is entered
    config = parse_config(json.dumps(SINUSOID))
    spec = config.trajectory._replace(frequency=frequency,
                                      amplitude=Vec2(*amplitude))
    entered = []

    def keeper(shared):
        entered.append(shared)
        return nullcontext(None)

    with pytest.raises(ValueError, match=r"^frequency is too large for the "
                                         r"amplitude: "):
        run_variants(config.variants, config.masses, config.frame,
                     config.impedance, spec, config.membrane, config.fed,
                     2.0, 0.05, keeper=keeper)
    assert entered == []


def test_a_sinusoid_whose_acceleration_stays_finite_runs():
    # w * w is 3.9e301 and its products with the amplitude are finite, so
    # every desired point is; the closed loop then diverges, past row 1,
    # from its own arithmetic
    doc = json.loads(json.dumps(SINUSOID))
    doc["trajectory"]["frequency"] = 1e150
    doc["run"].update(t_end=2.0, dt=0.05)
    config = parse_config(json.dumps(doc))
    (_, _, metrics), = run_variants(
        config.variants, config.masses, config.frame, config.impedance,
        config.trajectory, config.membrane, config.fed, config.t_end,
        config.dt, keeper=lambda shared: nullcontext(lambda block: None))
    assert metrics.diverged and metrics.samples > 2
    for t in (0.05, 1.3, 2.0):
        point = sample_trajectory(config.trajectory, t)
        assert all(math.isfinite(v.a0) and math.isfinite(v.a1)
                   for v in (point.qd, point.qd_dot, point.qd_ddot))


@pytest.mark.parametrize("t, message", [
    # the phase at 0.0 is finite and w * w is not: the point's acceleration
    # used to be -inf * sin(0.0), NaN
    (0.0, "frequency is too large for the amplitude: "),
    # the phase 2*pi*1e307*10.0 overflows: math.sin used to raise its own
    # "math domain error"
    (10.0, "frequency is too large for a run to t = 10.0: "),
], ids=["acceleration", "phase"])
def test_sample_trajectory_applies_the_sinusoid_rules(t, message):
    # a directly built Sinusoid is checked up to the time it is sampled at
    from microinject.sim import TrajectoryKind

    spec = TrajectorySpec(TrajectoryKind.SINUSOID, Vec2(0.0, 0.0), 4.0,
                          amplitude=Vec2(0.5, 0.2), frequency=1e307)
    with pytest.raises(ValueError) as info:
        sample_trajectory(spec, t)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(message)
    assert str(info.value).endswith("got 1e+307")


def test_sample_trajectory_gives_the_kernels_point_where_the_rules_pass():
    # the check raises nothing for an ordinary Sinusoid, one whose phase and
    # acceleration are just finite, or any Quintic, even far past its
    # duration, and the point is the trajectory kernel's, bit for bit
    import microinject.sim as sim

    kind = sim.TrajectoryKind
    cases = [
        (TrajectorySpec(kind.SINUSOID, Vec2(0.8, 0.0), 10.0,
                        amplitude=Vec2(0.4, 0.2), frequency=0.5),
         [0.0, 0.25, 3.7, 10.0, 1e6]),
        (TrajectorySpec(kind.SINUSOID, Vec2(0.0, 0.0), 4.0,
                        amplitude=Vec2(0.5, 0.2), frequency=1e150),
         [0.0, 2.0, 1e150]),
        (TrajectorySpec(kind.QUINTIC, Vec2(0.0, 0.0), 3.0, end=Vec2(1.5, 0.5)),
         [0.0, 1.5, 3.0, 1e308]),
        (TrajectorySpec(kind.QUINTIC, Vec2(-1.0, 2.0), 1e-150,
                        end=Vec2(1e300, -0.0)),
         [0.0, 5e-151, 1e308]),
    ]
    for spec, times in cases:
        desired = sim._trajectory_kernel(spec)
        for t in times:
            point = sample_trajectory(spec, t)
            got = [point.qd.a0, point.qd.a1, point.qd_dot.a0, point.qd_dot.a1,
                   point.qd_ddot.a0, point.qd_ddot.a1]
            assert [v.hex() for v in got] == [v.hex() for v in desired(t)], (
                spec, t)


@pytest.mark.parametrize("sign", [1, -1])
def test_an_integer_too_large_for_a_float_is_not_finite(sign):
    # float() of it raises OverflowError, not a ValueError
    doc = json.loads(json.dumps(QUINTIC))
    doc["masses"]["mx"] = sign * 10 ** 309
    with pytest.raises(InvariantError, match=r"^masses\.mx must be finite$"):
        parse_config(json.dumps(doc))
    doc = json.loads(json.dumps(QUINTIC))
    doc["fed"][1] = sign * 10 ** 309
    with pytest.raises(InvariantError,
                       match=r"^fed components must be finite$"):
        parse_config(json.dumps(doc))
