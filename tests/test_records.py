"""The plain record types are NamedTuples: immutable, equal and hashed by
their fields, with a ``Name(field=value, ...)`` repr and their defaults.
Each is built twice from fresh field values in its declared order.

The value types are ``algebra2d.frozen`` classes, not tuples, with the
protocol their ``dataclasses`` versions had plus the records' ``_fields``
and ``_replace``: each is built from fresh field values in its declared
order, and its repr is the one the dataclass gave."""

import copy
import math
import pickle

import pytest

from microinject.algebra2d import Mat2, Vec2
from microinject.config import ScenarioConfig
from microinject.control import (
    ControllerVariant, DesiredTrajectoryPoint, ErrorState, ImpedanceParams,
)
from microinject.dynamics import ForcePair, MassParams, StageState, Torque
from microinject.frames import CameraCoord, FrameParams, ImageCoord, StageCoord
from microinject.sim import (
    ComparisonReport, MembraneModel, RunMetrics, TrajectoryKind,
    TrajectorySpec, VariantReport,
)
from microinject.verify import PropertyResult


def _metrics():
    return {"rms_tracking_error": Vec2(0.25, -0.5),
            "max_impedance_residual": 1e-12, "torque_divergence_rms": 0.75,
            "samples": 5001, "diverged": True}


def _variant_report():
    return {"variant": ControllerVariant.MC_PAPER,
            "metrics": RunMetrics(**_metrics()),
            "torque_rms_vs_base": 0.5, "tracking_rms_vs_base": 2e-3}


def _scenario():
    return {
        "frame": FrameParams(alpha=0.5, dx=0.5, dy=0.5, fx=2.0, fy=4.0),
        "masses": MassParams(1.0, 1.0, 1.0),
        "impedance": ImpedanceParams(1.0, 20.0, 100.0),
        "trajectory": TrajectorySpec(TrajectoryKind.QUINTIC, Vec2(0.0, 0.0),
                                     3.0, end=Vec2(1.5, 0.5)),
        "membrane": MembraneModel(50.0, 2.0, 1.0),
        "fed": ForcePair(0.5, 0.0),
        "t_end": 5.0,
        "dt": 0.001,
        "variants": (ControllerVariant.STAGE_CONSISTENT,
                     ControllerVariant.CORRECTED),
        "seed": 7,
    }


# Each record with a function that gives fresh values of its fields, in the
# order the record declares them.
RECORDS = [
    (StageState, lambda: {"q": Vec2(1.0, 2.0), "qdot": Vec2(-0.5, 0.0)}),
    (ErrorState, lambda: {"e": Vec2(1.0, 2.0), "edot": Vec2(0.5, -0.0),
                          "eddot": Vec2(3.0, 4.0)}),
    (DesiredTrajectoryPoint, lambda: {"qd": Vec2(1.5, 0.5),
                                      "qd_dot": Vec2(0.0, 0.1),
                                      "qd_ddot": Vec2(-2.0, 0.0)}),
    (RunMetrics, _metrics),
    (VariantReport, _variant_report),
    (ComparisonReport, lambda: {
        "base": ControllerVariant.STAGE_CONSISTENT,
        "base_metrics": RunMetrics(**_metrics()),
        "reports": (VariantReport(**_variant_report()),)}),
    (ScenarioConfig, _scenario),
    (PropertyResult, lambda: {"name": "frames.roundtrip", "passed": False,
                              "worst": 2.5e-9, "bound": 1e-9, "trials": 100,
                              "detail": "worst >= bound"}),
]


@pytest.fixture(params=RECORDS, ids=lambda r: r[0].__name__)
def record(request):
    return request.param


def test_fields_keep_their_order(record):
    cls, values = record
    assert cls._fields == tuple(values())
    built = cls(**values())
    # a NamedTuple is indexed and iterated in field order
    assert tuple(built) == tuple(values().values())
    assert built[0] == next(iter(values().values()))


def test_is_immutable(record):
    cls, values = record
    built = cls(**values())
    first = next(iter(values()))
    with pytest.raises(AttributeError):
        setattr(built, first, getattr(built, first))
    with pytest.raises(AttributeError):
        built.not_a_field = 1


def test_equal_fields_give_equal_objects_and_hashes(record):
    cls, values = record
    one, two = cls(**values()), cls(**values())
    assert one is not two
    assert one == two
    assert hash(one) == hash(two)


def test_repr_names_each_field(record):
    cls, values = record
    built = cls(**values())
    fields = ", ".join(f"{name}={value!r}" for name, value in values().items())
    assert repr(built) == f"{cls.__name__}({fields})"


def test_defaults_hold():
    metrics = _metrics()
    del metrics["diverged"]
    assert RunMetrics(**metrics).diverged is False
    assert PropertyResult("p", True, 0.0, 1.0, 10).detail == ""


# Each value type with a function that gives fresh values of its fields, in
# the order the type declares them, and the repr of the type built from
# them, as the frozen dataclass wrote it.
VALUES = [
    (Vec2, lambda: {"a0": 1.0, "a1": -2.5}, "Vec2(a0=1.0, a1=-2.5)"),
    (Mat2, lambda: {"m00": 1.0, "m01": 2.0, "m10": -0.0, "m11": 4e-300},
     "Mat2(m00=1.0, m01=2.0, m10=-0.0, m11=4e-300)"),
    (ForcePair, lambda: {"fex": 1.0, "fey": 2.0},
     "ForcePair(fex=1.0, fey=2.0)"),
    (Torque, lambda: {"taux": 1.0, "tauy": 2.0}, "Torque(taux=1.0, tauy=2.0)"),
    (StageCoord, lambda: {"x": 0.5, "y": -0.25}, "StageCoord(x=0.5, y=-0.25)"),
    (CameraCoord, lambda: {"xc": 1.5, "yc": 2.5},
     "CameraCoord(xc=1.5, yc=2.5)"),
    (ImageCoord, lambda: {"u": 3.0, "v": math.inf}, "ImageCoord(u=3.0, v=inf)"),
    (FrameParams, lambda: {"alpha": 0.5, "dx": 0.5, "dy": 0.5, "fx": 2.0,
                           "fy": 4.0},
     "FrameParams(alpha=0.5, dx=0.5, dy=0.5, fx=2.0, fy=4.0)"),
    (MassParams, lambda: {"mx": 1.0, "my": 2.0, "mp": 3.0},
     "MassParams(mx=1.0, my=2.0, mp=3.0)"),
    (ImpedanceParams, lambda: {"m": 1.0, "b": 20.0, "k": 100.0},
     "ImpedanceParams(m=1.0, b=20.0, k=100.0)"),
    (MembraneModel, lambda: {"stiffness": 50.0, "damping": 2.0,
                             "contact_x": 1.0},
     "MembraneModel(stiffness=50.0, damping=2.0, contact_x=1.0)"),
    (TrajectorySpec, lambda: {"kind": TrajectoryKind.QUINTIC,
                              "start": Vec2(0.0, 0.0), "duration": 3.0,
                              "end": Vec2(1.5, 0.5), "amplitude": None,
                              "frequency": None},
     "TrajectorySpec(kind=<TrajectoryKind.QUINTIC: 'Quintic'>, "
     "start=Vec2(a0=0.0, a1=0.0), duration=3.0, end=Vec2(a0=1.5, a1=0.5), "
     "amplitude=None, frequency=None)"),
    (TrajectorySpec, lambda: {"kind": TrajectoryKind.SINUSOID,
                              "start": Vec2(0.8, 0.0), "duration": 10.0,
                              "end": None, "amplitude": Vec2(0.4, 0.2),
                              "frequency": 0.5},
     "TrajectorySpec(kind=<TrajectoryKind.SINUSOID: 'Sinusoid'>, "
     "start=Vec2(a0=0.8, a1=0.0), duration=10.0, end=None, "
     "amplitude=Vec2(a0=0.4, a1=0.2), frequency=0.5)"),
]


@pytest.fixture(params=VALUES, ids=lambda v: v[2].partition("(")[0]
                + (f"-{v[1]()['kind'].value}" if "kind" in v[1]() else ""))
def value(request):
    return request.param


def test_value_fields_keep_their_order(value):
    cls, values, _ = value
    assert cls._fields == cls.__match_args__ == tuple(values())
    built = cls(**values())
    assert [getattr(built, name) for name in cls._fields] == list(
        values().values())
    # built by position, in that order, it is the same value
    assert cls(*values().values()) == built


def test_value_assignment_and_deletion_raise(value):
    cls, values, _ = value
    built = cls(**values())
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(built, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(built, name)
    with pytest.raises(AttributeError):
        built.not_a_field = 1.0
    assert built == cls(**values())


def test_value_equals_its_own_class_only(value):
    cls, values, _ = value
    one, two = cls(**values()), cls(**values())
    assert one is not two
    assert one == two and not one != two
    # not a tuple: it equals no tuple of its values, and + does not
    # concatenate where the type defines no + of its own
    assert one != tuple(values().values())
    assert tuple(values().values()) != one
    if "__add__" not in vars(cls):
        with pytest.raises(TypeError):
            one + one  # type: ignore[operator]


def test_types_of_the_same_shape_are_unequal():
    assert ForcePair(1.0, 2.0) != Torque(1.0, 2.0)
    assert ForcePair(1.0, 2.0) != (1.0, 2.0)
    assert Torque(1.0, 2.0) != (1.0, 2.0)
    assert StageCoord(1.0, 2.0) != CameraCoord(1.0, 2.0)
    assert Vec2(1.0, 2.0) != ImageCoord(1.0, 2.0)


def test_value_equal_values_give_equal_hashes(value):
    cls, values, _ = value
    one, two = cls(**values()), cls(**values())
    assert hash(one) == hash(two) == hash(tuple(values().values()))
    assert len({one, two}) == 1


def test_value_repr_is_the_dataclass_repr(value):
    cls, values, shown = value
    assert repr(cls(**values())) == shown


def test_value_replace_builds_a_checked_copy(value):
    cls, values, _ = value
    built = cls(**values())
    same = built._replace()
    assert same == built and same is not built
    first = cls._fields[0]
    if first != "kind":
        changed = built._replace(**{first: 0.25})
        assert getattr(changed, first) == 0.25
        assert changed._replace(**{first: getattr(built, first)}) == built
    with pytest.raises(TypeError):
        built._replace(not_a_field=1.0)


def test_replace_checks_a_frame_again_and_gives_its_own_rotation():
    frame = FrameParams(alpha=0.5, dx=0.5, dy=0.5, fx=2.0, fy=4.0)
    rotation = frame.rotation
    with pytest.raises(ValueError, match=r"^dx must be > 0$"):
        frame._replace(dx=-1.0)
    moved = frame._replace(dx=3.0)
    assert "rotation" not in vars(moved)
    assert moved.rotation == rotation and moved.rotation is not rotation
    assert frame._replace(alpha=-1.2).rotation != rotation
    sinusoid = TrajectorySpec(TrajectoryKind.SINUSOID, Vec2(0.8, 0.0), 10.0,
                              amplitude=Vec2(0.4, 0.2), frequency=0.5)
    with pytest.raises(ValueError, match=r"^end is only valid for kind "):
        sinusoid._replace(end=Vec2(1.0, 1.0))


def test_value_deepcopy_and_pickle_round_trip(value):
    cls, values, shown = value
    built = cls(**values())
    for twin in (copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert type(twin) is cls
        assert twin == built and twin is not built
        assert repr(twin) == shown
        with pytest.raises(AttributeError):
            setattr(twin, cls._fields[0], 0.0)


@pytest.mark.parametrize("how", ["missing-positional", "missing-keyword",
                                 "extra-positional", "extra-keyword",
                                 "repeated"])
def test_value_rejects_a_missing_or_extra_argument(value, how):
    cls, values, _ = value
    given = values()
    # a field with a default (TrajectorySpec's last three) is a class
    # attribute; the last field without one is left out
    required = [name for name in given if not hasattr(cls, name)][:-1]
    first = next(iter(given))
    if how == "missing-positional":
        args, kwargs = [given[name] for name in required], {}
    elif how == "missing-keyword":
        args, kwargs = [], {name: given[name] for name in required}
    elif how == "extra-positional":
        args, kwargs = [*given.values(), 1.0], {}
    elif how == "extra-keyword":
        args, kwargs = [], {**given, "not_a_field": 1.0}
    else:
        args, kwargs = list(given.values()), {first: given[first]}
    message = {"missing-positional": "missing 1 required",
               "missing-keyword": "missing 1 required",
               "extra-positional": "positional arguments but",
               "extra-keyword": "unexpected keyword argument 'not_a_field'",
               "repeated": f"multiple values for argument '{first}'"}[how]
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) .*"
                                        f"{message}"):
        cls(*args, **kwargs)
