"""The plain record types are NamedTuples: immutable, equal and hashed by
their fields, with the dataclass repr and their defaults.  Each is built
twice from fresh field values in its declared order."""

import pytest

from microinject.algebra2d import Vec2
from microinject.config import ScenarioConfig
from microinject.control import (
    ControllerVariant, DesiredTrajectoryPoint, ErrorState, ImpedanceParams,
)
from microinject.dynamics import ForcePair, MassParams, StageState
from microinject.frames import FrameParams
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
