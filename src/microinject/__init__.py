"""Numerical model of a robotic cell-injection stage.

Covers the stage/camera/image coordinate frames, the 2-DOF motion-stage
dynamics with a closed-form free response and an RK4 integrator, impedance
force control, four side-by-side formulations of the image-based torque
controller, a deterministic closed-loop scenario engine and randomized
verification suites.

Two groups of exports are loaded on first use (PEP 562), so that
``import microinject`` builds neither module:

* ``config``'s six (``load_config``, ``parse_config``, ``ScenarioConfig``,
  ``ParseError``, ``InvariantError``, ``SUITE_NAMES``): the in-memory API
  never parses a scenario document, and ``cli`` imports ``config`` itself;
* ``verify``'s two (``run_suite``, ``PropertyResult``): ``verify`` imports
  numpy, which nothing else here needs.
"""

import importlib

from .algebra2d import (
    Mat2,
    SingularMatrix,
    Vec2,
    det,
    diag,
    identity,
    mat_inv,
    mat_mul,
    mat_vec_mul,
    transpose,
)
from .control import (
    ControllerVariant,
    DesiredTrajectoryPoint,
    ErrorState,
    ImpedanceParams,
    PreconditionViolated,
    commanded_accel,
    error_state,
    force_control_residual,
    implication_residual,
    required_torque,
    torque_controller,
)
from .dynamics import (
    ForcePair,
    MassParams,
    NonFiniteState,
    StageState,
    Torque,
    ZERO_FORCE,
    ZERO_TORQUE,
    damping_matrix,
    dynamics_residual,
    free_response,
    free_response_accel,
    image_space_operators,
    integrate,
    mass_matrix,
)
from .frames import (
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
from .sim import (
    ComparisonReport,
    MembraneModel,
    RunMetrics,
    TraceRow,
    TrajectoryKind,
    TrajectorySpec,
    VariantReport,
    compare_variants,
    membrane_force,
    run_closed_loop,
    sample_trajectory,
)

__version__ = "0.1.0"

# The exports looked up on first use, by the module they are read from.
_LAZY_EXPORTS = {
    "InvariantError": "config",
    "ParseError": "config",
    "SUITE_NAMES": "config",
    "ScenarioConfig": "config",
    "load_config": "config",
    "parse_config": "config",
    "PropertyResult": "verify",
    "run_suite": "verify",
}


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
