"""numpy is loaded only by ``verify``: the package, ``simulate`` and
``free-response`` run without it, and the lane dispatch still finds arrays
when numpy is imported after the package.  No command imports
``reference``, and ``import microinject`` loads neither ``config`` nor
``verify``: their exports load on first use.  Neither the package nor
``cli`` loads ``dataclasses``, ``inspect`` or ``logging``."""

import ast
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import microinject
from microinject import verify

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "microinject"

# The scenario printed in README.md under "Scenario config".
README_SCENARIO = {
    "frame": {"alpha": 0.5235987755982988, "dx": 0.5, "dy": 0.5, "fx": 2.0, "fy": 4.0},
    "masses": {"mx": 1.0, "my": 1.0, "mp": 1.0},
    "impedance": {"m": 1.0, "b": 20.0, "k": 100.0},
    "trajectory": {"kind": "Quintic", "start": [0.0, 0.0], "end": [1.5, 0.5],
                   "duration": 3.0},
    "membrane": {"stiffness": 50.0, "damping": 2.0, "contact_x": 1.0},
    "fed": [0.5, 0.0],
    "run": {"t_end": 5.0, "dt": 0.001,
            "variants": ["StageConsistent", "Corrected", "SimPaper", "McPaper"]},
    "seed": 0,
}


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports the package from
    this checkout's src/; fail with its stderr unless it exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _module_level_imports(tree):
    """Import statements that run when the module is imported: everything
    outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return node.level == 0 and (node.module or "").split(".")[0] == "numpy"


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_verify_imports_numpy_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [n.lineno for n in _module_level_imports(tree) if _imports_numpy(n)]
    if path.name == "verify.py":
        assert found, "verify.py should import numpy for its lanes"
    else:
        assert found == [], f"{path.name} imports numpy at line(s) {found}"


# The modules ``import microinject`` leaves unloaded: numpy and verify, which
# imports it, config, which only a scenario document needs, and reference,
# which only the tests use.
UNLOADED_AT_IMPORT = ("numpy", "microinject.config", "microinject.verify",
                      "microinject.reference")

# The package's exports loaded on first use, by the module they are read
# from.
LAZY_EXPORTS = {
    "load_config": "config", "parse_config": "config",
    "ScenarioConfig": "config", "ParseError": "config",
    "InvariantError": "config", "SUITE_NAMES": "config",
    "run_suite": "verify", "PropertyResult": "verify",
}


def test_import_microinject_leaves_numpy_unloaded():
    out = run_python("""
        import sys
        import microinject
        print(*(name in sys.modules for name in sys.argv[1:]))
    """, *UNLOADED_AT_IMPORT)
    assert out.split() == ["False"] * len(UNLOADED_AT_IMPORT)


def test_lazy_exports_are_their_modules_objects():
    # in a fresh interpreter, so each name is looked up on first use, config's
    # before verify's: config's names load neither verify nor numpy
    out = run_python("""
        import importlib, json, sys
        import microinject
        for name, module in json.loads(sys.argv[1]).items():
            got = getattr(microinject, name)
            module = importlib.import_module("microinject." + module)
            print(name, got is getattr(module, name),
                  "microinject.verify" in sys.modules, "numpy" in sys.modules)
    """, json.dumps(LAZY_EXPORTS))
    assert out.split("\n")[:-1] == [
        f"{name} True {module == 'verify'} {module == 'verify'}"
        for name, module in LAZY_EXPORTS.items()]
    assert set(microinject._LAZY_EXPORTS) == set(LAZY_EXPORTS)


# The package root's public names, eager and lazy, sorted: the value types
# and records, the frame and matrix maps, the closed loop and its pieces,
# and config's and verify's names.  The one-call typed wrappers of
# ``control`` and ``dynamics`` are not among them.
ROOT_EXPORTS = [
    "CameraCoord", "ComparisonReport", "ControllerVariant",
    "DesiredTrajectoryPoint", "ErrorState", "ForcePair", "FrameParams",
    "ImageCoord", "ImpedanceParams", "InvariantError", "MassParams", "Mat2",
    "MembraneModel", "NonFiniteState", "ParseError", "PreconditionViolated",
    "PropertyResult", "RunMetrics", "SUITE_NAMES", "ScenarioConfig",
    "SingularMatrix", "StageCoord", "StageState", "Torque", "TraceRow",
    "TrajectoryKind", "TrajectorySpec", "VariantReport", "Vec2",
    "ZERO_FORCE", "ZERO_TORQUE", "camera_to_image", "compare_variants",
    "damping_matrix", "det", "diag", "identity", "image_offset",
    "image_space_operators", "integrate", "load_config", "mass_matrix",
    "mat_inv", "mat_mul", "mat_vec_mul", "membrane_force", "parse_config",
    "rotation_matrix", "run_closed_loop", "run_suite", "sample_trajectory",
    "stage_to_camera", "stage_to_image", "transformation_matrix",
    "transpose",
]


def test_package_root_exports_are_pinned():
    # submodules are attributes once imported, but not exports
    eager = {name for name, value in vars(microinject).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert sorted(eager | set(microinject._LAZY_EXPORTS)) == ROOT_EXPORTS


# Standard modules the package and the command line do without, for a
# faster start: the value types are built by ``algebra2d.frozen``, not
# ``dataclasses`` (which imports ``inspect``), and ``cli`` writes its own
# stderr lines, not through ``logging``.
UNLOADED_AT_START = ("dataclasses", "inspect", "logging")


@pytest.mark.parametrize("module", ["microinject", "microinject.cli"])
def test_import_loads_no_dataclasses_inspect_or_logging(module):
    # what the import adds, so that a module the interpreter's site loads
    # cannot fail this
    out = run_python("""
        import importlib, sys
        before = set(sys.modules)
        importlib.import_module(sys.argv[1])
        added = set(sys.modules) - before
        print(sys.argv[1] in added, *(name in added for name in sys.argv[2:]))
    """, module, *UNLOADED_AT_START)
    assert out.split() == ["True"] + ["False"] * len(UNLOADED_AT_START)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_logging(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Import)
             and any(a.name in ("dataclasses", "logging") for a in n.names)
             or isinstance(n, ast.ImportFrom) and n.level == 0
             and n.module in ("dataclasses", "logging")]
    assert found == [], f"{path.name} imports them at line(s) {found}"


def test_simulate_and_free_response_never_load_numpy(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(README_SCENARIO), encoding="utf-8")
    out = run_python("""
        import contextlib, io, sys
        from microinject import cli
        print("numpy" in sys.modules)
        config, out = sys.argv[1], sys.argv[2]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", config,
                             "--out", out + "/sim", "--svg"])
        print(code, "numpy" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["free-response", "--mx", "1", "--my", "1",
                             "--mp", "1", "--x0", "0", "--y0", "0",
                             "--xd0", "1", "--yd0", "-0.5", "--t-end", "2",
                             "--dt", "0.001", "--out", out + "/free.csv"])
        print(code, "numpy" in sys.modules)
    """, config, tmp_path)
    assert out.split("\n")[:3] == ["False", "0 False", "0 False"]
    assert (tmp_path / "sim" / "plot_McPaper.svg").exists()
    assert (tmp_path / "free.csv").exists()


def test_no_command_imports_the_reference(tmp_path):
    # reference is the tests' closed loop: the package, simulate and verify
    # run without compiling it
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(README_SCENARIO), encoding="utf-8")
    out = run_python("""
        import contextlib, io, sys
        import microinject
        from microinject import cli
        print("microinject.reference" in sys.modules)
        config, out = sys.argv[1], sys.argv[2]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", config,
                             "--out", out + "/sim", "--svg"])
        print(code, "microinject.reference" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--suite", "all"])
        print(code, "microinject.reference" in sys.modules)
    """, config, tmp_path)
    assert out.split("\n")[:3] == ["False", "0 False", "0 False"]
    assert (tmp_path / "sim" / "plot_McPaper.svg").exists()


def test_lanes_made_after_the_package_import_still_dispatch():
    # numpy is imported after microinject, so the dispatch must look it up
    # when it is called, not when the package is imported
    out = run_python("""
        import math, sys
        import microinject
        from microinject.algebra2d import Mat2, SingularMatrix, lane_max, mat_inv
        assert "numpy" not in sys.modules
        import numpy as np

        # one lane per column; lane 2, (3, 6, 1, 2), is singular
        entries = np.array([[2.0, 2.0, 3.0], [0.0, 1.0, 6.0],
                            [0.0, 1.0, 1.0], [2.0, 1.0, 2.0]])
        inv = mat_inv(Mat2(*entries[:, [0, 1]]))
        print(type(inv.m00).__name__, inv.m00.tolist())
        try:
            mat_inv(Mat2(*entries))
        except SingularMatrix as exc:
            print(exc)

        nan = math.nan
        folded = lane_max(np.array([nan, 1.0, 0.0]), np.array([2.0, nan, 3.0]))
        print([float(v).hex() for v in folded])
    """)
    lanes, singular, folded = out.strip().split("\n")
    assert lanes == "ndarray [0.5, 1.0]"
    assert singular == "matrix is singular within tolerance in lane 2 (|det|=0.000e+00)"
    # as max(): a NaN first value is kept, a later NaN is dropped
    assert folded == str(["nan", (1.0).hex(), (3.0).hex()])


def test_package_exports_verify_names_on_first_use():
    assert microinject.run_suite is verify.run_suite
    assert microinject.PropertyResult is verify.PropertyResult
    assert microinject.SUITE_NAMES is verify.SUITE_NAMES
    with pytest.raises(AttributeError, match="no_such_name"):
        microinject.no_such_name


def test_suite_names_follow_the_suites_table():
    assert verify.SUITE_NAMES == (*verify._SUITES, "all")


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py"))
     if p.name not in ("algebra2d.py", "verify.py")],
    ids=lambda p: p.name)
def test_only_algebra2d_and_verify_import_numpy_at_any_depth(path):
    # the lane branches that need numpy live in algebra2d (lane_map,
    # lane_max); every other kernel goes through them
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [n.lineno for n in ast.walk(tree)
             if isinstance(n, (ast.Import, ast.ImportFrom)) and _imports_numpy(n)]
    assert found == [], f"{path.name} imports numpy at line(s) {found}"
