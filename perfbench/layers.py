"""Per-layer measurement from outside the program.

``Tracer`` wraps the public functions of each ``microinject`` module for the
length of a traced pass.  Most modules bind their callees with
``from .x import y``, so a wrapper is installed under every name, in every
``microinject`` module and module-level dict (``verify._SUITES``), that is
bound to the original function; patching the defining module alone would
leave the calls from ``run_closed_loop`` to ``torque_controller`` and
``rk4_step`` untraced.  ``restore`` puts every binding back.

Spans (name, start, end, parent) are kept in memory and summarised after
the pass.  The small ``algebra2d`` operations are counted, not timed,
because timing each of their ~10^6 calls per pass would swamp the trace;
their time shows up in the self time of their callers.

``micro_timings`` times single calls on fixed inputs, with tracing off.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import sys
import time
import timeit
from typing import Callable, Dict, Iterator, List, Tuple

# Functions recorded as spans: calls and self time.
SPANS = (
    ("sim", "run_closed_loop"), ("sim", "compare_variants"),
    ("sim", "sample_trajectory"), ("sim", "membrane_force"),
    ("control", "torque_controller"), ("control", "implication_residual"),
    ("dynamics", "rk4_step"), ("dynamics", "integrate"),
    ("dynamics", "free_response"),
    ("frames", "transformation_matrix"),
    ("report", "write_trace_csv"), ("report", "write_trace_svg"),
    ("report", "write_metrics_json"),
    ("config", "load_config"), ("cli", "main"),
    ("verify", "frames_suite"), ("verify", "dynamics_suite"),
    ("verify", "implication_suite"), ("verify", "discrepancy_suite"),
)
# Functions whose calls are only counted.
COUNTED = (
    ("control", "commanded_accel"), ("control", "force_control_residual"),
    ("dynamics", "mass_matrix"),
    ("algebra2d", "mat_vec_mul"), ("algebra2d", "mat_inv"),
)
VEC2_OPS = ("__add__", "__sub__", "__neg__", "scale")
MODULES = ("sim", "control", "dynamics", "frames", "report", "config", "cli", "verify")


def _package_modules() -> List[object]:
    return [m for n, m in sorted(sys.modules.items())
            if n == "microinject" or n.startswith("microinject.")]


def _lookup(module: str, func: str):
    return getattr(importlib.import_module(f"microinject.{module}"), func)


def _rebind(original, wrapper, undo: List[Tuple[object, str, object]]) -> None:
    """Bind ``wrapper`` under every name bound to ``original`` and note each
    binding in ``undo``."""
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, original))
                setattr(module, key, wrapper)
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is original:
                        undo.append((value, k, original))
                        value[k] = wrapper


def _restore(undo: List[Tuple[object, str, object]]) -> None:
    while undo:
        target, key, original = undo.pop()
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)


@contextlib.contextmanager
def timing_calls(module: str, func: str,
                 measure: Callable[[object], object]) -> Iterator[List[Tuple[float, object]]]:
    """Within the block, record (seconds, ``measure(return value)``) of each
    call of one function, rebound the way ``Tracer`` rebinds it.  One clock
    pair per call is cheap enough for a timed pass when the function runs a
    few times per pass; ``measure`` keeps the record from holding results."""
    original = _lookup(module, func)
    calls: List[Tuple[float, object]] = []
    clock = time.perf_counter

    @functools.wraps(original)
    def timed(*args, **kwargs):
        start = clock()
        out = original(*args, **kwargs)
        calls.append((clock() - start, measure(out)))
        return out

    undo: List[Tuple[object, str, object]] = []
    _rebind(original, timed, undo)
    try:
        yield calls
    finally:
        _restore(undo)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, int, int]] = []
        self._stack: List[int] = []
        self.counts: Dict[str, List[int]] = {}
        self._undo: List[Tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def _counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for module, func in SPANS:
            original = _lookup(module, func)
            _rebind(original, self._span(f"{module}.{func}", original), self._undo)
        for module, func in COUNTED:
            original = _lookup(module, func)
            _rebind(original, self._counter(f"{module}.{func}", original), self._undo)
        vec2 = _lookup("algebra2d", "Vec2")
        for op in VEC2_OPS:
            original = vec2.__dict__[op]
            self._undo.append((vec2, op, original))
            # all four share one counter
            setattr(vec2, op, self._counter("algebra2d.vec2_ops", original))

    def restore(self) -> None:
        _restore(self._undo)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        for cell in self.counts.values():
            cell[0] = 0

    def summary(self, pass_s: float) -> Dict[str, float]:
        """Per-layer metrics of the pass just traced."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Dict[str, int] = {f"{m}.{f}": 0 for m, f in SPANS}
        self_ns: Dict[str, int] = dict.fromkeys(calls, 0)
        torque_parents = {"sim.run_closed_loop": 0, "sim.compare_variants": 0}
        root_ns = 0
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            if parent < 0:
                root_ns += end - start
            elif name == "control.torque_controller":
                caller = spans[parent][0]
                if caller in torque_parents:
                    torque_parents[caller] += 1
        out: Dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for caller, n in torque_parents.items():
            out[f"control.torque_controller.from_{caller.split('.')[1]}.calls"] = n
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        for module in MODULES:
            busy = sum(v for k, v in self_ns.items() if k.startswith(module + "."))
            out[f"share.{module}"] = 100.0 * busy / 1e9 / pass_s
        out["share.untraced"] = 100.0 * max(0.0, pass_s - root_ns / 1e9) / pass_s
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")


def micro_timings(repeat: int = 7, batch_s: float = 0.02) -> Dict[str, float]:
    """Nanoseconds per call of single hot functions on fixed inputs from
    the README scenario (the state at t = 1.3 s, in membrane contact)."""
    import microinject as mi
    from microinject import algebra2d, control, dynamics, frames, report, sim

    frame = mi.FrameParams(math.pi / 6, 0.5, 0.5, 2.0, 4.0)
    masses = mi.MassParams(1.0, 1.0, 1.0)
    gains = mi.ImpedanceParams(1.0, 20.0, 100.0)
    quintic = mi.TrajectorySpec(mi.TrajectoryKind.QUINTIC, mi.Vec2(0.0, 0.0), 3.0,
                                end=mi.Vec2(1.5, 0.5))
    sinusoid = mi.TrajectorySpec(mi.TrajectoryKind.SINUSOID, mi.Vec2(0.8, 0.0), 10.0,
                                 amplitude=mi.Vec2(0.4, 0.2), frequency=0.5)
    membrane = mi.MembraneModel(50.0, 2.0, 1.0)
    desired = sim.sample_trajectory(quintic, 1.3)
    q, qdot = mi.Vec2(1.05, 0.3), mi.Vec2(0.4, 0.1)
    fe = sim.membrane_force(membrane, q, qdot)
    e, edot = desired.qd - q, desired.qd_dot - qdot
    errors = mi.ErrorState(e, edot, (fe.vec - edot.scale(gains.b) - e.scale(gains.k))
                           .scale(1.0 / gains.m))
    ns = dict(
        algebra2d=algebra2d, control=control, dynamics=dynamics, frames=frames,
        report=report, sim=sim, frame=frame, masses=masses, gains=gains,
        quintic=quintic, sinusoid=sinusoid, membrane=membrane, desired=desired,
        q=q, qdot=qdot, fe=fe, errors=errors, fed=mi.ForcePair(0.5, 0.0),
        m=frames.transformation_matrix(frame),
        minv=algebra2d.mat_inv(dynamics.mass_matrix(masses)),
        tau=mi.Vec2(3.0, 1.5), value=0.1234567890123456,
    )
    stmts = {
        "algebra2d.mat_vec_mul": "algebra2d.mat_vec_mul(m, q)",
        "algebra2d.vec2_add": "q + qdot",
        "frames.transformation_matrix": "frames.transformation_matrix(frame)",
        "sim.sample_trajectory.quintic": "sim.sample_trajectory(quintic, 1.3)",
        "sim.sample_trajectory.sinusoid": "sim.sample_trajectory(sinusoid, 1.3)",
        "sim.membrane_force": "sim.membrane_force(membrane, q, qdot)",
        "dynamics.rk4_step": "dynamics.rk4_step(minv, q, qdot, tau, fed.vec, 1e-3)",
        "report.fmt": "report.fmt(value)",
    }
    for variant in control.ControllerVariant:
        ns[variant.value] = variant
        stmts[f"control.torque_controller.{variant.value}"] = (
            f"control.torque_controller({variant.value}, masses, frame, gains, "
            "desired, qdot, errors, fe, fed)")
    out = {}
    for name, stmt in stmts.items():
        timer = timeit.Timer(stmt, globals=ns)
        number = 1
        while timer.timeit(number) < batch_s:
            number *= 2
        runs = timer.repeat(repeat, number)
        out[f"{name}.ns_per_call"] = statistics.median(runs) / number * 1e9
    return out
