"""Scenario configuration: strict JSON parsing with field-path errors.

Unknown keys are rejected so that typos in physics parameters surface
immediately instead of silently falling back to defaults (there are none:
every field is required).

This module checks the JSON rules: mappings, unknown, missing and
repeated keys, number types and finiteness, the trajectory keys that
depend on its kind, the ``run`` section, in which each variant may appear
once, ``seed``,
the invertibility of the mass matrix and of the frame, and that a
sinusoid's phase stays finite up to
``run.t_end`` and its desired acceleration stays finite
(``sim.check_sinusoid_phase``).  Each numeric rule of a
parameter (``masses.mx`` > 0, ``membrane.damping`` >= 0, ...) is checked
once, by its type's ``__post_init__``; a ``ValueError`` from a type is
re-raised as an ``InvariantError`` with the section in front.  An integer
too large for a float is not finite.
``run`` is checked by the closed loop's grid rule, ``sim.check_run_grid``.
The trajectory's kind-dependent keys are ``ParseError``s about the
document here, and ``TrajectorySpec`` checks them again for direct use.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from typing import Any, Dict, Mapping, NamedTuple, Sequence, Tuple

from .algebra2d import SingularMatrix, Vec2, mat_inv
from .control import STAGE_SPACE_VARIANTS, ControllerVariant, ImpedanceParams
from .dynamics import (  # noqa: F401  (MAX_STEPS is re-exported)
    MAX_STEPS, ForcePair, MassParams, mass_matrix,
)
from .frames import FrameParams, transformation_matrix
from .sim import (
    MembraneModel, TrajectoryKind, TrajectorySpec, check_run_grid,
    check_sinusoid_phase,
)


# The suites of ``verify --suite``, in ``verify._SUITES`` order, and "all".
# Defined here, apart from ``verify`` and numpy, because the command line
# needs them to build its parser.
SUITE_NAMES = ("frames", "dynamics", "implication", "discrepancy", "all")

# The most trials the command line runs per suite.  ``frames`` and
# ``dynamics`` draw 7 float64 columns for the whole ensemble up front, 56
# bytes a trial, so this keeps the largest draw near 56 MB.
MAX_TRIALS = 1_000_000


class ParseError(ValueError):
    """Structural problem: invalid JSON, unknown/missing key, wrong type."""


class InvariantError(ValueError):
    """A numeric constraint on a parsed value is violated."""


class ScenarioConfig(NamedTuple):
    frame: FrameParams
    masses: MassParams
    impedance: ImpedanceParams
    trajectory: TrajectorySpec
    membrane: MembraneModel
    fed: ForcePair
    t_end: float
    dt: float
    variants: Tuple[ControllerVariant, ...]
    seed: int


def _unique_keys(pairs: Sequence[Tuple[str, Any]]) -> Dict[str, Any]:
    """The object of a JSON document, as ``json.loads``' object hook; a key
    given twice is a ``ParseError``, where ``json.loads`` keeps the last."""
    out: Dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"repeated key '{key}': each key may appear once")
        out[key] = value
    return out


def _require_mapping(node: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(node, dict):
        raise ParseError(f"{path} must be an object")
    return node


def _check_keys(node: Mapping[str, Any], required: Sequence[str],
                optional: Sequence[str], path: str) -> None:
    allowed = set(required) | set(optional)
    for key in node:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ParseError(f"unknown key '{where}'")
    for key in required:
        if key not in node:
            where = f"{path}.{key}" if path else key
            raise ParseError(f"missing key '{where}'")


def _float(value: Any) -> float:
    """``float(value)`` of a JSON number; an integer too large for a float
    is an infinity of its sign, which the finiteness rules reject."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(node: Mapping[str, Any], key: str, path: str) -> float:
    where = f"{path}.{key}" if path else key
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number")
    value = _float(value)
    if not math.isfinite(value):
        raise InvariantError(f"{where} must be finite")
    return value


def _vec2(node: Mapping[str, Any], key: str, path: str) -> Vec2:
    where = f"{path}.{key}" if path else key
    value = node[key]
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ParseError(f"{where} must be an array of two numbers")
    out = Vec2(_float(value[0]), _float(value[1]))
    if not out.is_finite():
        raise InvariantError(f"{where} components must be finite")
    return out


def _build(params: Any, path: str, **values: Any) -> Any:
    """``params(**values)``, with a ValueError from the type's rules
    re-raised as an InvariantError that puts ``path`` in front."""
    try:
        return params(**values)
    except ValueError as exc:
        raise InvariantError(f"{path}.{exc}") from exc


def _parse_params(node: Any, path: str, params: Any) -> Any:
    """A section whose keys are the fields of ``params``, each a number."""
    node = _require_mapping(node, path)
    names = [field.name for field in fields(params)]
    _check_keys(node, names, (), path)
    return _build(params, path, **{name: _number(node, name, path) for name in names})


def _parse_trajectory(node: Any) -> TrajectorySpec:
    node = _require_mapping(node, "trajectory")
    _check_keys(
        node, ("kind", "start", "duration"), ("end", "amplitude", "frequency"),
        "trajectory",
    )
    kind_raw = node["kind"]
    if kind_raw not in (k.value for k in TrajectoryKind):
        raise ParseError(
            "trajectory.kind must be one of: "
            + ", ".join(sorted(k.value for k in TrajectoryKind))
        )
    kind = TrajectoryKind(kind_raw)
    start = _vec2(node, "start", "trajectory")
    duration = _number(node, "duration", "trajectory")
    if kind is TrajectoryKind.QUINTIC:
        if "end" not in node:
            raise ParseError("missing key 'trajectory.end'")
        for forbidden in ("amplitude", "frequency"):
            if forbidden in node:
                raise ParseError(
                    f"trajectory.{forbidden} is only valid for kind 'Sinusoid'"
                )
        return _build(
            TrajectorySpec, "trajectory", kind=kind, start=start,
            duration=duration, end=_vec2(node, "end", "trajectory"),
        )
    for required in ("amplitude", "frequency"):
        if required not in node:
            raise ParseError(f"missing key 'trajectory.{required}'")
    if "end" in node:
        raise ParseError("trajectory.end is only valid for kind 'Quintic'")
    return _build(
        TrajectorySpec, "trajectory", kind=kind, start=start,
        duration=duration, amplitude=_vec2(node, "amplitude", "trajectory"),
        frequency=_number(node, "frequency", "trajectory"),
    )


def _parse_variants(value: Any) -> Tuple[ControllerVariant, ...]:
    if not isinstance(value, list):
        raise ParseError("run.variants must be an array of variant names")
    if not value:
        raise InvariantError("run.variants must not be empty (no variants selected)")
    out = []
    valid = ", ".join(sorted(v.value for v in ControllerVariant))
    for i, name in enumerate(value):
        if not isinstance(name, str) or name not in (
            v.value for v in ControllerVariant
        ):
            raise ParseError(
                f"run.variants[{i}] must be one of: {valid}"
            )
        variant = ControllerVariant(name)
        if variant in out:
            raise ParseError(
                f"run.variants[{i}] repeats {name!r}: each variant may appear once")
        out.append(variant)
    return tuple(out)


def _parse_run(node: Any) -> Tuple[float, float, Tuple[ControllerVariant, ...]]:
    node = _require_mapping(node, "run")
    _check_keys(node, ("t_end", "dt", "variants"), (), "run")
    t_end, dt = _number(node, "t_end", "run"), _number(node, "dt", "run")
    try:
        check_run_grid(t_end, dt, "run.t_end", "run.dt")
    except ValueError as exc:
        raise InvariantError(str(exc)) from exc
    return t_end, dt, _parse_variants(node["variants"])


def _check_frame_invertible(
    frame: FrameParams, variants: Tuple[ControllerVariant, ...],
) -> None:
    """The transform-weighted variants invert T; reject a frame whose T
    fails the inversion cutoff before anything runs.  fx, fy > 0 alone
    does not ensure it: fx = 1e7, fy = 1e-7 gives det T = 1 against a
    cutoff of 100."""
    weighted = [v.value for v in variants if v not in STAGE_SPACE_VARIANTS]
    if not weighted:
        return
    try:
        mat_inv(transformation_matrix(frame))
    except SingularMatrix as exc:
        raise InvariantError(
            f"frame: the stage-to-image matrix T cannot be inverted ({exc}); "
            f"variants {', '.join(weighted)} need its inverse"
        ) from exc


def check_masses_invertible(masses: MassParams) -> None:
    """Every run inverts M; reject masses whose M fails the inversion
    cutoff before anything runs.  Masses > 0 alone do not ensure it:
    mx = 1e13, my = mp = 1 gives det M = 2e13 against a cutoff of 1e14, and
    three masses of 1e-7 give det M = 6e-14 against a cutoff of 1e-12.
    ``simulate`` (through the config) and ``free-response`` both call it."""
    try:
        mat_inv(mass_matrix(masses))
    except SingularMatrix as exc:
        raise InvariantError(
            f"masses: the mass matrix M cannot be inverted ({exc})"
        ) from exc


def _parse_seed(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError("seed must be an integer")
    if value < 0:
        raise InvariantError("seed must be >= 0")
    return value


_TOP_KEYS = ("frame", "masses", "impedance", "trajectory", "membrane", "fed",
             "run", "seed")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate a scenario document.

    Raises ParseError for structural problems (invalid JSON, unknown,
    missing or repeated keys, wrong types) and InvariantError when a value
    violates a model constraint; both messages name the offending field
    path, except a repeated key's, which names the key.
    """
    try:
        root = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    root = _require_mapping(root, "config")
    _check_keys(root, _TOP_KEYS, (), "")
    fed = _vec2(root, "fed", "")
    t_end, dt, variants = _parse_run(root["run"])
    frame = _parse_params(root["frame"], "frame", FrameParams)
    config = ScenarioConfig(
        frame=frame,
        masses=_parse_params(root["masses"], "masses", MassParams),
        impedance=_parse_params(root["impedance"], "impedance", ImpedanceParams),
        trajectory=_parse_trajectory(root["trajectory"]),
        membrane=_parse_params(root["membrane"], "membrane", MembraneModel),
        fed=ForcePair(fed.a0, fed.a1),
        t_end=t_end,
        dt=dt,
        variants=variants,
        seed=_parse_seed(root["seed"]),
    )
    check_masses_invertible(config.masses)
    _check_frame_invertible(frame, variants)
    _build(check_sinusoid_phase, "trajectory", spec=config.trajectory,
           t_end=t_end)
    return config


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
