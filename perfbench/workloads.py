"""The three benchmark workloads: inputs drawn from a seed, one pass through
a public entry point, and the byte-level checks on what the pass produced.

Every workload is a closed loop with one caller: a pass starts only after
the previous one has returned.  ``setup`` runs once per process and is what
``setup_s`` times (it includes importing ``microinject``); ``run`` is one
timed pass; ``artifacts`` turns the pass result into named byte strings,
whose SHA-256 digests are compared against the first pass of the process
and, at seed 0, against ``pins.json``; ``invariants`` checks the facts that
must hold on every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import layers

VARIANT_NAMES = ("StageConsistent", "Corrected", "SimPaper", "McPaper")

# The scenario printed in README.md under "Scenario config"; seed 0 runs it
# unchanged.
README_SCENARIO = {
    "frame": {"alpha": 0.5235987755982988, "dx": 0.5, "dy": 0.5, "fx": 2.0, "fy": 4.0},
    "masses": {"mx": 1.0, "my": 1.0, "mp": 1.0},
    "impedance": {"m": 1.0, "b": 20.0, "k": 100.0},
    "trajectory": {"kind": "Quintic", "start": [0.0, 0.0], "end": [1.5, 0.5], "duration": 3.0},
    "membrane": {"stiffness": 50.0, "damping": 2.0, "contact_x": 1.0},
    "fed": [0.5, 0.0],
    "run": {"t_end": 5.0, "dt": 0.001, "variants": list(VARIANT_NAMES)},
    "seed": 0,
}

# Trace rows per closed-loop run; t_end/dt is a whole number in both sim
# workloads, so a run takes exactly rows - 1 RK4 steps.
SIMULATE_ROWS = 5001
COMPARE_ROWS = 10001

VERIFY_DEFAULT_TRIALS = {"frames": 10000, "dynamics": 1000,
                         "implication": 10000, "discrepancy": 10000}
VERIFY_PROPERTY_COUNT = 15


def _draw_frame(rng: random.Random) -> Dict[str, float]:
    # Skewed frames whose stage-to-image matrix keeps eigenvalues with a
    # positive real part, so every variant's closed loop stays finite.
    return {
        "alpha": rng.uniform(math.pi / 12, math.pi / 4),
        "dx": rng.uniform(0.25, 1.0),
        "dy": rng.uniform(0.25, 1.0),
        "fx": rng.uniform(1.5, 3.0),
        "fy": rng.uniform(2.0, 5.0),
    }


@dataclass
class PassCheck:
    """What one pass produced and what is wrong with it."""

    digests: Dict[str, str]
    steps: int
    # seconds in which the ``steps`` were taken
    steps_s: float
    bytes_written: int
    problems: List[str]


class Workload:
    name = ""
    why = ""
    writes_files = False

    def setup(self, seed: int, work_root: str) -> object:
        raise NotImplementedError

    def new_pass_dir(self, work_root: str) -> Optional[str]:
        return None

    def run(self, inputs: object, pass_dir: Optional[str]) -> object:
        raise NotImplementedError

    def artifacts(self, inputs: object, result: object,
                  pass_dir: Optional[str]) -> Dict[str, bytes]:
        raise NotImplementedError

    def invariants(self, inputs: object, result: object,
                   artifacts: Dict[str, bytes]) -> Tuple[int, List[str]]:
        """Return (RK4 steps taken, problems) for one pass."""
        raise NotImplementedError

    def steps_seconds(self, result: object, pass_s: float) -> float:
        """Seconds of the pass in which its RK4 steps were taken: the whole
        pass, for a workload that is one closed loop."""
        return pass_s

    def input_size(self, inputs: object) -> Dict[str, object]:
        raise NotImplementedError


class SimulateReadme(Workload):
    name = "simulate_readme"
    writes_files = True
    why = ("cli simulate on the README scenario with --svg: the user's real path, "
           "the only one through config, cli and the report writers")

    @staticmethod
    def scenario(seed: int) -> Dict[str, object]:
        doc = json.loads(json.dumps(README_SCENARIO))
        if seed == 0:
            return doc
        rng = random.Random(f"simulate_readme/{seed}")
        doc["frame"] = _draw_frame(rng)
        doc["trajectory"]["end"] = [rng.uniform(1.2, 1.8), rng.uniform(0.2, 0.8)]
        doc["membrane"] = {
            "stiffness": rng.uniform(30.0, 70.0),
            "damping": rng.uniform(1.0, 3.0),
            "contact_x": rng.uniform(0.9, 1.1),
        }
        return doc

    def setup(self, seed, work_root):
        from microinject import cli  # noqa: F401  (import is part of set-up)
        from microinject.config import load_config

        path = os.path.join(work_root, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.scenario(seed), fh, indent=2)
        config = load_config(path)
        return {"config_path": path, "variants": [v.value for v in config.variants]}

    def new_pass_dir(self, work_root):
        # a directory that does not exist yet, inside a fresh one, so that
        # the CLI creates it as it would for a user
        return os.path.join(tempfile.mkdtemp(prefix="pass-", dir=work_root), "out")

    def run(self, inputs, pass_dir):
        from microinject import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["simulate", "--config", inputs["config_path"],
                             "--out", pass_dir, "--svg"])
        return code, out.getvalue()

    @staticmethod
    def file_names(inputs) -> List[str]:
        names = []
        for v in inputs["variants"]:
            names += [f"trace_{v}.csv", f"plot_{v}.svg"]
        return names + ["metrics.json"]

    def artifacts(self, inputs, result, pass_dir):
        found = {}
        for name in self.file_names(inputs):
            path = os.path.join(pass_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    found[name] = fh.read()
        return found

    def invariants(self, inputs, result, artifacts):
        code, stdout = result
        problems = []
        if code != 0:
            problems.append(f"cli.main returned {code}")
        expected = self.file_names(inputs)
        missing = [n for n in expected if n not in artifacts]
        if missing:
            problems.append(f"missing artifacts: {missing}")
        printed = [os.path.basename(line) for line in stdout.splitlines()]
        if printed != expected:
            problems.append(f"stdout lists {printed}, expected {expected}")
        steps = 0
        for v in inputs["variants"]:
            data = artifacts.get(f"trace_{v}.csv", b"")
            rows = data.count(b"\n") - 1
            if rows != SIMULATE_ROWS:
                problems.append(f"trace_{v}.csv has {rows} rows, expected {SIMULATE_ROWS}")
            steps += max(rows - 1, 0)
        if artifacts.get("trace_SimPaper.csv") != artifacts.get("trace_StageConsistent.csv"):
            problems.append("trace_SimPaper.csv and trace_StageConsistent.csv differ")
        return steps, problems

    def input_size(self, inputs):
        return {"variants": len(inputs["variants"]), "rows_per_variant": SIMULATE_ROWS}


def remove_pass_dir(pass_dir: Optional[str]) -> None:
    if pass_dir is not None:
        shutil.rmtree(os.path.dirname(pass_dir), ignore_errors=True)


def _metrics_text(m) -> str:
    return " ".join([
        m.rms_tracking_error.a0.hex(), m.rms_tracking_error.a1.hex(),
        m.max_impedance_residual.hex(), m.torque_divergence_rms.hex(),
        str(m.samples), str(m.diverged),
    ])


class CompareSinusoid(Workload):
    name = "compare_sinusoid"
    why = ("in-memory compare_variants on a sinusoid crossing the membrane: "
           "sin/cos path, contact switching and the torque re-evaluation pass, no file output")

    @staticmethod
    def scenario(seed: int) -> Dict[str, object]:
        doc = {
            "frame": dict(README_SCENARIO["frame"]),
            "start": [0.8, 0.0], "amplitude": [0.4, 0.2], "frequency": 0.5,
            "stiffness": 50.0, "damping": 2.0,
        }
        if seed == 0:
            return doc
        rng = random.Random(f"compare_sinusoid/{seed}")
        doc["frame"] = _draw_frame(rng)
        # the peak start+amplitude stays above contact_x=1.0 and the trough
        # below it, so contact switches on and off every period
        doc["start"] = [rng.uniform(0.75, 0.85), rng.uniform(-0.1, 0.1)]
        doc["amplitude"] = [rng.uniform(0.35, 0.45), rng.uniform(0.1, 0.3)]
        doc["frequency"] = rng.uniform(0.4, 0.6)
        doc["stiffness"] = rng.uniform(30.0, 70.0)
        doc["damping"] = rng.uniform(1.0, 3.0)
        return doc

    def setup(self, seed, work_root):
        from microinject import (
            ControllerVariant, FrameParams, ImpedanceParams, MassParams,
            MembraneModel, TrajectoryKind, TrajectorySpec, Vec2,
        )
        from microinject.dynamics import ForcePair

        doc = self.scenario(seed)
        return {
            "base": ControllerVariant.STAGE_CONSISTENT,
            "others": [ControllerVariant.CORRECTED, ControllerVariant.SIM_PAPER,
                       ControllerVariant.MC_PAPER],
            "masses": MassParams(1.0, 1.0, 1.0),
            "frame": FrameParams(**doc["frame"]),
            "gains": ImpedanceParams(1.0, 20.0, 100.0),
            "spec": TrajectorySpec(
                TrajectoryKind.SINUSOID, Vec2(*doc["start"]), duration=10.0,
                amplitude=Vec2(*doc["amplitude"]), frequency=doc["frequency"],
            ),
            "membrane": MembraneModel(doc["stiffness"], doc["damping"], 1.0),
            "fed": ForcePair(0.5, 0.0),
            "t_end": 10.0,
            "dt": 0.001,
        }

    def run(self, inputs, pass_dir):
        from microinject import compare_variants

        return compare_variants(
            inputs["base"], inputs["others"], inputs["masses"], inputs["frame"],
            inputs["gains"], inputs["spec"], inputs["membrane"], inputs["fed"],
            inputs["t_end"], inputs["dt"],
        )

    def artifacts(self, inputs, result, pass_dir):
        lines = [f"{result.base.value} {_metrics_text(result.base_metrics)}"]
        for r in result.reports:
            lines.append(f"{r.variant.value} {_metrics_text(r.metrics)} "
                         f"{r.torque_rms_vs_base.hex()} {r.tracking_rms_vs_base.hex()}")
        return {"comparison_report": ("\n".join(lines) + "\n").encode()}

    def invariants(self, inputs, result, artifacts):
        problems = []
        runs = [(result.base.value, result.base_metrics)]
        runs += [(r.variant.value, r.metrics) for r in result.reports]
        if [name for name, _ in runs] != list(VARIANT_NAMES):
            problems.append(f"variants {[name for name, _ in runs]}")
        steps = 0
        for name, m in runs:
            if m.samples != COMPARE_ROWS or m.diverged:
                problems.append(f"{name}: samples={m.samples} diverged={m.diverged}")
            steps += max(m.samples - 1, 0)
        for r in result.reports:
            if r.variant.value == "SimPaper" and (
                r.metrics != result.base_metrics
                or r.torque_rms_vs_base != 0.0 or r.tracking_rms_vs_base != 0.0
            ):
                problems.append("SimPaper differs from StageConsistent")
        return steps, problems

    def input_size(self, inputs):
        return {"variants": 4, "rows_per_variant": COMPARE_ROWS}


class VerifyAll(Workload):
    name = "verify_all"
    why = ("verify.run_suite('all') at default trials: verify, frames, "
           "dynamics.integrate and control with a fresh frame per call; sim and report do no work")

    def setup(self, seed, work_root):
        from microinject import verify  # noqa: F401  (import is part of set-up)

        return {"seed": seed}

    def run(self, inputs, pass_dir):
        from microinject import run_suite

        # the RK4 steps of this workload are those of dynamics.integrate,
        # which runs 4 times a pass; time each run and count its steps
        with layers.timing_calls("dynamics", "integrate",
                                 lambda samples: len(samples) - 1) as integrations:
            properties = run_suite("all", inputs["seed"])
        return properties, integrations

    def artifacts(self, inputs, result, pass_dir):
        properties, _ = result
        text = "".join(f"{r.name} {r.passed} {r.worst.hex()} {r.trials}\n"
                       for r in properties)
        return {"property_results": text.encode()}

    def invariants(self, inputs, result, artifacts):
        properties, integrations = result
        problems = [f"{r.name} failed: worst {r.worst!r} bound {r.bound!r}"
                    for r in properties if not r.passed]
        if len(properties) != VERIFY_PROPERTY_COUNT:
            problems.append(f"{len(properties)} properties, expected {VERIFY_PROPERTY_COUNT}")
        for r in properties:
            suite = r.name.split(".")[0]
            if r.trials not in (1, VERIFY_DEFAULT_TRIALS[suite]):
                problems.append(f"{r.name} ran {r.trials} trials")
        steps = sum(n for _, n in integrations)
        if steps <= 0:
            problems.append("dynamics.integrate took no RK4 step")
        return steps, problems

    def steps_seconds(self, result, pass_s):
        _, integrations = result
        return sum(s for s, _ in integrations)

    def input_size(self, inputs):
        return {"trials": VERIFY_DEFAULT_TRIALS}


WORKLOADS = {w.name: w for w in (SimulateReadme(), VerifyAll(), CompareSinusoid())}


def check_pass(
    workload: Workload,
    inputs: object,
    result: object,
    artifacts: Dict[str, bytes],
    reference: Optional[Dict[str, str]],
    pins: Optional[Dict[str, str]],
    pass_s: float,
) -> PassCheck:
    """Digest the artifacts and list every way the pass is wrong.

    ``reference`` holds the digests of the first pass of the process and
    ``pins`` the digests committed for seed 0 (None on other seeds).
    """
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in sorted(artifacts.items())}
    steps, problems = workload.invariants(inputs, result, artifacts)
    for label, expected in (("first pass", reference), ("pins.json", pins)):
        if expected is None:
            continue
        for name in sorted(set(expected) | set(digests)):
            if expected.get(name) != digests.get(name):
                problems.append(f"{name} digest differs from {label}")
    written = sum(len(d) for d in artifacts.values()) if workload.writes_files else 0
    return PassCheck(digests, steps, workload.steps_seconds(result, pass_s),
                     written, problems)
