"""The benchmark's per-layer tracer and micro-timings look the program's
functions up by module and name (``perfbench/layers.py``).  Looking each one
up here, once, catches a renamed or deleted function in seconds."""

import importlib
import math
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _package_bindings():
    return {(name, key): value
            for name, module in sys.modules.items()
            if name == "microinject" or name.startswith("microinject.")
            for key, value in vars(module).items()}


def test_tracer_and_micro_timings_find_every_function_they_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    # install imports every module it names before it rebinds
    for module in {m for m, _ in layers.SPANS + layers.COUNTED}:
        importlib.import_module(f"microinject.{module}")
    before = _package_bindings()
    tracer = layers.Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    timings = layers.micro_timings(repeat=1, batch_s=0.0)
    assert timings and all(math.isfinite(v) and v > 0.0
                           for v in timings.values())
