"""Rewrite pins.json: the seed-0 output digests every pass is checked against.

    python3 perfbench/pin.py

Run it from the root of a checkout only when a change is meant to alter
the program's output, and say so in that change; a speed-up must leave
pins.json as it is.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import child  # noqa: E402
import workloads  # noqa: E402


def main():
    pins = {}
    os.makedirs(child.RUN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=child.RUN_DIR) as work:
        for name, wl in workloads.WORKLOADS.items():
            runner = child.Runner(wl, wl.setup(0, work), work, pins=None)
            _, check = runner.one_pass()
            if check.problems:
                sys.exit(f"{name}: {check.problems}")
            pins[name] = check.digests
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
