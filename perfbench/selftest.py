"""Self-test of the output gate behind ``failed`` / ``failed_share``.

    python3 perfbench/selftest.py

For each workload, at seed 0 (checked against pins.json) and at seed 1
(checked against the first pass), it runs a clean pass, then one pass per
artifact with one byte of that artifact flipped, then a clean pass, all
through the checks the timed passes use.  Every flipped pass must fail and
every clean pass must not, so failed_share rises from 0.  Exits 1 on the
first miss.
"""

from __future__ import annotations

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import child  # noqa: E402
import workloads  # noqa: E402


def flip_one_byte(name):
    def corrupt(artifacts):
        data = bytearray(artifacts[name])
        data[len(data) // 2] ^= 0x01
        artifacts[name] = bytes(data)
    return corrupt


def check_workload(wl, seed, work):
    runner = child.Runner(wl, wl.setup(seed, work), work, child.load_pins(wl.name, seed))
    _, first = runner.one_pass()
    runner.record("clean pass", first)
    names = sorted(first.digests)
    for name in names:
        _, check = runner.one_pass(corrupt=flip_one_byte(name))
        runner.record(f"{name} flipped", check)
        if not check.problems:
            return f"a flipped byte in {name} passed the checks"
    _, last = runner.one_pass()
    runner.record("clean pass", last)
    if first.problems or last.problems:
        return f"a clean pass failed: {first.problems + last.problems}"
    if runner.failed != len(names):
        return f"{runner.failed} failed passes, expected {len(names)}"
    print(f"{wl.name} seed {seed}: failed_share 0 -> "
          f"{runner.failed / runner.attempted:.3f} with {len(names)} flipped artifacts")
    return None


def main():
    os.makedirs(child.RUN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=child.RUN_DIR) as work:
        for wl in workloads.WORKLOADS.values():
            for seed in (0, 1):
                error = check_workload(wl, seed, work)
                if error:
                    print(f"FAIL {wl.name} seed {seed}: {error}")
                    return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
