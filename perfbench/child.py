"""One benchmark process for one workload; started by run.py.

``--mode setup`` imports ``microinject``, builds the workload's inputs,
reports how long that took and the host speed right after (hostspeed.py),
and exits.  ``--mode measure`` does the same, then one untimed warm-up
pass, then timed passes for ``--seconds`` seconds with the host speed
measured before the first and after every pass, and reports pass times,
host speeds, output checks and its peak resident memory.  With
``--trace 1`` the measuring process splits its time between untraced
passes, traced passes and micro-timings.  The result is one JSON line on
stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Everything a run leaves behind goes here (ignored by git).
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# Share of --seconds given to untraced and to traced passes in a traced run;
# the rest goes to micro-timings.
UNTRACED_SHARE = 0.35
TRACED_SHARE = 0.45
MAX_PROBLEMS = 20


class Runner:
    def __init__(self, workload, inputs, work_root, pins):
        self.workload = workload
        self.inputs = inputs
        self.work_root = work_root
        self.pins = pins
        self.reference = None
        self.reference_calls = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self, tracer=None, corrupt=None):
        """Run and check one pass; return (seconds, PassCheck)."""
        wl = self.workload
        pass_dir = wl.new_pass_dir(self.work_root)
        gc.collect()
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        # every entry point returns a fully built result (exit code and
        # closed files, a ComparisonReport, a list of PropertyResult), so
        # the work is done when the call returns
        result = wl.run(self.inputs, pass_dir)
        seconds = time.perf_counter() - start
        try:
            artifacts = wl.artifacts(self.inputs, result, pass_dir)
        finally:
            workloads.remove_pass_dir(pass_dir)
        if corrupt is not None:
            corrupt(artifacts)
        check = workloads.check_pass(wl, self.inputs, result, artifacts,
                                     self.reference, self.pins, seconds)
        if self.reference is None:
            self.reference = check.digests
        return seconds, check

    def record(self, label, check):
        self.attempted += 1
        if check.problems:
            self.failed += 1
            for p in check.problems:
                if len(self.problems) < MAX_PROBLEMS:
                    self.problems.append(f"{label}: {p}")

    def check_calls(self, layer):
        """Call counts are exact: every traced pass must repeat the first."""
        calls = {k: v for k, v in layer.items() if k.endswith(".calls")}
        if self.reference_calls is None:
            self.reference_calls = calls
        return [f"{k} = {v}, first traced pass had {self.reference_calls[k]}"
                for k, v in calls.items() if v != self.reference_calls[k]]

    def timed_passes(self, budget_s, min_passes, tracer=None, after_pass=None):
        """Passes until the next one would end past ``budget_s``; the time
        of ``after_pass``, called after each pass, counts in the budget."""
        out = []
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            seconds, check = self.one_pass(tracer)
            layer = None
            if tracer is not None:
                layer = tracer.summary(seconds)
                check.problems += self.check_calls(layer)
            self.record(f"{'traced ' if tracer else ''}pass {len(out) + 1}", check)
            out.append((seconds, check, layer))
            if after_pass is not None:
                after_pass()
            now = time.perf_counter()
            # stop when one more pass like this one would overrun the budget
            if len(out) >= min_passes and (now - begin) + (now - start) > budget_s:
                return out


def load_pins(workload_name, seed):
    if seed != 0:
        return None
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload_name]


def setup(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    wl = workloads.WORKLOADS[args.workload]
    start = time.perf_counter()
    inputs = wl.setup(args.seed, args.work)
    return wl, inputs, time.perf_counter() - start


def measure(args, wl, inputs):
    import numpy

    runner = Runner(wl, inputs, args.work, load_pins(wl.name, args.seed))
    _, warm = runner.one_pass()
    for p in warm.problems[:MAX_PROBLEMS]:
        runner.problems.append(f"warm-up: {p}")
    report = {
        "warmup_ok": not warm.problems,
        "numpy": numpy.__version__,
        "input_size": dict(wl.input_size(inputs), rk4_steps=warm.steps,
                           bytes_written=warm.bytes_written),
    }
    if not args.trace:
        refs = [hostspeed.reference_s()]
        passes = runner.timed_passes(args.seconds, min_passes=3,
                                     after_pass=lambda: refs.append(hostspeed.reference_s()))
        report["reference_s"] = refs
        report["pass_s"] = [s for s, _, _ in passes]
        report["steps"] = [c.steps for _, c, _ in passes]
        report["steps_s"] = [c.steps_s for _, c, _ in passes]
    else:
        untraced = runner.timed_passes(UNTRACED_SHARE * args.seconds, min_passes=1)
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = runner.timed_passes(TRACED_SHARE * args.seconds, min_passes=2,
                                         tracer=tracer)
        finally:
            tracer.restore()
        os.makedirs(os.path.dirname(args.spans), exist_ok=True)
        tracer.write_spans(args.spans)
        tracer.reset()
        report["untraced_pass_s"] = [s for s, _, _ in untraced]
        report["traced_pass_s"] = [s for s, _, _ in traced]
        report["layers"] = [layer for _, _, layer in traced]
        report["micro"] = layers.micro_timings()
    report.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems)
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for this process")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()

    wl, inputs, setup_s = setup(args)
    report = {"setup_s": setup_s, "setup_reference_s": hostspeed.reference_s()}
    if args.mode == "measure":
        report.update(measure(args, wl, inputs))
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))


if __name__ == "__main__":
    main()
