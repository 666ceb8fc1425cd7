"""Benchmark of microinject: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see workloads.py for what each pass does and why it was chosen):
``simulate_readme``, ``verify_all`` and ``compare_sinusoid``.  Load comes
from one process on one thread, one pass at a time, one workload at a time.

With ``--trace 0`` the end-to-end metrics are measured: ``setup_s`` is the
median over fresh processes of importing ``microinject`` and building the
inputs; one further process makes a warm-up pass and then timed passes for
``--seconds`` seconds, giving ``pass_s`` (median pass time), ``steps_per_s``
(the RK4 steps the passes took, counted from their output, over the seconds
spent taking them: the whole passes of a closed-loop workload, the
``dynamics.integrate`` calls of ``verify_all``) and ``peak_rss_mb``.  Every
time is corrected to a nominal host speed measured next to it
(hostspeed.py); the measured times are printed too.
Every pass is checked byte for byte (see workloads.py); a pass that fails a
check counts in ``failed``, and ``failed_share`` is ``failed / attempted``.

With ``--trace 1`` the per-layer metrics are measured in one process: the
functions of each module are wrapped from outside the program (layers.py),
spans are summarised per traced pass, and single calls are micro-timed.

Human-readable lines come first on stdout; the last line is the result
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when a result was printed and 1 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

# Fresh processes timed for setup_s, after one untimed process that warms
# the bytecode and file caches; the measuring process adds one more sample.
SETUP_PROCESSES = 6
# Every process must end within DEADLINE_BASE_S + DEADLINE_PER_S * --seconds
# of the benchmark's start: the base covers the set-up processes, the
# warm-up pass and a last pass that overruns the budget; 170 s at --seconds 30.
DEADLINE_BASE_S = 110.0
DEADLINE_PER_S = 2.0


class BenchmarkError(RuntimeError):
    pass


def spread(values):
    """(median, q1, q3) of a sample, with q1 = q3 = median for one value."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def run_child(args, mode, work, started, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if spans:
        cmd += ["--spans", spans]
    deadline = DEADLINE_BASE_S + DEADLINE_PER_S * args.seconds
    timeout = deadline - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} process timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None

    def git(*argv):
        return subprocess.run(["git", "-C", ROOT, *argv], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    try:
        return git("rev-parse", "HEAD") or None, bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def end_to_end(args, work, started):
    run_child(args, "setup", work, started)  # untimed: warms caches
    children = [run_child(args, "setup", work, started) for _ in range(SETUP_PROCESSES)]
    res = run_child(args, "measure", work, started)
    children.append(res)
    setups = [c["setup_s"] * hostspeed.factor(c["setup_reference_s"]) for c in children]
    # each pass is corrected by the mean of the host speeds measured just
    # before and just after it
    refs = res["reference_s"]
    factors = [hostspeed.factor((a + b) / 2) for a, b in zip(refs, refs[1:])]
    passes = [s * f for s, f in zip(res["pass_s"], factors)]
    # pooled over the run: the RK4 steps of verify_all take well under a
    # second per pass, too short for a steady per-pass rate
    rate = sum(res["steps"]) / sum(s * f for s, f in zip(res["steps_s"], factors))
    rows = [
        ("setup_s", spread(setups), "s", f"{len(setups)} fresh processes"),
        ("pass_s", spread(passes), "s", f"{len(passes)} passes"),
        ("steps_per_s", (rate,) * 3, "1/s", f"{res['steps'][0]} RK4 steps per pass, pooled"),
        ("peak_rss_mb", (res["peak_rss_mb"],) * 3, "MB", "measuring process"),
    ]
    for name, (med, q1, q3), unit, note in rows:
        print(f"  {name:<12} {med:>12.6g} {unit:<4} q1 {q1:.6g} q3 {q3:.6g}  ({note})")
    print(f"  times above are at the nominal host speed; host speed factors "
          f"{min(factors):.3f}-{max(factors):.3f} over the passes")
    print("  measured pass_s " + json.dumps(res["pass_s"]))
    print("  measured setup_s " + json.dumps([c["setup_s"] for c in children]))
    metrics = {name: {"value": med, "unit": unit} for name, (med, _, _), unit, _ in rows}
    return res, metrics


def unit_of(name):
    if name.endswith(".calls"):
        return "count"
    if name == "report.bytes_written":
        return "bytes"
    if name.endswith(".ns_per_call"):
        return "ns"
    return "s"


def per_layer(args, work, started):
    spans = os.path.join(child.RUN_DIR, f"spans-{args.workload}.tsv")
    res = run_child(args, "measure", work, started, spans=spans)
    # counts repeat exactly between traced passes (the child checks it);
    # times are medians over the traced passes
    values = {k: v if k.endswith(".calls") else
              statistics.median(layer[k] for layer in res["layers"])
              for k, v in res["layers"][0].items()}
    values.update(res["micro"])
    traced = statistics.median(res["traced_pass_s"])
    untraced = statistics.median(res["untraced_pass_s"])
    values.update({"trace.pass_s": traced, "trace.untraced_pass_s": untraced,
                   "trace.overhead_s": traced - untraced,
                   "report.bytes_written": res["input_size"]["bytes_written"]})
    # shares of a pass sum to 100%, so one layer getting faster raises the
    # others': they are printed, and the comparable figures are the self_s
    shares = {k[6:]: values.pop(k) for k in list(values) if k.startswith("share.")}
    print("  layer share of a traced pass: " + ", ".join(
        f"{k} {v:.1f}%" for k, v in shares.items() if v >= 0.05))
    print(f"  traced pass {traced:.4g} s, untraced {untraced:.4g} s "
          f"({len(res['traced_pass_s'])} and {len(res['untraced_pass_s'])} passes); "
          f"spans of the last traced pass in {os.path.relpath(spans, ROOT)}")
    metrics = {}
    for name in sorted(values):
        unit = unit_of(name)
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<56} {values[name]:>14.6g} {unit}")
    return res, metrics


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "microinject", "__init__.py")):
        print("perfbench: no src/microinject here; run from the root of a checkout",
              file=sys.stderr)
        return 1
    load1 = os.getloadavg()[0]
    sha, dirty = git_state()
    wl = workloads.WORKLOADS[args.workload]
    print(f"workload {wl.name} seed {args.seed}: {wl.why}")

    os.makedirs(child.RUN_DIR, exist_ok=True)
    work = os.path.join(child.RUN_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            res, metrics = per_layer(args, work, started)
        else:
            res, metrics = end_to_end(args, work, started)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    print(f"  failed_share {failed / attempted:.6g} share ({failed} of {attempted} passes)")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    provenance = {
        "python": platform.python_version(), "numpy": res["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "git_sha": sha, "git_dirty": dirty,
        "loadavg_1min_at_start": load1, "seed": args.seed, "workload": wl.name,
        "input_size": res["input_size"], "seconds": args.seconds, "trace": args.trace,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": res["warmup_ok"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
