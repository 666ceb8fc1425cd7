"""Command-line interface.

Subcommands: ``verify`` (randomized property suites), ``simulate``
(closed-loop scenario runs from a JSON config) and ``free-response``
(closed-form vs. integrated torque-free motion).

Exit codes: 0 success, 1 verification/numeric failure, 2 usage, config
or output error.  Reports and artifact paths go to stdout; diagnostics go
to stderr at the verbosity selected by the MICROINJECT_LOG environment
variable (error or info).  At info, ``verify`` logs the wall time of each
suite it runs.  ``simulate`` logs the wall time of its one walk, which
runs the closed loops of every torque law and writes their CSVs as they
step, with the number of laws it ran; then, with ``--svg``, the wall time
of each variant's SVG.

``simulate`` takes its closed loops from ``sim.run_variants``, the one
runner, with a keeper of its own that gives each run's sink, and holds
no run's rows.  The closed loops of all the torque laws are lanes of one
walk of the grid.  Each run writes the ``trace_<variant>.csv`` of
every variant that shares its law (``control.TorqueLaw.key``) from its
sink, a block of rows at a time, and, with ``--svg``, keeps only the rows
its chart plots, by the variant that ran: every
``report.chart_stride``-th row of the grid and the latest one.  So the
rows of every run's chart are held at once, each until its chart is
drawn.  A run that diverges may have a finite prefix with another stride,
so its chart is drawn from its CSV, read back a line at a time.  A
variant that reuses a run (its source is another variant) gets that
run's metrics and its SVG panels under the variant's own title, and an
info line names the variant that ran.

``free-response`` takes a negative value in any spelling that ``float()``
reads (``-1e-5``, ``-inf``).  It checks the masses, the inversion of
their mass matrix (``config.check_masses_invertible``), the step grid
(``check_steps``) and the initial conditions before it integrates, and
exits 2 if one fails.  It folds its errors with ``algebra2d.fold_worst``,
so a NaN error is its ``max_error`` and fails the run.  It prints the
worst absolute error, and succeeds when no row's error exceeds
``FREE_RESPONSE_MAX_ERROR`` times ``max(1, |x_closed|, |y_closed|)`` of
that row, so a run far from the origin is held to the rounding of its
positions, not to an absolute bound.

Every output file (CSV, SVG or ``metrics.json``) is written through
``report.outputs``: one that cannot be written exits 2 with ``cannot
write <path>: <reason>`` (``report.CannotWrite``) and leaves no other
output, and ``simulate`` prints its artifact paths only once all are.

Only ``verify`` imports numpy, for its lanes, so ``simulate`` and
``free-response`` run without loading it.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import re
import sys
import time
from typing import Any, Iterator, List, Optional

from . import report
from .config import (
    MAX_TRIALS, SUITE_NAMES, ScenarioConfig, check_masses_invertible,
    load_config,
)
from .dynamics import (
    MassParams,
    NonFiniteState,
    StageState,
    ZERO_FORCE,
    ZERO_TORQUE,
    check_steps,
    free_response_kernel,
    grid_rows,
    integrate,
)
from .algebra2d import Vec2, check_fields, fold_worst
from .control import ControllerVariant
from .sim import run_variants

log = logging.getLogger("microinject")

FREE_RESPONSE_MAX_ERROR = 1e-5

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO}

def _configure_logging() -> None:
    raw = os.environ.get("MICROINJECT_LOG", "error")
    level = _LOG_LEVELS.get(raw)
    if level is None:
        print(
            f"microinject: ignoring MICROINJECT_LOG={raw!r} "
            "(expected error or info)",
            file=sys.stderr,
        )
        level = logging.ERROR
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(message)s"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microinject",
        description="Stage model, controller variants and verification "
                    "suites for a robotic cell-injection system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run a randomized property suite and report residuals"
    )
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_verify.add_argument("--trials", type=int, default=None,
                          help="ensemble size override (default per suite)")
    p_verify.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser(
        "simulate", help="run closed-loop scenarios from a JSON config"
    )
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--svg", action="store_true",
                       help="also write plot_<variant>.svg charts")

    p_free = sub.add_parser(
        "free-response",
        help="emit closed-form vs. RK4 torque-free trajectories as CSV",
    )
    for name in ("--mx", "--my", "--mp", "--x0", "--y0", "--xd0", "--yd0",
                 "--t-end", "--dt"):
        p_free.add_argument(name, type=float, required=True)
    p_free.add_argument("--out", required=True)
    # argparse reads a token that starts with "-" as an option unless it
    # matches this; the default takes only plain negative decimals, so
    # "--x0 -1e-5" or "--mx -inf" would lose their value
    p_free._negative_number_matcher = re.compile(
        r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)
    return parser


def run_suite(name: str, seed: int, trials: Optional[int] = None) -> list:
    """``verify.run_suite``; ``verify``, and with it numpy, is imported only
    when a suite runs."""
    from .verify import run_suite as run

    return run(name, seed, trials)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.trials is not None and args.trials <= 0:
        print("microinject: --trials must be > 0", file=sys.stderr)
        return 2
    if args.trials is not None and args.trials > MAX_TRIALS:
        print(f"microinject: --trials must be <= {MAX_TRIALS}, got {args.trials}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("microinject: --seed must be >= 0", file=sys.stderr)
        return 2
    # one suite at a time, so that each one's wall time can be logged
    names = ([name for name in SUITE_NAMES if name != "all"]
             if args.suite == "all" else [args.suite])
    results = []
    for name in names:
        start = time.perf_counter()
        results.extend(run_suite(name, args.seed, args.trials))
        log.info("suite %s took %.3f s", name, time.perf_counter() - start)
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = (
            f"[{status}] {res.name:<42} worst {res.worst:.3e}  "
            f"bound {res.bound:.3e}  trials {res.trials}"
        )
        if res.detail:
            line += f"  ({res.detail})"
        print(line)
        all_passed = all_passed and res.passed
    print(f"suite {args.suite}: {'all properties passed' if all_passed else 'FAILURES detected'}")
    return 0 if all_passed else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        config: ScenarioConfig = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"microinject: config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"microinject: cannot create output dir: {exc}", file=sys.stderr)
        return 2

    # the stride at which the chart of a run that does not diverge samples
    # its rows, all of them finite
    stride = report.chart_stride(grid_rows(config.t_end, config.dt))

    variant_metrics = {}
    sampled = {}  # the rows each run's chart plots, by the variant that ran
    panels = {}  # each run's SVG panels, by the variant that ran, with --svg
    printed = []  # the artifact paths, printed once every file is written
    with report.outputs() as out:

        @contextlib.contextmanager
        def trace_csv(shared: List[ControllerVariant]) -> Iterator[Any]:
            """The sink of the run of the variants ``shared``: it writes
            their CSVs and, with --svg, keeps the rows its chart plots."""
            with out.trace_csv([os.path.join(args.out, f"trace_{v.value}.csv")
                                for v in shared]) as write_rows:
                keep, sampled[shared[0]] = report.chart_sampler(stride)

                def sink(block: List[tuple]) -> None:
                    write_rows(block)
                    keep(block)

                yield sink if args.svg else write_rows

        start = time.perf_counter()
        runs = run_variants(
            config.variants, config.masses, config.frame, config.impedance,
            config.trajectory, config.membrane, config.fed, config.t_end,
            config.dt, keeper=trace_csv,
        )
        log.info("one walk: %d torque laws, closed loops + CSVs %.3f s",
                 sum(source is variant for variant, source, _ in runs),
                 time.perf_counter() - start)
        for variant, source, metrics in runs:
            trace_path = os.path.join(args.out, f"trace_{variant.value}.csv")
            svg_path = os.path.join(args.out, f"plot_{variant.value}.svg")
            title = f"variant {variant.value}"
            ran = time.perf_counter()
            if source is not variant:
                log.info("variant %s reuses the closed loop of variant %s",
                         variant.value, source.value)
            printed.append(trace_path)
            if args.svg:
                with out.open(svg_path) as fh:
                    # a run that diverged may have its finite rows at
                    # another stride than the grid's: they are read back
                    # from its CSV, which is closed
                    if source is variant:
                        panels[source] = report.render_sampled_panels(
                            report.sample_trace_csv(
                                trace_path, metrics.samples - 1)
                            if metrics.diverged else sampled.pop(source))
                    report.write_trace_panels(fh, panels[source], title)
                printed.append(svg_path)
                log.info("variant %s: SVG %.3f s", variant.value,
                         time.perf_counter() - ran)
            variant_metrics[variant.value] = report.metrics_to_dict(metrics)
            if metrics.diverged:
                log.error("variant %s diverged after %d samples",
                          variant.value, metrics.samples)

        printed.append(os.path.join(args.out, "metrics.json"))
        with out.open(printed[-1]) as fh:
            report.write_metrics_json(fh, {
                "dt": config.dt,
                "t_end": config.t_end,
                "seed": config.seed,
                "variants": variant_metrics,
            })
    print(*printed, sep="\n")
    return 1 if any(m["diverged"] for m in variant_metrics.values()) else 0


def _cmd_free_response(args: argparse.Namespace) -> int:
    try:
        masses = MassParams(args.mx, args.my, args.mp)
        check_masses_invertible(masses)
        check_steps(args.t_end, args.dt, "t-end")
        check_fields(args, "finite", "x0", "y0", "xd0", "yd0")
    except ValueError as exc:
        print(f"microinject: invalid parameters: {exc}", file=sys.stderr)
        return 2

    s0 = StageState(Vec2(args.x0, args.y0), Vec2(args.xd0, args.yd0))
    try:
        samples = integrate(
            masses, s0, ZERO_TORQUE, ZERO_FORCE, args.t_end, args.dt
        )
    except NonFiniteState as exc:
        print(f"microinject: integration diverged: {exc}", file=sys.stderr)
        return 1
    closed_form = free_response_kernel(
        masses, args.x0, args.y0, args.xd0, args.yd0)
    max_err = 0.0
    # the worst error relative to max(1, |x_closed|, |y_closed|) of its row
    max_scaled = 0.0

    def rows():
        # made as the CSV is written, folding the worst errors as they go
        nonlocal max_err, max_scaled
        for t, x_rk4, y_rk4, _, _ in samples:
            x, y, *_ = closed_form(t)
            err_x = abs(x_rk4 - x)
            err_y = abs(y_rk4 - y)
            max_err = fold_worst(max_err, err_x, err_y)
            scale = max(1.0, abs(x), abs(y))
            max_scaled = fold_worst(max_scaled, err_x / scale, err_y / scale)
            yield t, x, y, x_rk4, y_rk4, err_x, err_y

    with report.outputs() as out, out.open(args.out) as fh:
        report.write_csv(fh, report.FREE_RESPONSE_HEADER, rows())
    print(args.out)
    print(f"max_error {report.fmt(max_err)}")
    return 0 if max_scaled <= FREE_RESPONSE_MAX_ERROR else 1


def main(argv: Optional[List[str]] = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_free_response(args)
    except report.CannotWrite as exc:
        print(f"microinject: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
