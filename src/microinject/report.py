"""Trace and metrics emission: CSV, JSON and self-contained SVG charts.

All numeric output uses 17 significant digits so values round-trip through
text exactly; identical runs produce byte-identical files.  A CSV is
formatted straight to bytes: ``bytes % tuple`` renders each float as
``"%.17g" %`` does, with no str built or encoded on the way.

Every output file is opened through ``outputs``, the one rule for the
files of a command: a file that cannot be written raises ``CannotWrite``
(``cannot write <path>: <reason>``), and a command that fails leaves no
file it opened.  A trace can be written whole (``write_trace_csv``,
``write_trace_svg``) or as a closed loop makes it: ``Outputs.trace_csv``
writes each block of rows to the CSV of every variant that shares the
run, and ``chart_sampler`` keeps only the rows its chart plots, which
``render_sampled_panels`` draws.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from itertools import islice
from typing import (
    BinaryIO, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple,
)

from .sim import RunMetrics, TraceRow

TRACE_HEADER = ",".join(TraceRow._fields)
FREE_RESPONSE_HEADER = "t,x_closed,y_closed,x_rk4,y_rk4,err_x,err_y"


def fmt(value: float) -> str:
    """Round-trippable decimal rendering of a float."""
    return "%.17g" % value


def _line_format(header: str) -> bytes:
    """The ``%`` format of one CSV line under ``header``, in bytes: each
    value as ``fmt`` renders it, encoded."""
    return b",".join([b"%.17g"] * len(header.split(","))) + b"\n"


def write_csv(fh: BinaryIO, header: str,
              rows: Iterable[Sequence[float]]) -> None:
    """One line per row to ``fh``, each value rendered as ``fmt`` does."""
    line = _line_format(header)
    fh.write(header.encode() + b"\n")
    fh.writelines(line % tuple(row) for row in rows)


def write_trace_csv(path: str, rows: Iterable[Sequence[float]]) -> None:
    with outputs() as out, out.open(path) as fh:
        write_csv(fh, TRACE_HEADER, rows)


class CannotWrite(Exception):
    """The output file ``path`` could not be written."""

    def __init__(self, path: str, exc: OSError) -> None:
        super().__init__(f"cannot write {path}: {exc.strerror or exc}")
        self.path = path


class Outputs:
    """The output files of one command, as it opens them: see ``outputs``."""

    def __init__(self) -> None:
        self.opened: List[str] = []

    @contextlib.contextmanager
    def open(self, path: str) -> Iterator[BinaryIO]:
        """``path`` opened in binary mode for the block: an OSError of the
        open, of the block or of the close raises ``CannotWrite`` naming it."""
        try:
            with open(path, "wb") as fh:
                self.opened.append(path)
                yield fh
        except OSError as exc:
            raise CannotWrite(path, exc) from exc

    @contextlib.contextmanager
    def trace_csv(
        self, paths: Sequence[str],
    ) -> Iterator[Callable[[Sequence[Tuple[float, ...]]], None]]:
        """Open the trace CSV at each of ``paths``, write its header and
        give a sink that formats each block of rows handed to it, tuples of
        floats in ``TraceRow``'s field order, once, as ``write_trace_csv``
        does, and writes those bytes to every file.  Its own failed write
        raises ``CannotWrite`` naming that file, not another one."""
        line = _line_format(TRACE_HEADER).__mod__
        with contextlib.ExitStack() as stack:
            files = [(path, stack.enter_context(self.open(path)).write)
                     for path in paths]

            def write_rows(block: Sequence[Tuple[float, ...]]) -> None:
                data = b"".join(map(line, block))
                for path, write in files:
                    try:
                        write(data)
                    except OSError as exc:
                        raise CannotWrite(path, exc) from exc

            for _, write in files:
                write(TRACE_HEADER.encode() + b"\n")  # into the buffer
            yield write_rows


@contextlib.contextmanager
def outputs() -> Iterator[Outputs]:
    """The one rule for the files a command writes: each is opened through
    the ``Outputs`` this gives, and if the block raises, every regular file
    opened is removed, written or half written.  A directory or a symlink
    in an output's place is left as it was."""
    out = Outputs()
    try:
        yield out
    except BaseException:
        for path in out.opened:
            with contextlib.suppress(OSError):
                if not os.path.islink(path) and os.path.isfile(path):
                    os.remove(path)
        raise


def metrics_to_dict(metrics: RunMetrics) -> Dict[str, object]:
    return {
        "rms_tracking_error": [
            metrics.rms_tracking_error.a0,
            metrics.rms_tracking_error.a1,
        ],
        "max_impedance_residual": metrics.max_impedance_residual,
        "torque_divergence_rms": metrics.torque_divergence_rms,
        "samples": metrics.samples,
        "diverged": metrics.diverged,
    }


def _finite_or_null(value: object) -> object:
    """``value`` with every non-finite float replaced by None (JSON null),
    since strict JSON has no token for NaN or infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_metrics_json(fh: BinaryIO, payload: Dict[str, object]) -> None:
    """Strict JSON, to the binary file ``fh``: a non-finite float is
    written as null."""
    fh.write(json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                        allow_nan=False).encode() + b"\n")


# --- SVG charts -----------------------------------------------------------

_SVG_W = 800
_SVG_H = 480
_PANEL_MARGIN = 46
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _panel_polylines(
    series: Sequence[Tuple[str, List[float], bool]],
    x_texts: List[str],
    x0: float, y0: float, w: float, h: float,
) -> List[str]:
    """One panel at (x0, y0), w by h, of ``series`` (label, values,
    dashed); ``x_texts`` holds each sampled point's x as the ``"px,"`` text
    that starts its polyline point."""
    lo = min((min(v) for _, v, _ in series if v), default=0.0)
    hi = max((max(v) for _, v, _ in series if v), default=1.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo, hi = 0.0, 1.0
    if hi - lo < 1e-300:
        lo -= 0.5
        hi += 0.5
        if lo == hi:
            # past about 1e16 the 0.5 is lost to rounding: widen by half
            # the magnitude instead, which stays finite at any finite value
            lo, hi = lo - abs(lo) / 2, hi + abs(hi) / 2
    # a span past the float range is measured on halved values; halving is
    # exact, and scaling by 1.0 leaves every other span's arithmetic as is
    half = 1.0 if math.isfinite(hi - lo) else 0.5
    lo_h, span_h = lo * half, hi * half - lo * half
    parts = [
        f'<rect x="{x0:.1f}" y="{y0:.1f}" width="{w:.1f}" height="{h:.1f}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
        f'<text x="{x0:.1f}" y="{y0 - 6:.1f}" font-size="11" fill="#444">'
        f"[{lo:.4g}, {hi:.4g}]</text>",
    ]
    # every series' points, each x text followed by its y as "%.2f", which
    # rounds as f"{y:.2f}" does
    points = " ".join(x + "%.2f" for x in x_texts)
    bottom = y0 + h
    for idx, (label, values, dashed) in enumerate(series):
        ys = tuple([bottom - (v * half - lo_h) / span_h * h for v in values])
        color = _COLORS[idx % len(_COLORS)]
        dash = ' stroke-dasharray="5,3"' if dashed else ""
        parts.append(
            f'<polyline points="{points % ys}" fill="none" '
            f'stroke="{color}" stroke-width="1.2"{dash}/>'
        )
        parts.append(
            f'<text x="{x0 + w - 90:.1f}" y="{y0 + 14 + 13 * idx:.1f}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    return parts


def chart_stride(finite_rows: int) -> int:
    """The stride at which a chart samples a trace of ``finite_rows``
    finite rows: about 800 to 1,600 points a series."""
    return max(1, finite_rows // 800)


def chart_sampler(stride: int) -> Tuple[
    Callable[[Sequence[Sequence[float]]], None], List[Sequence[float]]
]:
    """A sink that keeps, of the rows handed to it in blocks, those a chart
    plots: every ``stride``-th row from the first, and the latest one;
    and the list that holds them, in order.

    The list is what ``render_trace_panels`` samples from the same rows in
    one sequence, by the same row objects, so it does not depend on how
    the rows were split into blocks.
    """
    sampled: List[Sequence[float]] = []
    seen = 0
    # whether sampled[-1] is the latest row, kept only as that
    latest_only = False

    def keep(block: Sequence[Sequence[float]]) -> None:
        nonlocal seen, latest_only
        if not block:
            return
        if latest_only:
            del sampled[-1]
        # the first row of the block whose index in the trace is a
        # multiple of the stride
        sampled.extend(block[-seen % stride::stride])
        seen += len(block)
        latest_only = sampled[-1] is not block[-1]
        if latest_only:
            sampled.append(block[-1])

    return keep, sampled


def sample_trace_csv(path: str, finite_rows: int) -> List[Tuple[float, ...]]:
    """The rows a chart plots of the first ``finite_rows`` rows of the
    trace CSV at ``path``, read a line at a time: those ``chart_sampler``
    keeps at their ``chart_stride``, and only those are parsed.  ``fmt``
    round-trips, so ``float`` gives back each value's bits, ``-0``
    included, and the chart is the one the rows that were written would
    give."""
    stride = chart_stride(finite_rows)
    sampled: List[Tuple[float, ...]] = []
    index = 0
    with open(path, encoding="utf-8", newline="") as fh:
        next(fh)  # the header
        for index, line in enumerate(islice(fh, finite_rows)):
            if not index % stride:
                sampled.append(tuple(map(float, line.split(","))))
        if index % stride:
            # the latest row, off the stride
            sampled.append(tuple(map(float, line.split(","))))
    return sampled


def render_trace_panels(rows: Sequence[Sequence[float]]) -> str:
    """The two stacked panels (positions, torques) of a trace chart, as the
    SVG elements that ``write_trace_panels`` puts under the title.

    ``rows`` are those of ``run_closed_loop``, columns in ``TraceRow``'s
    field order, so only the last row can be non-finite (a diverged run's
    flagged row); it is not plotted.  The finite rows are sampled by
    ``chart_sampler`` at their ``chart_stride`` and drawn by
    ``render_sampled_panels``.
    """
    finite = (rows[:-1] if rows and not all(map(math.isfinite, rows[-1]))
              else rows)
    keep, sampled = chart_sampler(chart_stride(len(finite)))
    keep(finite)
    return render_sampled_panels(sampled)


def render_sampled_panels(sampled: Sequence[Sequence[float]]) -> str:
    """``render_trace_panels`` of a trace whose finite rows ``chart_sampler``
    has already sampled: the rows to plot, every one finite."""

    def column(name: str) -> List[float]:
        index = TraceRow._fields.index(name)
        return [r[index] for r in sampled]

    ts = column("t")

    panel_w = _SVG_W - 2 * _PANEL_MARGIN
    panel_h = (_SVG_H - 3 * _PANEL_MARGIN) / 2
    # no finite row leaves every series empty: panels and legend only
    t_lo, t_hi = (ts[0], ts[-1]) if ts else (0.0, 1.0)
    if t_hi - t_lo < 1e-300:
        t_hi = t_lo + 1.0
    # each point's x, formatted once for the eight series of both panels
    x_texts = [f"{_PANEL_MARGIN + (t - t_lo) / (t_hi - t_lo) * panel_w:.2f},"
               for t in ts]
    top = _panel_polylines(
        [
            ("x", column("x"), False),
            ("y", column("y"), False),
            ("xd", column("xd"), True),
            ("yd", column("yd"), True),
        ],
        x_texts, _PANEL_MARGIN, _PANEL_MARGIN, panel_w, panel_h,
    )
    bottom = _panel_polylines(
        [
            ("taux", column("taux"), False),
            ("tauy", column("tauy"), False),
            ("taux_oracle", column("taux_oracle"), True),
            ("tauy_oracle", column("tauy_oracle"), True),
        ],
        x_texts, _PANEL_MARGIN, 2 * _PANEL_MARGIN + panel_h, panel_w, panel_h,
    )
    return "\n".join(top + bottom)


def write_trace_panels(fh: BinaryIO, panels: str, title: str) -> None:
    """A chart of ``render_trace_panels`` output under ``title``, at a
    fixed 800x480 viewport, to the binary file ``fh``; one rendering serves
    any number of titles."""
    head = "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_PANEL_MARGIN}" y="24" font-size="14" fill="#000">'
        f"{title}</text>",
    ])
    # written in pieces: the panels are the bulk of the chart, and joining
    # them into one string would copy them once more
    fh.writelines(map(str.encode, (head, "\n", panels, "\n</svg>\n")))


def write_trace_svg(
    path: str, rows: Sequence[Sequence[float]], title: str
) -> None:
    """Two stacked panels (positions, torques) at a fixed 800x480 viewport:
    ``render_trace_panels`` then ``write_trace_panels``, as an output of
    its own."""
    with outputs() as out, out.open(path) as fh:
        write_trace_panels(fh, render_trace_panels(rows), title)
