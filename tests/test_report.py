"""``report.outputs``: the one rule for the files a command writes, and
``Outputs.trace_csv``, the one writer of a trace CSV a block at a time;
``sample_trace_csv``, which reads a chart's rows back from a trace CSV."""

import errno
import io
import itertools
import os
import random

import pytest

from microinject.report import (
    CannotWrite, chart_sampler, chart_stride, outputs, sample_trace_csv,
    write_trace_csv,
)

# five trace rows, special values included, one field for each column
ROWS = [
    tuple(float(i) + f for f in (0.0, 0.25, -0.0, 1e-300, 3.5, -7.0, 0.1,
                                 2.0, -1.5, 1e17, 5e-324, 9.0, -2.25))
    for i in range(4)
] + [(4.0, float("nan"), float("inf"), float("-inf"), *[0.5] * 9)]


def fail_writes_to(monkeypatch, name, nth=4):
    """Make the ``nth`` and every later write to the disk of each binary
    file named ``name`` that ``report`` opens fail as a full disk does,
    on a regular file that ``report`` created."""
    import microinject.report as report

    class FullAfter(io.FileIO):
        writes = 0

        def write(self, data):
            self.writes += 1
            if self.writes >= nth:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return super().write(data)

    def failing_open(path, mode="r", *args, **kwargs):
        if os.path.basename(path) != name:
            return open(path, mode, *args, **kwargs)
        assert mode == "wb"
        return io.BufferedWriter(FullAfter(path, "w"))

    monkeypatch.setattr(report, "open", failing_open, raising=False)


def _blocks(rows, cuts):
    """``rows`` cut before each index in ``cuts``, in order."""
    bounds = [0, *cuts, len(rows)]
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def test_trace_csv_writes_the_bytes_of_write_trace_csv_for_any_cut(
    tmp_path,
):
    whole = tmp_path / "whole.csv"
    write_trace_csv(str(whole), ROWS)
    expected = whole.read_bytes()
    paths = [tmp_path / "streamed.csv", tmp_path / "shared.csv"]
    names = list(map(str, paths))
    # every set of cuts, with empty blocks at either end and between; each
    # file the sink writes gets the same bytes
    points = range(len(ROWS) + 1)
    for n in range(len(ROWS) + 2):
        for cuts in itertools.combinations_with_replacement(points, n):
            with outputs() as out, out.trace_csv(names) as write_rows:
                for block in _blocks(ROWS, cuts):
                    write_rows(block)
            assert [p.read_bytes() for p in paths] == [expected] * 2, cuts


@pytest.mark.parametrize("error", [
    ValueError("raised by the walk"),
    OSError(errno.EIO, "raised elsewhere"),
    CannotWrite("another.csv", OSError(errno.ENOSPC, "No space left")),
    KeyboardInterrupt(),
], ids=["ValueError", "OSError", "another-CannotWrite", "KeyboardInterrupt"])
def test_trace_csv_removes_its_file_when_the_block_raises(tmp_path, error):
    # whatever unwinds the block that is not its own failed write removes
    # the CSV, rows written or not, and reaches the caller as it was
    # raised, but for a bare OSError, which the rule of outputs names after
    # the file whose block it unwound
    path = tmp_path / "trace.csv"
    with pytest.raises(BaseException) as raised:
        with outputs() as out, out.trace_csv([str(path)]) as write_rows:
            write_rows(ROWS)
            raise error
    if type(error) is OSError:
        assert raised.value.path == str(path)
        assert raised.value.__cause__ is error
    else:
        assert raised.value is error
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("closed", [False, True],
                         ids=["in-the-walk", "after-the-walk"])
def test_outputs_removes_every_file_it_opened_when_the_block_raises(
    tmp_path, closed,
):
    # every file opened in the block, open or closed, and every file that
    # shares a sink, is removed
    paths = [str(tmp_path / name) for name in ("a.csv", "b.csv")]
    error = ValueError("raised by the command")
    with pytest.raises(ValueError) as raised:
        with outputs() as out:
            with out.open(str(tmp_path / "chart.svg")) as fh:
                fh.write(b"<svg/>\n")
            with out.trace_csv(paths) as write_rows:
                write_rows(ROWS)
                if not closed:
                    raise error
            raise error
    assert raised.value is error
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rows, in_sink", [(ROWS[:1], False),
                                           (ROWS * 400, True)],
                         ids=["fails-at-close", "fails-in-the-sink"])
def test_trace_csv_own_failed_write_names_its_path_and_leaves_it(
    tmp_path, rows, in_sink,
):
    # every write to /dev/full fails: a small block stays in the buffer and
    # fails when the file is closed, a large one in the sink's own write.
    # Either way the error names the path, the symlink is left, and the
    # regular file that shares the sink, before it or after it, is removed
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    for order in (1, -1):
        out_dir = tmp_path / str(order)
        out_dir.mkdir()
        path = out_dir / "trace.csv"
        path.symlink_to("/dev/full")
        returned = []
        with pytest.raises(CannotWrite) as raised:
            with outputs() as out, out.trace_csv(
                    [str(path), str(out_dir / "shared.csv")][::order]) as sink:
                sink(rows)
                returned.append(True)
        assert returned == ([] if in_sink else [True])
        assert raised.value.path == str(path)
        assert str(raised.value) == (
            f"cannot write {path}: {os.strerror(errno.ENOSPC)}")
        assert os.readlink(path) == "/dev/full"
        assert list(out_dir.iterdir()) == [path]


def test_a_directory_in_an_outputs_place_is_left_and_the_rest_removed(
    tmp_path,
):
    blocked = tmp_path / "plot.svg"
    blocked.mkdir()
    with pytest.raises(CannotWrite) as raised:
        with outputs() as out:
            with out.trace_csv([str(tmp_path / "trace.csv")]) as write_rows:
                write_rows(ROWS)
            with out.open(str(blocked)):
                pass
    assert str(raised.value) == (
        f"cannot write {blocked}: {os.strerror(errno.EISDIR)}")
    assert list(tmp_path.iterdir()) == [blocked]
    assert blocked.is_dir() and not any(blocked.iterdir())


def test_a_write_that_fails_on_a_file_it_created_leaves_no_file(
    tmp_path, monkeypatch,
):
    # the regular file whose own write failed is removed with the rest
    fail_writes_to(monkeypatch, "b.csv", nth=2)
    paths = [str(tmp_path / name) for name in ("a.csv", "b.csv")]
    with pytest.raises(CannotWrite) as raised:
        with outputs() as out, out.trace_csv(paths) as write_rows:
            for _ in range(10):
                write_rows(ROWS * 400)
    assert raised.value.path == paths[1]
    assert list(tmp_path.iterdir()) == []


def test_sample_trace_csv_keeps_what_chart_sampler_keeps(tmp_path):
    # 2,950 finite rows, then a non-finite one as a diverged run ends; each
    # n reads the first n rows, at strides 1, 2 and 3, with the last row
    # on the stride (1601, 2401) and off it (1602, 2400, 2945)
    rng = random.Random(7)
    special = (0.0, -0.0, 5e-324, -1e308, 0.1)
    rows = [tuple(rng.choice(special) if rng.random() < 0.2
                  else rng.uniform(-1e3, 1e3) for _ in range(13))
            for _ in range(2950)]
    rows.append((2950.0, float("nan"), *[float("inf")] * 11))
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), rows)
    with open(path, encoding="utf-8") as fh:
        next(fh)
        parsed = [tuple(map(float, line.split(","))) for line in fh]

    def bits(sampled):
        return [[v.hex() for v in row] for row in sampled]

    cases = (0, 1, 5, 799, 1601, 1602, 2400, 2401, 2945)
    assert {chart_stride(n) for n in cases} == {1, 2, 3}
    assert any((n - 1) % chart_stride(n) for n in cases)
    for n in cases:
        keep, want = chart_sampler(chart_stride(n))
        keep(parsed[:n])
        assert bits(sample_trace_csv(str(path), n)) == bits(want), n
